"""Programmable-discriminator POVMs.

Builders for the three measurement families (equal-dimension optimal,
dimension-independent universal, and the zero-success antisymmetric one),
the unambiguity verifier, success probabilities, and the covariance checks
an optimal discriminator must satisfy.

The measurement acts on n program registers plus one data register, each of
dimension m.  Element i >= 1 of a built POVM is c · I on register i tensored
with the antisymmetric projector on the remaining n registers (taken in
ascending order); element 0 is the inconclusive remainder I - Σ_i Π_i.
A built POVM keeps only that structure: outcome probabilities of product
inputs come from Gram determinants, and the dense elements are assembled
only when something reads them, under the dense-storage budget in force
then (config.entry_cap).

Verification lifts no operator to all n+1 registers and solves no dense
eigenproblem for a sector-diagonal element.  Every element the paper
builds commutes with each collective unitary U^⊗(n+1), so it is
block-diagonal over the weight sectors (basis states sharing one multiset
of levels): the minimum eigenvalues come from the sector blocks, with one
dense eigensolve for an element that has a nonzero entry outside them.
check_covariance proves that invariance exactly rather than sampling it:
an operator commutes with every U^⊗(n+1) iff it commutes with
dΓ(E) = Σ_r E_r for the 2(m−1) generators E = E_{a,a+1}, E_{a+1,a},
because U(m) is connected, those generators span sl(m) under commutators,
and dΓ(I) = (n+1)·I.  Each term E_r is an index shift on one register
axis of the element.  Hermiticity is checked once per element, in
verify_unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antisym import antisym_projector
from .config import check_square
from .errors import IndexOutOfRange, InvalidPovm, LayoutMismatch, NotHermitian, WrongRegime
from .tensor_algebra import (
    gram,
    gram_det,
    kron_chain,
    max_abs,
    own_register_first,
    partial_trace,
    reorder_factors,
    require_hermitian,
    require_normalized,
)

PSD_RESIDUAL_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
LEAKAGE_TOL = 1e-9
UNITARY_COV_TOL = 1e-9
PERMUTATION_COV_TOL = 1e-10
REDUCTION_TOL = 1e-9
REDUCTION_SPREAD_TOL = 1e-10


def auto_family(m: int, n: int) -> str:
    """Family used when none is named: optimal when m = n, universal otherwise."""
    return "optimal" if m == n else "universal"


_COEFFICIENTS = {
    "optimal": lambda n: n / (n + 1),
    "universal": lambda n: 1.0 / n,
    "trivial": lambda n: 1.0 / n,
}


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Povm:
    """Measurement {Π_0, Π_1, …, Π_n} on n+1 registers of dimension m.

    An explicit POVM holds its dense elements and has c = family = None.  A
    built POVM (family_povm and the build_* functions) records only its
    family and coefficient c; its dense elements are assembled on first
    access, under the dense-storage budget in force then (config.entry_cap).
    Outcome probabilities of product inputs never need them
    (product_probabilities).
    """

    m: int
    n: int
    family: str | None
    c: float | None
    _elements: tuple[np.ndarray, ...] | None

    def __init__(self, m: int, n: int, elements=None, *, family: str | None = None):
        if (elements is None) == (family is None):
            raise ValueError("a POVM is given either by its dense elements or by a built family")
        values = {
            "m": int(m),
            "n": int(n),
            "family": family,
            "c": None if family is None else _COEFFICIENTS[family](int(n)),
            "_elements": None if elements is None else tuple(elements),
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        """Dense (Π_0, …, Π_n); a built POVM assembles them here, under the budget in force."""
        if self._elements is None:
            dense = _assemble(self.family, self.m, self.n, self.c)
            object.__setattr__(self, "_elements", dense)
        return self._elements

    @property
    def dims(self) -> tuple[int, ...]:
        """Register dimensions (m,)*(n+1): n program registers, then the data register."""
        return (self.m,) * (self.n + 1)

    @property
    def dim(self) -> int:
        return self.m ** (self.n + 1)

    def residuals(self) -> tuple[list[float], float]:
        """(min eigenvalue per element, completeness residual ‖ΣΠ - I‖_max).

        An element whose entries outside its weight sectors are exactly zero
        is block-diagonal, so its minimum eigenvalue is the least over the
        sector blocks; any other element takes one dense eigensolve.
        """
        sectors = _weight_sectors(self.m, self.n + 1)
        mins = [_min_eigenvalue(e, sectors) for e in self.elements]
        total = sum(self.elements)
        comp = max_abs(total - np.eye(self.dim))
        return mins, comp


def _weight_sectors(m: int, count: int) -> list[np.ndarray]:
    """Basis indices of count registers of dimension m, grouped by weight sector.

    A sector is the set of basis states sharing one multiset of levels; an
    operator that commutes with every collective unitary U^⊗count maps each
    sector into itself.  Returns one (sectors, size) index array per sector
    size, so the blocks of one size are read and solved together.
    """
    powers = m ** np.arange(count)
    digits = np.arange(m**count)[:, None] // powers % m
    _, label, sizes = np.unique(np.sort(digits, axis=1) @ powers, return_inverse=True,
                                return_counts=True)
    sectors = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    return [np.array([s for s in sectors if len(s) == size]) for size in np.unique(sizes)]


def _min_eigenvalue(e: np.ndarray, sectors: list[np.ndarray]) -> float:
    """Least eigenvalue of a Hermitian element, by sector blocks when it is sector-diagonal."""
    blocks = [e[idx[:, :, None], idx[:, None, :]] for idx in sectors]
    if sum(np.count_nonzero(b) for b in blocks) != np.count_nonzero(e):
        return float(np.linalg.eigvalsh(e)[0])
    return min(float(np.linalg.eigvalsh(b).min()) for b in blocks)


@dataclass(frozen=True)
class ProgramInput:
    """Program registers loaded with the candidate states, data register with state j.

    The m^(n+1) tensor-product vector is formed (and checked against cap)
    only when read; the closed form works on the n+1 factors.
    """

    states: np.ndarray
    data_index: int

    @property
    def factors(self) -> np.ndarray:
        """The n+1 register states as rows: the candidates, then state j."""
        return np.vstack([self.states, self.states[self.data_index - 1]])

    @cached_property
    def vector(self) -> np.ndarray:
        return kron_chain(self.factors)


def program_input(states, j: int) -> ProgramInput:
    """Total input |ψ_1>…|ψ_n>|ψ_j> for data register prepared in state j (1-based)."""
    s = require_normalized(states)
    n = s.shape[0]
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"data index {j} outside 1..{n}")
    return ProgramInput(states=s, data_index=int(j))


def _identity_times_antisym(m: int, n: int) -> list[np.ndarray]:
    """Blocks B_i = I on register i ⊗ antisymmetric projector on the other n registers."""
    phi = antisym_projector(m, n).matrix
    base = np.kron(np.eye(m, dtype=complex), phi)  # register order [i, rest ascending]
    dims = [m] * (n + 1)
    return [reorder_factors(base, dims, own_register_first(i, n + 1)) for i in range(1, n + 1)]


def _assemble(family: str, m: int, n: int, c: float) -> tuple[np.ndarray, ...]:
    """Dense elements (Π_0, Π_1, …, Π_n) of a built family."""
    dim = m ** (n + 1)
    check_square(dim, "POVM element")
    if family == "trivial":
        elements = [antisym_projector(m, n + 1).matrix / n] * n
    else:
        elements = [c * b for b in _identity_times_antisym(m, n)]
    pi0 = np.eye(dim, dtype=complex) - sum(elements)
    return tuple([pi0] + elements)


def family_povm(family: str, m: int, n: int) -> Povm:
    """Built POVM of the named family for n states in dimension m.

    Checks the family's regime (see the build_* functions) and returns a
    structured POVM; cap applies only when its dense elements are read.
    """
    if family not in _COEFFICIENTS:
        raise ValueError(f"unknown family {family!r}")
    if n < 2:
        raise WrongRegime(f"need at least two states, got n={n}")
    if family == "optimal" and m != n:
        raise WrongRegime(f"family 'optimal' needs m = n, got m={m}, n={n}")
    if family == "universal" and m <= n:
        raise WrongRegime(
            f"universal family needs m > n, got m={m}, n={n} (use build_optimal_equal for m=n)"
        )
    if family == "trivial" and m < n:
        raise WrongRegime(f"no discriminator is defined for m={m} < n={n}")
    return Povm(m, n, family=family)


def build_optimal_equal(n: int) -> Povm:
    """Optimal discriminator for n states spanning an n-dimensional space.

    Uses the largest coefficient c = n/(n+1) that keeps the inconclusive
    element positive; the success probability on a program with Gram matrix
    X is n·det(X)/(n+1)! for every state index.
    """
    return family_povm("optimal", n, n)


def build_universal(m: int, n: int) -> Povm:
    """Universal discriminator for n states in dimension m > n.

    The coefficient c = 1/n is the largest keeping the inconclusive element
    positive within this family; the success probability det(X)/(n·n!) does
    not depend on m.
    """
    return family_povm("universal", m, n)


def build_trivial_antisym(m: int, n: int) -> Povm:
    """Unambiguous but useless measurement: Π_i = Φ(n+1)/n for every i ≥ 1.

    Every success probability is exactly zero; for m < n+1 the antisymmetric
    projector on n+1 registers vanishes and the POVM degenerates to {I, 0, …}.
    """
    return family_povm("trivial", m, n)


# ---------------------------------------------------------------------------
# outcome probabilities


def product_probabilities(povm: Povm, factors) -> np.ndarray:
    """<v|Π_k|v> for k = 0..n of a built POVM on the product v = φ_1 ⊗ … ⊗ φ_{n+1}.

    Element i ≥ 1 of the optimal and universal families is c·(I_i ⊗ Φ_rest),
    and the squared norm of a wedge is the Gram determinant, so
    <v|Π_i|v> = c·‖φ_i‖²·det(X_rest)/n! with X_rest the Gram matrix of the
    other n factors.  The trivial family's elements are c·Φ on all n+1
    registers: c·det(X)/(n+1)!, exactly 0 when m < n+1.  Outcome 0 takes
    the rest of ‖v‖².  No operator is formed, so no cap applies.
    """
    if povm.family is None:
        raise ValueError("an explicit POVM has no closed-form outcome probabilities")
    f = np.asarray(factors, dtype=complex)
    m, n = povm.m, povm.n
    if f.shape != (n + 1, m):
        raise LayoutMismatch(f"factors of shape {f.shape} do not match POVM with m={m}, n={n}")
    norms = np.sum(np.abs(f) ** 2, axis=1)
    if povm.family == "trivial":
        det = gram_det(f) if m >= n + 1 else 0.0
        probs = np.full(n, povm.c * det / math.factorial(n + 1))
    else:
        probs = np.array(
            [povm.c * norms[i] * gram_det(np.delete(f, i, axis=0)) for i in range(n)]
        ) / math.factorial(n)
    return np.concatenate([[np.prod(norms) - probs.sum()], probs])


def outcome_probabilities(povm: Povm, inp) -> np.ndarray:
    """Tr(Π_k ρ_in) for k = 0..n, for a ProgramInput, a state vector or a density matrix.

    A built POVM measuring a ProgramInput goes through the closed form
    (product_probabilities); every other pairing takes the dense quadratic
    form on the POVM's elements.
    """
    if isinstance(inp, ProgramInput):
        if povm.family is not None:
            return product_probabilities(povm, inp.factors)
        inp = inp.vector
    arr = np.asarray(inp, dtype=complex)
    dim = povm.dim
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise LayoutMismatch(f"input vector of length {arr.shape[0]}, POVM dimension {dim}")
        return np.array([(arr.conj() @ e @ arr).real for e in povm.elements])
    if arr.ndim == 2:
        if arr.shape != (dim, dim):
            raise LayoutMismatch(f"input matrix of shape {arr.shape}, POVM dimension {dim}")
        return np.array([np.trace(e @ arr).real for e in povm.elements])
    raise ValueError("input must be a vector or a square matrix")


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the unambiguity criterion and of POVM validity."""

    leakages: tuple[float, ...]  # per element i >= 1
    psd_mins: tuple[float, ...]  # per element, including element 0
    completeness_residual: float

    @property
    def passed(self) -> bool:
        return (
            all(l <= LEAKAGE_TOL for l in self.leakages)
            and all(p >= -PSD_RESIDUAL_TOL for p in self.psd_mins)
            and self.completeness_residual <= COMPLETENESS_TOL
        )

    def max_leakage(self) -> float:
        return max(self.leakages) if self.leakages else 0.0


def verify_unambiguous(povm: Povm) -> VerificationReport:
    """Check that each Tr_i(Π_i) is supported inside the antisymmetric subspace.

    The leakage of element i is ‖(I-Φ)·Tr_i(Π_i)·(I-Φ)‖_max with Φ the
    antisymmetric projector on the n remaining registers; the report also
    carries the PSD and completeness residuals.  Structurally broken input
    (wrong count, shape or hermiticity) raises InvalidPovm.
    """
    m, n, dim = povm.m, povm.n, povm.dim
    if len(povm.elements) != n + 1:
        raise InvalidPovm(f"expected {n + 1} elements, got {len(povm.elements)}")
    for idx, e in enumerate(povm.elements):
        if e.shape != (dim, dim):
            raise InvalidPovm(f"element {idx} has shape {e.shape}, expected {(dim, dim)}")
        try:
            require_hermitian(e)
        except NotHermitian as exc:
            raise InvalidPovm(f"element {idx} is not Hermitian: {exc}") from exc

    psd_mins, completeness = povm.residuals()
    phi = antisym_projector(m, n).matrix
    complement = np.eye(m**n, dtype=complex) - phi
    leakages = []
    for i in range(1, n + 1):
        reduced = partial_trace(povm.elements[i], povm.dims, {i})
        leakages.append(max_abs(complement @ reduced @ complement))
    return VerificationReport(
        leakages=tuple(leakages),
        psd_mins=tuple(psd_mins),
        completeness_residual=completeness,
    )


# ---------------------------------------------------------------------------
# success probabilities


def success_factor(family: str, n: int) -> float:
    """κ such that the named family identifies each of n states with probability κ·det(X).

    Element i of the optimal and universal families is c·(I_i ⊗ Φ_rest), so
    κ = c/n!: n/(n+1)! for optimal, 1/(n·n!) for universal.  The trivial
    family's elements live on the antisymmetric subspace of all n+1
    registers, which a repeated state annihilates, so κ = 0.
    """
    if family not in _COEFFICIENTS:
        raise ValueError(f"unknown family {family!r}")
    return 0.0 if family == "trivial" else _COEFFICIENTS[family](n) / math.factorial(n)


def success_prob_analytic(states, family: str) -> float:
    """Closed-form success probability κ·det(X) of the named family (see success_factor).

    Linearly dependent states give 0.
    """
    s = require_normalized(states)
    return success_factor(family, s.shape[0]) * gram_det(s)


def _outcome_probability(povm: Povm, states, i: int, j: int) -> float:
    """Probability of outcome i (1..n) with the data register in candidate state j."""
    s = require_normalized(states)
    if s.shape != (povm.n, povm.m):
        raise LayoutMismatch(
            f"state set of shape {s.shape} does not match POVM with m={povm.m}, n={povm.n}"
        )
    if not 1 <= i <= povm.n:
        raise IndexOutOfRange(f"outcome index {i} outside 1..{povm.n}")
    return float(outcome_probabilities(povm, program_input(s, j))[i])


def success_prob_operational(povm: Povm, states, i: int) -> float:
    """<ψ_i^n| Π_i |ψ_i^n> of the actual measurement (closed form for built POVMs)."""
    return _outcome_probability(povm, states, i, i)


def cross_term(povm: Povm, states, i: int, j: int) -> float:
    """<ψ_j^n| Π_i |ψ_j^n> — must vanish for i ≠ j if the POVM is unambiguous."""
    return _outcome_probability(povm, states, i, j)


def known_state_optimum(states) -> float:
    """Worst-case optimum when the states are known: λ_min of their Gram matrix."""
    s = require_normalized(states)
    return max(float(np.linalg.eigvalsh(gram(s))[0]), 0.0)


def efficiency_bounds(p_s: float, n: int) -> tuple[float, float]:
    """Proven envelope on the universal success probability det(X)/(n·n!).

    With p_s = λ_min(X) the known-state optimum (smallest eigenvalue of the
    unit-diagonal Gram matrix X of the n states), the interval is

        [p_s^n/(n·n!),  p_s·((n − p_s)/(n − 1))^(n−1)/(n·n!)].

    Proof.  det(X) is the product of the eigenvalues λ_min = λ_1 <= ... <= λ_n.
    Each is >= λ_min, so det(X) >= λ_min^n (lower end).  The unit diagonal
    gives trace X = n, so the other n − 1 eigenvalues sum to n − λ_min, and
    AM–GM bounds their product by ((n − λ_min)/(n − 1))^(n−1) (upper end).
    For n = 1 that product is empty and both ends equal p_s.

    Both ends coincide with the attained value when p_s is 0 or 1.  The upper
    end is tight: for n = 2 it equals det(X) = λ_min(2 − λ_min) exactly, and
    for every n it is attained by sets with equal overlap s ∈ (−1/(n−1), 0],
    whose other n − 1 eigenvalues all equal 1 − s.
    """
    if not -1e-12 <= p_s <= 1.0 + 1e-12:
        raise ValueError(f"p_s must lie in [0, 1], got {p_s}")
    p_s = min(max(p_s, 0.0), 1.0)
    denom = n * math.factorial(n)
    rest = ((n - p_s) / (n - 1)) ** (n - 1) if n > 1 else 1.0
    return (p_s**n / denom, p_s * rest / denom)


# ---------------------------------------------------------------------------
# covariance properties of optimal discriminators


@dataclass(frozen=True)
class CovarianceReport:
    """Residuals of the symmetry properties an optimal discriminator satisfies."""

    unitary_residual: float
    permutation_residual: float
    reduction_residual: float
    reduction_constants: tuple[float, ...]
    reduction_spread: float

    @property
    def unitary_ok(self) -> bool:
        return self.unitary_residual <= UNITARY_COV_TOL

    @property
    def permutation_ok(self) -> bool:
        return self.permutation_residual <= PERMUTATION_COV_TOL

    @property
    def reduction_ok(self) -> bool:
        return self.reduction_residual <= REDUCTION_TOL and self.reduction_spread <= REDUCTION_SPREAD_TOL

    @property
    def passed(self) -> bool:
        return self.unitary_ok and self.permutation_ok and self.reduction_ok


def _unitary_residual(povm: Povm) -> float:
    """Largest entry of [dΓ(E), Π_k] over the elements and the 2(m−1) generators
    E = |b><a| with {a, b} = {low, low+1}, where dΓ(E) = Σ_r E acting on register r.

    On the (m,)*2(n+1) view of Π_k, E_r·Π_k copies the slice a of row
    axis r into slice b, and Π_k·E_r copies the slice b of column axis r
    into slice a; the 2(n+1) terms accumulate into one reused buffer.
    """
    m, count = povm.m, povm.n + 1
    comm = np.empty((m,) * (2 * count), dtype=complex)
    residual = 0.0
    for e in povm.elements:
        t = e.reshape(comm.shape)
        for low in range(m - 1):
            for a, b in ((low + 1, low), (low, low + 1)):
                comm.fill(0)
                for r in range(count):
                    row, col = (slice(None),) * r, (slice(None),) * (count + r)
                    comm[row + (b,)] += t[row + (a,)]
                    comm[col + (a,)] -= t[col + (b,)]
                residual = max(residual, max_abs(comm))
    return residual


def check_covariance(povm: Povm) -> CovarianceReport:
    """Check the three symmetries of an optimal discriminator.

    1. Collective unitary invariance U^⊗(n+1) Π_i U†^⊗(n+1) = Π_i for every
       U ∈ U(m), exactly: U(m) is connected, so this holds iff Π_i commutes
       with dΓ(X) for every X in its Lie algebra; dΓ(I) = (n+1)·I commutes
       with everything, and the generators E_{a,a+1}, E_{a+1,a} span sl(m)
       under commutators, so the 2(m−1) commutators [dΓ(E), Π_i] vanish
       iff Π_i is invariant.  Both the raising and the lowering generators
       are checked, since Π_i is not assumed Hermitian here.
    2. Program-register covariance (σ_P^{-1} ⊗ I) Π_i (σ_P ⊗ I) = Π_{σ(i)}
       for every permutation σ of the n program registers, checked on the
       n−1 adjacent transpositions (k k+1), which generate S_n: if it holds
       for σ and τ it holds for στ.  The conjugation only moves factor
       σ^{-1}(k) into slot k, so it is a reorder_factors transpose, and it
       permutes entries, so the largest-entry residual of a product of
       transpositions is at most the sum of theirs: any σ's residual is at
       most len(σ) ≤ n(n−1)/2 times permutation_residual, where len(σ) is
       its number of inversions.
    3. Reduction to the own register: Tr over all other registers of Π_i is
       a multiple of the identity, with the same constant for every i ≥ 1.

    Hermiticity is not checked here; verify_unambiguous checks it.
    """
    m, n = povm.m, povm.n
    eye_data = np.eye(m, dtype=complex)
    unitary_residual = _unitary_residual(povm)

    permutation_residual = 0.0
    for k in range(1, n):
        order = list(range(1, n + 2))  # the transposition (k k+1), its own inverse
        order[k - 1], order[k] = k + 1, k
        for i in range(1, n + 1):
            conjugated = reorder_factors(povm.elements[i], povm.dims, order)
            permutation_residual = max(
                permutation_residual, max_abs(conjugated - povm.elements[order[i - 1]])
            )

    constants = []
    reduction_residual = 0.0
    everything = set(range(1, n + 2))
    for i in range(1, n + 1):
        reduced = partial_trace(povm.elements[i], povm.dims, everything - {i})
        c = float(np.trace(reduced).real) / m
        constants.append(c)
        reduction_residual = max(reduction_residual, max_abs(reduced - c * eye_data))
    spread = max(constants) - min(constants) if constants else 0.0

    return CovarianceReport(
        unitary_residual=unitary_residual,
        permutation_residual=permutation_residual,
        reduction_residual=reduction_residual,
        reduction_constants=tuple(constants),
        reduction_spread=spread,
    )
