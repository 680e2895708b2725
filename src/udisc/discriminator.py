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

Every element the paper builds commutes with each collective unitary
U^⊗(n+1), so it is zero outside its weight sectors (antisym._weight_sectors,
the one index both assembly and the checks read).  _assemble scatters each
element once from its closed-form sector entries.  The checks lift no
operator to all n+1 registers: when every element is zero outside its
sectors, they read the sector entries d_k (Povm._sectors; see
verify_unambiguous and check_covariance), bit for bit the dense residuals,
and otherwise take the dense route.  Unitary invariance is proven, not
sampled, from one cyclic generator (_unitary_residual).  The index maps
(_sector_maps) and I − Φ are built once per size per process, read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .antisym import _sign_entries, _weight_sectors, antisym_projector
from .config import check_tensor_square
from .errors import IndexOutOfRange, InvalidPovm, LayoutMismatch, NotHermitian, WrongRegime
from .tensor_algebra import (
    as_complex_matrix,
    gram,
    gram_det,
    kron_chain,
    max_abs,
    partial_trace,
    reorder_factors,
    require_conjugate_pairs,
    require_finite,
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
# _unitary_residual: commutator entries evaluated at once.
COMMUTATOR_CHUNK = 1 << 14
# efficiency_bounds: rounding accepted outside [0, 1] before p_s is clamped.
P_S_RANGE_TOL = 1e-12


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

    @cached_property
    def _sector_split(self) -> tuple[tuple[np.ndarray, bool], ...]:
        """_sector_diagonal of each element, (d_k, zero outside the sectors), made once
        per POVM and shared by residuals, _unitary_residual and _sectors."""
        maps = _sector_maps(self.m, self.n + 1)
        return tuple(_sector_diagonal(e, maps) for e in self.elements)

    @property
    def _sectors(self) -> tuple[np.ndarray, ...] | None:
        """The sector entries d_k when every element is zero outside its sector blocks
        (the sector route of the checks), else None (the dense route).  The elements
        must be dim x dim matrices (_require_layout)."""
        if not all(diagonal for _, diagonal in self._sector_split):
            return None
        return tuple(d for d, _ in self._sector_split)

    def residuals(self) -> tuple[list[float], float]:
        """(min eigenvalue per element, completeness residual ‖ΣΠ - I‖_max).

        An element whose entries outside its weight sectors are exactly zero
        is block-diagonal, so its minimum eigenvalue is the least over the
        sector blocks; any other element takes one dense eigensolve.  When
        every element is sector-diagonal so is ΣΠ - I, whose sector entries
        are Σ_k d_k less 1 on the diagonal; otherwise the elements are summed
        densely.  Both give the same bits.
        """
        maps = _sector_maps(self.m, self.n + 1)
        mins = [_min_eigenvalue(e, d, diagonal, maps)
                for e, (d, diagonal) in zip(self.elements, self._sector_split)]
        sectors = self._sectors
        if sectors is None:
            return mins, max_abs(sum(self.elements) - np.eye(self.dim))
        total = np.asarray(sum(sectors), dtype=complex)  # a new array: sum starts from 0
        total[maps.diagonal] -= 1.0
        return mins, max_abs(total)


@dataclass(frozen=True)
class _SectorMaps:
    """Index maps of operators on count registers of dimension m.

    same, blocks: antisym._weight_sectors(m, count)'s own; d = ravel(D)[same];
    transposed: position in same of (b, a) for each pair (a, b) of same, so
        d[transposed] is D^T's entries;
    diagonal: positions in same of the pairs (a, a), the identity's entries;
    swaps: (2n−3, |same|) gathers, one per _program_transpositions(n) entry
        with n = count − 1: row t reads D[σa, σb] for each pair (a, b) of
        same, σ swapping the levels of two registers, which maps each
        sector into itself, so d[swaps[t]] is σ·D's entries;
    raised, lowered: (count, |T|) gathers from d extended by one zero, over
        the pairs T where [dΓ(C), D] can be nonzero for a sector-diagonal D:
        those reached from a same-sector pair by the cyclic shift f_r of one
        register's level, on the row or on the column.  Row r of raised
        reads D[f_r^{-1}(a), b] and row r of lowered reads D[a, f_r(b)] for
        each (a, b) in T; a pair outside the sectors reads the zero.
    """

    same: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    transposed: np.ndarray
    diagonal: np.ndarray
    swaps: np.ndarray
    raised: np.ndarray
    lowered: np.ndarray


@cache
def _sector_maps(m: int, count: int) -> _SectorMaps:
    """The _SectorMaps of (m, count), built once per process; the arrays are read-only."""
    sectors = _weight_sectors(m, count)
    dim, same, powers = m**count, sectors.same, m ** np.arange(count)
    digits = sectors.digits[:, ::-1]  # column r: the level of register count − r
    up = np.arange(dim)[:, None] + ((digits + 1) % m - digits) * powers  # column r: f_r
    down = np.arange(dim)[:, None] + ((digits - 1) % m - digits) * powers  # f_r^{-1}
    by_flat = np.argsort(same)

    def position(flat):
        """Position in same of each flat index, len(same) for a pair outside the sectors."""
        at = by_flat[np.minimum(np.searchsorted(same, flat, sorter=by_flat), len(same) - 1)]
        return np.where(same[at] == flat, at, len(same))

    def swap(index, a, b):
        """index with the levels of registers a and b exchanged (register r is digit count − r)."""
        ka, kb = count - a, count - b
        return index + (digits[index, ka] - digits[index, kb]) * (powers[kb] - powers[ka])

    rows, cols = np.divmod(same, dim)
    swaps = [position(swap(rows, a, b) * dim + swap(cols, a, b))
             for (a, b), _ in _program_transpositions(count - 1)]
    transposed, diagonal = position(cols * dim + rows), np.flatnonzero(rows == cols)
    reached = np.unique(np.concatenate([(up[rows] * dim + cols[:, None]).ravel(),
                                        (rows[:, None] * dim + down[cols]).ravel()]))
    rows, cols = np.divmod(reached, dim)
    maps = _SectorMaps(
        same=same,
        blocks=sectors.blocks,
        transposed=transposed,
        diagonal=diagonal,
        swaps=np.array(swaps, dtype=np.intp).reshape(len(swaps), len(same)),
        raised=position(down[rows].T * dim + cols),
        lowered=position(rows * dim + up[cols].T),
    )
    for a in (maps.transposed, maps.diagonal, maps.swaps, maps.raised, maps.lowered):
        a.setflags(write=False)
    return maps


def _program_transpositions(n: int) -> list[tuple[tuple[int, int], int]]:
    """The 2n−3 permutation-covariance checks on n program registers: (transposition
    (a b), index of the element (a b)·Π_1 must equal), see check_covariance."""
    return [((1, i), i) for i in range(2, n + 1)] + [((k, k + 1), 1) for k in range(2, n)]


def _nonzeros(a: np.ndarray) -> int:
    """Number of nonzero real and imaginary parts (a signed zero counts as zero)."""
    a = np.ravel(a)
    return np.count_nonzero(a.view(np.float64) if a.dtype == np.complex128 else a)


def _sector_diagonal(e: np.ndarray, maps: _SectorMaps) -> tuple[np.ndarray, bool]:
    """e's entries on its sector blocks, ravel(e)[same] (read-only), and whether e is
    zero outside them: a nonzero count over all of e."""
    inside = np.ravel(e)[maps.same]
    inside.setflags(write=False)
    return inside, _nonzeros(inside) == _nonzeros(e)


def _min_eigenvalue(e: np.ndarray, inside: np.ndarray, diagonal: bool, maps: _SectorMaps) -> float:
    """Least eigenvalue of a Hermitian element, by sector blocks when it is sector-diagonal
    (inside is its sector entries, diagonal whether it is zero elsewhere)."""
    if not diagonal:
        return float(np.linalg.eigvalsh(e)[0])
    ends = np.cumsum([count * size * size for count, size in maps.blocks])
    return min(float(np.linalg.eigvalsh(run.reshape(count, size, size)).min())
               for run, (count, size) in zip(np.split(inside, ends[:-1]), maps.blocks))


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


@cache
def _antisym_complement(m: int, n: int) -> np.ndarray:
    """I − Φ with Φ = antisym_projector(m, n).matrix, built once per (m, n) per process,
    read-only.

    Every caller holds or is about to hold an element on n+1 registers, so
    the budget check antisym_projector makes on the first build covers the
    later ones.
    """
    complement = np.eye(m**n, dtype=complex) - antisym_projector(m, n).matrix
    complement.setflags(write=False)
    return complement


def _assemble(family: str, m: int, n: int, c: float) -> tuple[np.ndarray, ...]:
    """Dense elements (Π_0, Π_1, …, Π_n) of a built family, each scattered once from
    its weight-sector entries (antisym._weight_sectors) into a complex zero matrix.

    Π_i = c·(I_i ⊗ Φ_rest) takes c times _sign_entries with own register i; the
    trivial family's Π_i is c·Φ = Φ/n on all n+1 registers, one array shared by
    all n.  Π_0's entries are the identity's less Σ_i Π_i's.  No entry is −0.0.
    """
    dim = check_tensor_square(m, n + 1, "POVM element")
    sectors = _weight_sectors(m, n + 1)
    if family == "trivial":
        parts = [c * _sign_entries(m, n + 1)] * n
        elements = [sectors.scatter(parts[0])] * n
    else:
        parts = [c * _sign_entries(m, n + 1, own=i) for i in range(1, n + 1)]
        elements = [sectors.scatter(d) for d in parts]
    identity = np.equal(*np.divmod(sectors.same, dim))  # the identity's sector entries
    return (sectors.scatter(identity - sum(parts)), *elements)


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


def _require_layout(povm: Povm) -> None:
    """Refuse, with InvalidPovm, a POVM whose element count is not n+1 or that has an
    element that is not a dim x dim matrix; the checks call it before they gather."""
    n, dim = povm.n, povm.dim
    if len(povm.elements) != n + 1:
        raise InvalidPovm(f"expected {n + 1} elements, got {len(povm.elements)}")
    for idx, e in enumerate(povm.elements):
        if np.shape(e) != (dim, dim):
            raise InvalidPovm(f"element {idx} has shape {np.shape(e)}, expected {(dim, dim)}")


def verify_unambiguous(povm: Povm) -> VerificationReport:
    """Check that each Tr_i(Π_i) is supported inside the antisymmetric subspace.

    The leakage of element i is ‖(I-Φ)·Tr_i(Π_i)·(I-Φ)‖_max with Φ the
    antisymmetric projector on the n remaining registers; the report also
    carries the PSD and completeness residuals.  Structurally broken input
    (wrong count, shape or hermiticity) raises InvalidPovm; a NaN or an
    infinity raises ValueError.  Each element is checked once for both,
    in order, before partial_trace sees it.

    When every element is zero outside its weight sectors (Povm._sectors),
    finiteness, hermiticity (d against conj(d[transposed])) and completeness
    are read from the sector entries d_k alone, as the PSD minima always
    are: the entries outside are exact zeros, so each residual and each
    error message is the dense one bit for bit.  Otherwise each element is
    checked by require_hermitian and the elements are summed densely.  The
    leakages come from partial_trace on both routes.
    """
    m, n = povm.m, povm.n
    _require_layout(povm)
    sectors = povm._sectors
    transposed = _sector_maps(m, n + 1).transposed
    for idx, e in enumerate(povm.elements):
        try:
            if sectors is None:
                require_hermitian(e)
            else:
                require_finite(sectors[idx])
                require_conjugate_pairs(sectors[idx], sectors[idx][transposed])
        except NotHermitian as exc:
            raise InvalidPovm(f"element {idx} is not Hermitian: {exc}") from exc

    psd_mins, completeness = povm.residuals()
    complement = _antisym_complement(m, n)
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
    if not -P_S_RANGE_TOL <= p_s <= 1.0 + P_S_RANGE_TOL:
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
    """max over elements Π_k of max(δ_k, ‖[dΓ(C), D_k]‖_max), exactly 0 iff every
    Π_k commutes with every collective unitary U^⊗N, N = n+1.

    δ_k is the largest |entry| of Π_k outside its weight sectors, D_k is Π_k
    with those entries zeroed, C = Σ_a |a+1 mod m><a| is the cyclic shift
    and dΓ(C) = Σ_r C_r, C_r acting on register r.

    Proof that δ_k = 0 and [dΓ(C), Π_k] = 0 suffice.  L = {X ∈ gl(m) :
    [dΓ(X), Π_k] = 0} is a complex Lie algebra, since dΓ preserves brackets
    and commutants are closed under them.  For diagonal H, dΓ(H) is diagonal
    with entry w(H) on a basis state of weight w, so [dΓ(H), Π_k] multiplies
    entry (i, j) by w_i(H) − w_j(H): δ_k = 0 puts the Cartan subalgebra 𝔥 in
    L.  Then L is stable under ad_𝔥, which splits C = Σ_a E_{a+1,a} + E_{1,m}
    into root vectors for the m distinct roots −α_1, …, −α_{m−1} and +θ
    (at H = diag(1, 2, 4, …, 2^(m−1)) they take the distinct values
    1, 2, …, 2^(m−2) and 1 − 2^(m−1)), so each E_{a+1,a} and E_{1,m} lies in L.
    Their brackets give every E_{ij} with i > j, then [E_{1,m}, E_{m,j}] =
    E_{1,j} and [E_{i,1}, E_{1,j}] = E_{ij} give those with i < j, and with
    𝔥 that is all of gl(m).  U(m) is connected, so every U is exp(iX) with X
    Hermitian and U^⊗N = exp(i dΓ(X)) commutes with Π_k.  Conversely, an
    invariant Π_k commutes with dΓ of u(m), hence of its complexification
    gl(m), so both conditions are also necessary.  For m = 2, C = E_{12} +
    E_{21}; for m = 1 there is nothing to check, and the residual is 0.

    The check reads only the sector support.  One gather takes Π_k's
    entries d on its sector blocks, which are D_k's nonzero entries; one
    nonzero count shows δ_k = 0, and only when δ_k > 0 is a masked copy
    formed to find it.  On register r, C is the permutation f_r of basis
    indices that raises that register's level by one mod m, so [dΓ(C), D_k]
    is Σ_r D_k[f_r^{-1}(a), b] − D_k[a, f_r(b)]: 2N gathers from d, taken over
    the pairs (a, b) one f_r away from a same-sector pair, the only ones
    where the commutator of a sector-diagonal operator can be nonzero
    (_sector_maps).  The pairs are taken COMMUTATOR_CHUNK at a time, and
    the difference and its magnitude overwrite the raised sum, so the
    temporary memory is a few chunks whatever the size.
    """
    maps = _sector_maps(povm.m, povm.n + 1)
    residual = 0.0
    for e, (inside, diagonal) in zip(povm.elements, povm._sector_split):
        if not diagonal:
            outside = np.abs(np.ravel(e))
            outside[maps.same] = 0.0
            residual = max(residual, float(outside.max()))
        d = np.append(inside, 0.0)
        for start in range(0, maps.raised.shape[1], COMMUTATOR_CHUNK):
            part = slice(start, start + COMMUTATOR_CHUNK)
            raised, lowered = d[maps.raised[0, part]], d[maps.lowered[0, part]]
            for r in range(1, len(maps.raised)):
                raised += d[maps.raised[r, part]]
                lowered += d[maps.lowered[r, part]]
            raised -= lowered
            residual = max(residual, float(np.abs(raised, out=raised).real.max()))
    return residual


def check_covariance(povm: Povm) -> CovarianceReport:
    """Check the three symmetries of an optimal discriminator.

    1. Collective unitary invariance U^⊗(n+1) Π_i U†^⊗(n+1) = Π_i for every
       U ∈ U(m), exactly: Π_i is zero outside its weight sectors and
       commutes with dΓ(C) for the cyclic shift C (proof and residual in
       _unitary_residual).  Π_i is not assumed Hermitian here.
    2. Program-register covariance (σ_P^{-1} ⊗ I) Π_i (σ_P ⊗ I) = Π_{σ(i)}
       for every permutation σ of the n program registers, written σ·Π_i.
       It is checked on 2n−3 conjugations of Π_1: Π_i = (1 i)·Π_1 for
       i = 2..n, and (k k+1)·Π_1 = Π_1 for k = 2..n−1.  These suffice: the
       (k k+1) with k ≥ 2 generate the stabiliser of 1, and for any σ and
       i the permutation g that applies (1 i), then σ, then (1 σ(i)) fixes
       1, so σ·Π_i = σ·((1 i)·Π_1) = (1 σ(i))·(g·Π_1) = (1 σ(i))·Π_1 =
       Π_{σ(i)}.  A conjugation only moves factors, so it is a
       reorder_factors transpose that permutes entries and keeps every
       max-norm distance.  With ε = permutation_residual,
       Π_i = (1 i)·Π_1 + E_i with ‖E_i‖ ≤ ε, and g, a product of at most
       (n−1)(n−2)/2 adjacent transpositions of 2..n (its inversions), moves
       Π_1 by at most that many times ε.  So any σ's residual
       ‖σ·Π_i − Π_{σ(i)}‖_max ≤ ‖E_i‖ + ‖g·Π_1 − Π_1‖ + ‖E_{σ(i)}‖ is at
       most (2 + (n−1)(n−2)/2)·ε.
    3. Reduction to the own register: Tr over all other registers of Π_i is
       a multiple of the identity, with the same constant for every i ≥ 1.

    A wrong element count or shape raises InvalidPovm with
    verify_unambiguous's message, before anything is gathered.  Each element
    is checked once to be finite (a NaN or an infinity raises ValueError).
    Hermiticity is not checked here; verify_unambiguous checks it.

    When every element is zero outside its weight sectors (Povm._sectors),
    finiteness and the 2n−3 conjugations are read from the sector entries
    d_k: a transposition of registers maps each sector into itself, so
    (a b)·Π_1 has the sector entries d_1[swaps[t]] (_sector_maps) and zeros
    elsewhere, and the residual is the dense one bit for bit.  Otherwise
    each element is checked densely and each conjugation is a
    reorder_factors transpose.  The reduction residual comes from
    partial_trace on both routes.
    """
    m, n = povm.m, povm.n
    _require_layout(povm)
    sectors = povm._sectors
    if sectors is None:
        for e in povm.elements:
            as_complex_matrix(e)
    else:
        for d in sectors:
            require_finite(d)
    eye_data = np.eye(m, dtype=complex)
    unitary_residual = _unitary_residual(povm)

    permutation_residual = 0.0
    swaps = _sector_maps(m, n + 1).swaps
    for t, ((a, b), target) in enumerate(_program_transpositions(n)):
        if sectors is not None:
            distance = max_abs(sectors[1][swaps[t]] - sectors[target])
        else:
            order = list(range(1, n + 2))  # a transposition is its own inverse
            order[a - 1], order[b - 1] = b, a
            conjugated = reorder_factors(povm.elements[1], povm.dims, order)
            if np.array_equal(conjugated, povm.elements[target]):  # equal: distance 0
                continue
            distance = max_abs(conjugated - povm.elements[target])
        permutation_residual = max(permutation_residual, distance)

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
