"""Programmable-discriminator POVMs.

Builders for the three measurement families (equal-dimension optimal,
dimension-independent universal, and the zero-success antisymmetric one),
the unambiguity verifier, success probabilities, and the covariance checks
an optimal discriminator must satisfy.

The measurement acts on n program registers plus one data register, each of
dimension m.  Element i >= 1 of a built POVM is a·Φ + b·(I_i ⊗ Φ_rest − Φ),
with Φ the antisymmetric projector on all n+1 registers and I_i ⊗ Φ_rest the
identity on register i tensored with Φ on the remaining n (taken in
ascending order); element 0 is the inconclusive remainder I - Σ_i Π_i.  Each
family is one row of FAMILIES: its weights (a, b), its regime and its
refusal.  Its coefficient c, sector entries, product-input probabilities
(from Gram determinants) and success factor all follow from that row.

Every element the paper builds commutes with each collective unitary
U^⊗(n+1), so it is zero outside its weight sectors (antisym._weight_sectors,
the one index the builders, the checks and the POVM file codec read).  A
built POVM, and one read_povm reads from a sector-row file, holds only
its weight-sector entries d_k (Povm): the writer writes them, in the
sector-row file layout (io), and every check reads them
(verify_unambiguous, check_covariance), with the dense residuals bit for
bit except the leakage and the reduction, whose sums run in another
order; so do the outcome probabilities of a vector or a density.  Dense
elements are scattered from d_k only when something reads
Povm.elements, under the dense-storage budget in force then
(config.entry_cap).  An explicit POVM, as read_povm reads a dense file,
is gathered once into d_k (Povm._sector_split): with no nonzero entry
outside its sectors it takes the same sector route, and otherwise the
dense route of every check.  Unitary invariance is proven, not sampled,
from two level permutations and one lowering generator (_unitary_residual).
The index's maps and the entries of I − Φ are built on first use and kept,
read-only.  A Povm's three forms (explicit, built, sector) share one storage
rule: every array it holds or hands out is a complex, read-only ndarray, made
by udisc's one read-only rule (tensor_algebra.frozen).  A complex array the
caller gives is shared, so the caller must not change it afterwards; any
other input is copied once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from .antisym import _sign_entries, _weight_sectors
from .config import check_tensor_square
from .errors import IndexOutOfRange, InvalidPovm, LayoutMismatch, NotHermitian, WrongRegime
from .tensor_algebra import (
    all_finite,
    frozen,
    gram,
    gram_det,
    kron_chain,
    max_abs,
    partial_trace,
    reorder_factors,
    require_conjugate_pairs,
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
COMMUTATOR_CHUNK = 1 << 13
# efficiency_bounds: rounding accepted outside [0, 1] before p_s is clamped.
P_S_RANGE_TOL = 1e-12


def auto_family(m: int, n: int) -> str:
    """Family used when none is named: optimal when m = n, universal otherwise."""
    return "optimal" if m == n else "universal"


class _Family(NamedTuple):
    """A built family: for i ≥ 1, Π_i = a·Φ + b·(I_i ⊗ Φ_rest − Φ), with Φ the
    antisymmetric projector on all n+1 registers; its regime, and its refusal outside it.

    Every unambiguous Π_i that commutes with each collective unitary U^⊗(n+1)
    is such an (a, b) point.  Unambiguity puts supp Π_i inside
    V_i ⊗ Λⁿ(rest): the swaps of the data register with each register j ≠ i
    generate the symmetric group on the other n registers.  As a U(m)
    representation V ⊗ ΛⁿV = Λⁿ⁺¹V ⊕ S₍₂,₁ⁿ⁻¹₎V is multiplicity-free, so by
    Schur's lemma a covariant Π_i there is a multiple of each summand's
    projector, Φ and I_i ⊗ Φ_rest − Φ.

    Φ ≤ I_i ⊗ Φ_rest, so the two are orthogonal projectors and Π_i's largest
    eigenvalue is c = max(a, b) when neither projector is 0 (m > n).  On a product
    v = φ_1 ⊗ … ⊗ φ_{n+1} with Gram matrix G, ⟨v|Φ|v⟩ = det(G)/(n+1)! (the
    squared norm of a wedge is the Gram determinant) and
    ⟨v|I_i ⊗ Φ_rest|v⟩ = ‖φ_i‖²·det(G₋ᵢ)/n!.  A valid input repeats a program
    state in the data register, so det(G) = 0 and Π_i identifies state i with
    probability b·det(X)/n!: κ = b/n!, whatever a is.

    Π_i ≥ 0 and Σ_i Π_i ≤ I hold exactly when 0 ≤ a ≤ 1/n and
    0 ≤ b ≤ n/(n+1): Σ_i Π_i is n·a on Λⁿ⁺¹, and Σ_i (I_i ⊗ Φ_rest − Φ) is
    zero there and has largest eigenvalue (n+1)/n, the Γ block's
    (gram_spectra), on the rest.  When m = n, Φ = 0 and a is free: optimal
    takes a = b, which keeps one term.  A weight of 0 contributes no term
    (_family_entries, product_probabilities).

    Twirling reduces the worst case to these points.  For g = (U, σ) in
    U(m) × S_n let W_g = U^⊗(n+1)·P_σ, where P_σ permutes the program
    registers, and (g·Π)_i = W_g† Π_σ(i) W_g.  Then g·Π is again an
    unambiguous POVM, and its success for data index i on a program ψ equals
    Π's success for data index σ(i) on the rotated, reordered program g·ψ.
    The Haar average Π̄ of g·Π over U(m) × S_n is therefore unambiguous and
    covariant, so it is an (a, b) point, with success
    b·det(X)/n! ≤ n·det(X)/(n+1)! (det(X) does not change under g).  That
    success is an average of Π's successes, so it is at least Π's least
    success over i, U and σ: no unambiguous programmable discriminator
    guarantees more than n·det(X)/(n+1)! over every collective rotation and
    reordering of a program.  optimal attains that bound at m = n.  At m > n,
    universal reaches det(X)/(n·n!), which is (n+1)/n² of the bound; only the
    points with b = n/(n+1) attain it, the one with a = 0 among them (no
    built family yet).
    """

    weights: Callable[[int], tuple[float, float]]  # n ↦ (a, b)
    admits: Callable[[int, int], bool]  # (m, n) ↦ whether (m, n) is in the regime
    refusal: str  # WrongRegime's message outside it, formatted with m and n


# The built families, in the CLI's order.  n ≥ 2 is every family's rule (Povm).
FAMILIES = {
    "optimal": _Family(lambda n: (n / (n + 1),) * 2, lambda m, n: m == n,
                       "family 'optimal' needs m = n, got m={m}, n={n}"),
    "universal": _Family(lambda n: (1.0 / n,) * 2, lambda m, n: m > n,
                         "universal family needs m > n, got m={m}, n={n} (use build_optimal_equal for m=n)"),
    "trivial": _Family(lambda n: (1.0 / n, 0.0), lambda m, n: m >= n, "no discriminator is defined for m={m} < n={n}"),
}


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Povm:
    """Measurement {Π_0, Π_1, …, Π_n} on n+1 registers of dimension m.

    A POVM is given in one of three forms:
    - explicit: its dense elements, with c = family = None;
    - built (family_povm and the build_* functions): its family, a row of
      FAMILIES, and c = max(a, b) of that row's weights; its weight-sector
      entries are formed on first use.  c is Π_i's largest eigenvalue only
      when m > n or a = b: at m = n, Φ = 0, so trivial's Π_1..Π_n are 0
      while its c is 1/n;
    - sector: the weight-sector entries d_k of each element (sectors), zero
      outside them, in a sector-row file's order, as read_povm reads one (a
      dense file is read as an explicit POVM).
    A built or sector POVM is zero outside its weight sectors, and the checks,
    the writer and outcome_probabilities read its d_k; its dense elements are
    scattered from them only when something reads elements, under the
    dense-storage budget in force then (config.entry_cap).  Outcome
    probabilities of product inputs of a built POVM need neither
    (product_probabilities).

    Every array a Povm holds or hands out is a complex, read-only ndarray, so
    the checks, the writer and every probability route read one operator: a
    complex ndarray given is shared (the caller must not change it), a real
    array or a nested list copied once.

    Layout, size, regime and finiteness are checked here, so the checks, the
    writer and residuals read any Povm as it is: a family outside its regime
    raises WrongRegime, and m or n below 1, a wrong count or shape, or a NaN
    or an infinity in the elements or sector entries raises InvalidPovm (a
    built family is finite as made).  Hermiticity is residuals' to require.
    """

    m: int
    n: int
    family: str | None
    c: float | None
    _elements: tuple[np.ndarray, ...] | None
    _entries: tuple[np.ndarray, ...] | None

    def __init__(self, m: int, n: int, elements=None, *, family: str | None = None, sectors=None):
        if sum(given is not None for given in (elements, family, sectors)) != 1:
            raise ValueError("a POVM is given by one of its dense elements, its weight-sector "
                             "entries or a built family")
        m, n = int(m), int(n)
        if family is not None:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
            if n < 2:
                raise WrongRegime(f"need at least two states, got n={n}")
            if not FAMILIES[family].admits(m, n):
                raise WrongRegime(FAMILIES[family].refusal.format(m=m, n=n))
        elif m < 1 or n < 1:
            raise InvalidPovm(f"m and n must be positive, got m={m}, n={n}")
        arrays = None if family is not None else tuple(elements if sectors is None else sectors)
        if arrays is not None:
            if sectors is not None:
                check_tensor_square(m, n + 1, "POVM element")
            shape = (m ** (n + 1),) * 2 if sectors is None else (len(_weight_sectors(m, n + 1).same),)
            if len(arrays) != n + 1:
                raise InvalidPovm(f"expected {n + 1} elements, got {len(arrays)}")
            arrays = tuple(frozen(d, complex) for d in arrays)
            for idx, d in enumerate(arrays):
                if d.shape != shape:
                    raise InvalidPovm(f"element {idx} has shape {d.shape}, expected {shape}")
                if not all_finite(d):
                    raise InvalidPovm(f"element {idx} holds a NaN or an infinity")
        c = None if family is None else max(FAMILIES[family].weights(n))
        fields = ("m", "n", "family", "c", "_elements", "_entries")
        for name, value in zip(fields, (m, n, family, c, arrays if sectors is None else None,
                                        arrays if sectors is not None else None)):
            object.__setattr__(self, name, value)

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        """Dense (Π_0, …, Π_n); a built or sector POVM scatters them here, under the budget
        in force."""
        if self._elements is None:
            object.__setattr__(self, "_elements", _assemble(self.m, self.n, self._sectors))
        return self._elements

    @property
    def dims(self) -> tuple[int, ...]:
        """Register dimensions (m,)*(n+1): n program registers, then the data register."""
        return (self.m,) * (self.n + 1)

    @property
    def dim(self) -> int:
        return self.m ** (self.n + 1)

    @property
    def _explicit(self) -> bool:
        """Whether the POVM was given by its dense elements."""
        return self.family is None and self._entries is None

    @cached_property
    def _sector_split(self) -> tuple[tuple[np.ndarray, bool], ...]:
        """Each element's weight-sector entries d_k (read-only) with whether it is zero
        outside its sectors, shared by residuals, _unitary_residual and _sectors.  A
        built or sector POVM holds its d_k, all zero outside; an explicit one is
        gathered once, with a nonzero count over each element."""
        if not self._explicit:
            entries = self._entries or _family_entries(self.family, self.m, self.n)
            return tuple((d, True) for d in entries)
        index = _weight_sectors(self.m, self.n + 1)
        return tuple(index.gather(e) for e in self.elements)

    @property
    def _sectors(self) -> tuple[np.ndarray, ...] | None:
        """The sector entries d_k when every element is zero outside its sector blocks
        (the sector route of the checks), else None (the dense route)."""
        if not all(diagonal for _, diagonal in self._sector_split):
            return None
        return tuple(d for d, _ in self._sector_split)

    def residuals(self) -> tuple[list[float], float]:
        """(min eigenvalue per element, completeness residual ‖ΣΠ - I‖_max).

        Each element is required to be Hermitian, in order, before any
        eigenvalue is read (InvalidPovm).  An element whose entries outside
        its weight sectors are exactly zero is checked on its sector entries,
        d against conj(d[transposed]), and is block-diagonal, so its minimum
        eigenvalue is the least over the sector blocks; any other element is
        checked and takes one eigensolve densely.  When every element is
        sector-diagonal so is ΣΠ - I, whose sector entries are Σ_k d_k less 1
        on the diagonal; otherwise the elements are summed densely.  Both give
        the dense bits, the hermiticity deviation too.
        """
        index = _weight_sectors(self.m, self.n + 1)
        for k, (d, diagonal) in enumerate(self._sector_split):
            e = d if diagonal else self.elements[k]
            try:
                require_conjugate_pairs(e, d[index.transposed] if diagonal else e.T.copy())
            except NotHermitian as exc:
                raise InvalidPovm(f"element {k} is not Hermitian: {exc}") from exc
        mins = [index.block_minimum(d) if diagonal else float(np.linalg.eigvalsh(self.elements[k])[0])
                for k, (d, diagonal) in enumerate(self._sector_split)]
        sectors = self._sectors
        if sectors is None:
            return mins, max_abs(sum(self.elements) - np.eye(self.dim))
        total = sum(sectors)  # a new array: sum starts from 0
        total[index.identity] -= 1.0
        return mins, max_abs(total)


def _program_transpositions(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The 2n−3 permutation-covariance checks on n program registers: (the reorder_factors
    order of a transposition (a b), index of the element (a b)·Π_1 must equal)."""
    swaps = [((1, i), i) for i in range(2, n + 1)] + [((k, k + 1), 1) for k in range(2, n)]
    return [(tuple({a: b, b: a}.get(r, r) for r in range(1, n + 2)), target) for (a, b), target in swaps]


@dataclass(frozen=True)
class ProgramInput:
    """Program registers loaded with the candidate states, data register with state j.

    The m^(n+1) tensor-product vector is formed (and checked against cap)
    only when read; the closed form works on the n+1 factors.  The states are
    a read-only copy, and the factors and the vector are read-only.
    """

    states: np.ndarray
    data_index: int

    def __post_init__(self):
        object.__setattr__(self, "states", frozen(np.array(self.states, dtype=complex)))

    @property
    def factors(self) -> np.ndarray:
        """The n+1 register states as rows: the candidates, then state j."""
        return frozen(np.vstack([self.states, self.states[self.data_index - 1]]))

    @cached_property
    def vector(self) -> np.ndarray:
        return frozen(kron_chain(self.factors))


def program_input(states, j: int) -> ProgramInput:
    """Total input |ψ_1>…|ψ_n>|ψ_j> for data register prepared in state j (1-based)."""
    s = require_normalized(states)
    n = s.shape[0]
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"data index {j} outside 1..{n}")
    return ProgramInput(states=s, data_index=int(j))


@cache
def _complement_entries(m: int, n: int) -> np.ndarray:
    """Sector entries of I − Φ on n registers, Φ = antisym_projector(m, n), built once per
    (m, n) per process, read-only.  Every caller holds an element on n+1 registers, whose
    budget covers this index."""
    index = _weight_sectors(m, n)
    return frozen(index.identity - _sign_entries(m, n), complex)


def _family_entries(family: str, m: int, n: int) -> tuple[np.ndarray, ...]:
    """Weight-sector entries (d_0, d_1, …, d_n) of a built family, read-only, each sized
    as its dense element is against the budget.

    Π_i = b·(I_i ⊗ Φ_rest) + (a−b)·Φ takes b times _sign_entries with own register i
    plus a−b times _sign_entries on all n+1 registers, a weight of 0 contributing no
    term (_Family): trivial's n elements (b = 0) are one shared array, and optimal's
    and universal's (a = b) are b·(I_i ⊗ Φ_rest).  Π_0's entries are the identity's
    less Σ_i Π_i's.  No entry is −0.0.
    """
    check_tensor_square(m, n + 1, "POVM element")
    a, b = FAMILIES[family].weights(n)
    shared = [(a - b) * _sign_entries(m, n + 1)] if a != b else []  # sum(shared, x) is x when empty
    parts = ([frozen(sum(shared, b * _sign_entries(m, n + 1, own=i)), complex) for i in range(1, n + 1)]
             if b else [frozen(*shared, complex)] * n)
    return (frozen(_weight_sectors(m, n + 1).identity - sum(p.real for p in parts), complex), *parts)


def _assemble(m: int, n: int, entries) -> tuple[np.ndarray, ...]:
    """Dense elements scattered once each from their weight-sector entries
    (antisym._weight_sectors) into a complex zero matrix, under the budget in force;
    entries shared by several elements give them one array."""
    check_tensor_square(m, n + 1, "POVM element")
    index = _weight_sectors(m, n + 1)
    scattered = {}
    for d in entries:
        if id(d) not in scattered:
            scattered[id(d)] = frozen(index.scatter(d))
    return tuple(scattered[id(d)] for d in entries)


def family_povm(family: str, m: int, n: int) -> Povm:
    """Built POVM of the named family for n states in dimension m.

    The constructor refuses a family outside its regime (FAMILIES); cap
    applies only when its dense elements are read.
    """
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

    Element i ≥ 1 is a·Φ + b·(I_i ⊗ Φ_rest − Φ), and the squared norm of a
    wedge is the Gram determinant (_Family), so
    <v|Π_i|v> = b·‖φ_i‖²·det(G₋ᵢ)/n! + (a−b)·det(G)/(n+1)!, with G the Gram
    matrix of the n+1 factors and G₋ᵢ that of the other n.  A weight of 0
    contributes no term, and det(G) is taken only when m > n: Φ = 0 on fewer
    than n+1 levels.  Outcome 0 takes the rest of ‖v‖².  No operator is
    formed, so no cap applies.  An explicit or sector POVM, which has no built
    family, is refused.
    """
    if povm.family is None:
        raise ValueError("a POVM with no built family has no closed-form outcome probabilities")
    f = np.asarray(factors, dtype=complex)
    m, n = povm.m, povm.n
    if f.shape != (n + 1, m):
        raise LayoutMismatch(f"factors of shape {f.shape} do not match POVM with m={m}, n={n}")
    norms = np.sum(np.abs(f) ** 2, axis=1)
    a, b = FAMILIES[povm.family].weights(n)
    probs = (np.array([b * norms[i] * gram_det(np.delete(f, i, axis=0)) for i in range(n)]) / math.factorial(n)
             if b else np.zeros(n))
    if a != b and m > n:
        probs = probs + (a - b) * gram_det(f) / math.factorial(n + 1)
    return np.concatenate([[np.prod(norms) - probs.sum()], probs])


def outcome_probabilities(povm: Povm, inp) -> np.ndarray:
    """Tr(Π_k ρ_in) for k = 0..n, for a ProgramInput, a state vector or a density matrix.

    A built POVM measuring a ProgramInput goes through the closed form
    (product_probabilities); any other POVM takes a ProgramInput's vector.
    When every element is zero outside its weight sectors (Povm._sectors),
    the sector entries d_k are read against the input's entries at the same
    pairs, Σ d·conj(v[rows])·v[cols] for a vector and Σ d·ρ[cols, rows] for
    a density, and no dense element is formed; otherwise each takes the dense
    quadratic form on the POVM's elements.
    """
    if isinstance(inp, ProgramInput):
        if povm.family is not None:
            return product_probabilities(povm, inp.factors)
        inp = inp.vector
    arr = np.asarray(inp, dtype=complex)
    dim = povm.dim
    if arr.ndim not in (1, 2):
        raise ValueError("input must be a vector or a square matrix")
    if arr.shape != (dim,) * arr.ndim:
        what = f"vector of length {arr.shape[0]}" if arr.ndim == 1 else f"matrix of shape {arr.shape}"
        raise LayoutMismatch(f"input {what}, POVM dimension {dim}")
    sectors = povm._sectors
    if sectors is not None:
        index = _weight_sectors(povm.m, povm.n + 1)
        pairs = arr[index.rows].conj() * arr[index.cols] if arr.ndim == 1 else arr[index.cols, index.rows]
        return np.array([(d @ pairs).real for d in sectors])
    if arr.ndim == 1:
        return np.array([(arr.conj() @ e @ arr).real for e in povm.elements])
    return np.array([np.einsum("ij,ji->", e, arr).real for e in povm.elements])  # Tr(Π_k ρ)


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
    carries the PSD and completeness residuals.  A wrong element count or
    shape, a NaN or an infinity is refused when the Povm is made; a
    non-Hermitian element raises InvalidPovm from Povm.residuals, which runs
    first, before any leakage is taken.

    When every element is zero outside its weight sectors (Povm._sectors),
    every residual is read from the sector entries d_k alone.  Completeness
    and the PSD minima are the dense residuals bit for bit: the entries
    outside are exact zeros.  Tr_i maps each same-sector pair
    whose levels on register i agree to a same-sector pair on the other n
    registers, so Tr_i(Π_i) is one scatter-add of d_i
    (_WeightSectors.traced); I − Φ is zero outside its sectors too, so the
    leakage is a batch of products of sector blocks (_sector_leakage).  Its
    sums run in another order than the dense ones, so it may differ from
    them in the last bits.  Otherwise the leakages come from partial_trace.
    """
    m, n = povm.m, povm.n
    psd_mins, completeness = povm.residuals()
    sectors = povm._sectors
    if sectors is None:
        complement = _weight_sectors(m, n).scatter(_complement_entries(m, n))
        leakages = [max_abs(complement @ partial_trace(povm.elements[i], povm.dims, {i}) @ complement)
                    for i in range(1, n + 1)]
    else:
        leakages = [_sector_leakage(m, n, sectors[i], i) for i in range(1, n + 1)]
    return VerificationReport(
        leakages=tuple(leakages),
        psd_mins=tuple(psd_mins),
        completeness_residual=completeness,
    )


def _sector_leakage(m: int, n: int, d: np.ndarray, i: int) -> float:
    """‖(I−Φ)·Tr_i(D)·(I−Φ)‖_max for the sector-diagonal D with entries d: Tr_i(D) is
    one scatter-add onto the sector entries on n registers, then one batch of block
    products per sector size."""
    source, target = _weight_sectors(m, n + 1).traced(i)
    lower = _weight_sectors(m, n)
    traced = d[source]
    reduced = np.bincount(target, traced.real, len(lower.same)) + 1j * np.bincount(
        target, traced.imag, len(lower.same))
    complement = lower.runs(_complement_entries(m, n))
    return max(float(np.abs(c @ r @ c).max()) for c, r in zip(complement, lower.runs(reduced)))


# ---------------------------------------------------------------------------
# success probabilities


def success_factor(family: str, n: int) -> float:
    """κ = b/n! such that the named family identifies each of n states with probability
    κ·det(X) (_Family): n/(n+1)! for optimal, 1/(n·n!) for universal and 0 for trivial.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
    return FAMILIES[family].weights(n)[1] / math.factorial(n)


def success_prob_analytic(states, family: str) -> float:
    """Closed-form success probability κ·det(X) of the named family (see success_factor).

    Linearly dependent states give 0; an empty state set is refused.
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
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
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
    """max over elements Π_k of max(δ_k, ρ_k, ‖[dΓ(E), D_k]‖_max), exactly 0 iff every
    Π_k commutes with every collective unitary U^⊗N, N = n+1.

    δ_k is the largest |entry| of Π_k outside its weight sectors, D_k is Π_k
    with those entries zeroed, ρ_k = max_P ‖P^⊗N D_k P^⊗N† − D_k‖_max over the
    level permutations P = (0 1) and (0 1 … m−1), which generate S_m, and
    dΓ(E) = Σ_r E_r for E = |0><1|, E_r acting on register r.

    Proof that the three vanishing suffice.  L = {X ∈ gl(m) : [dΓ(X), Π_k] = 0}
    is a linear space.  δ_k = 0 puts every diagonal H in L: dΓ(H) is diagonal,
    constant on each sector.  ρ_k = 0 makes Π_k invariant under P^⊗N for every
    permutation matrix P, and dΓ(PXP†) = P^⊗N dΓ(X) P^⊗N†, so L is closed under
    conjugation by P, which takes E = E_01 to every E_ab, a ≠ b.  So L = gl(m);
    U(m) is connected, so every U is exp(iX) with X Hermitian and U^⊗N =
    exp(i dΓ(X)) commutes with Π_k.  Conversely, an invariant Π_k commutes with
    dΓ of u(m), hence of gl(m), and with each P^⊗N.  For m = 1 there is nothing
    to check, and the residual is 0.

    The check reads only Π_k's entries d on its sector blocks.  A built or
    sector POVM holds d and has δ_k = 0; an explicit element is gathered once,
    one nonzero count shows whether δ_k = 0, and only when δ_k > 0 is a masked
    copy formed to find it.  P^⊗N maps sectors onto sectors, so ρ_k is one
    gather of d (_WeightSectors.permuted).  [dΓ(E), D_k] at (x, y) is
    Σ_r D_k[x + m^r, y] over the registers where x holds 0, less
    Σ_r D_k[x, y − m^r] over those where y holds 1: 2N masked gathers from d,
    over the pairs where the commutator of a sector-diagonal operator can be
    nonzero (_WeightSectors.lowered).  The pairs are taken COMMUTATOR_CHUNK at a
    time, and the difference and its magnitude overwrite the left sum, so the
    temporary memory is a few chunks whatever the size.
    """
    index = _weight_sectors(povm.m, povm.n + 1)
    left_at, right_at = index.lowered
    registers, levels = tuple(range(1, povm.n + 2)), tuple(range(povm.m))
    moves = [index.permuted(registers, p) for p in (levels[1::-1] + levels[2:], levels[1:] + levels[:1])]
    residual = max(max_abs(inside[move] - inside) for inside, _ in povm._sector_split for move in moves)
    for k, (inside, diagonal) in enumerate(povm._sector_split):
        if not diagonal:
            outside = np.abs(np.ravel(povm.elements[k]))
            outside[index.same] = 0.0
            residual = max(residual, float(outside.max()))
        d = np.append(inside, 0.0)
        for start in range(0, left_at.shape[1], COMMUTATOR_CHUNK):
            part = slice(start, start + COMMUTATOR_CHUNK)
            left, right = d[left_at[0, part]], d[right_at[0, part]]
            for r in range(1, len(left_at)):
                left += d[left_at[r, part]]
                right += d[right_at[r, part]]
            left -= right
            residual = max(residual, float(np.abs(left, out=left).real.max()))
    return residual


def check_covariance(povm: Povm) -> CovarianceReport:
    """Check the three symmetries of an optimal discriminator.

    1. Collective unitary invariance U^⊗(n+1) Π_i U†^⊗(n+1) = Π_i for every
       U ∈ U(m), exactly: Π_i is zero outside its weight sectors, invariant
       under P^⊗(n+1) for the level permutations P = (0 1) and (0 1 … m−1),
       and commutes with dΓ(E) for E = |0><1| (proof and residual in
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

    A wrong element count or shape, a NaN or an infinity is refused when the
    Povm is made; hermiticity is Povm.residuals' to check, so a non-Hermitian
    element is read here as it is.

    When every element is zero outside its weight sectors (Povm._sectors),
    the 2n−3 conjugations are read from the sector entries
    d_k: a transposition of registers maps each sector into itself, so (a b)·Π_1
    has the sector entries d_1[permuted(order, levels unmoved)] (_WeightSectors)
    and zeros elsewhere, and the residual is the dense one bit for bit.
    The reduction to register i pairs only equal levels of register i, so
    it is diagonal, an m-vector of sums over the diagonal entries of d_i
    (exact zeros elsewhere), in another summation order than the dense
    partial trace.  Otherwise each conjugation is a reorder_factors
    transpose and the reduction comes from partial_trace.
    """
    m, n = povm.m, povm.n
    sectors = povm._sectors
    unitary_residual = _unitary_residual(povm)

    permutation_residual = 0.0
    index = _weight_sectors(m, n + 1)
    for order, target in _program_transpositions(n):
        if sectors is not None:
            conjugated = sectors[1][index.permuted(order, tuple(range(m)))]
            distance = max_abs(np.subtract(conjugated, sectors[target], out=conjugated))
        else:
            conjugated = reorder_factors(povm.elements[1], povm.dims, order)
            if np.array_equal(conjugated, povm.elements[target]):  # equal: distance 0
                continue
            distance = max_abs(conjugated - povm.elements[target])
        permutation_residual = max(permutation_residual, distance)

    constants = []
    reduction_residual = 0.0
    for i in range(1, n + 1):
        if sectors is None:
            reduced = partial_trace(povm.elements[i], povm.dims, set(range(1, n + 2)) - {i})
            c = float(np.trace(reduced).real) / m
            residual = max_abs(reduced - c * np.eye(m))
        else:
            # Tr over the other registers pairs only equal levels on register i: diagonal
            levels, d = index.digits[:, i - 1], sectors[i][index.identity]
            reduced = np.bincount(levels, d.real, m) + 1j * np.bincount(levels, d.imag, m)
            c = float(reduced.sum().real) / m
            residual = max_abs(reduced - c)
        constants.append(c)
        reduction_residual = max(reduction_residual, residual)
    spread = max(constants) - min(constants) if constants else 0.0

    return CovarianceReport(
        unitary_residual=unitary_residual,
        permutation_residual=permutation_residual,
        reduction_residual=reduction_residual,
        reduction_constants=tuple(constants),
        reduction_spread=spread,
    )
