"""Structured Gram matrices whose extremal eigenvalues fix the POVM constants.

The vectors |k>_i |φ_ς>_rest (basis level k on register i, an antisymmetric
basis vector on the rest) generate the operator Σ_i B_i used by the POVM
builders; the nonzero spectrum of that operator equals the spectrum of their
Gram matrix G.  G splits into blocks: Γ_ς groups labels with k ∈ ς (largest
eigenvalue (n+1)/n), Λ_ξ groups labels with ξ = {k} ∪ ς an (n+1)-set
(largest eigenvalue n).  The reciprocal of λ_max(G) is the largest
admissible coefficient c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antisym import antisym_basis_vector, increasing_tuples
from .config import check_entries, resolve_cap
from .discriminator import auto_family, family_povm
from .errors import CapExceeded, WrongRegime
from .tensor_algebra import frozen, own_register_first, reorder_factors

# c_optimal: largest disagreement between the numeric and closed-form coefficients.
COEFFICIENT_TOL = 1e-9

Label = tuple[int, int, tuple[int, ...]]  # (register i, level k, tuple ς)
BlockKey = tuple[str, tuple[int, ...]]  # ("gamma", ς) or ("lambda", ξ)


@dataclass(frozen=True)
class LabeledVectors:
    m: int
    n: int
    labels: tuple[Label, ...]
    vectors: np.ndarray  # shape (len(labels), m**(n+1)), read-only

    def __post_init__(self):
        object.__setattr__(self, "vectors", frozen(self.vectors))


@dataclass(frozen=True)
class GramStructure:
    """Gram matrix of the labeled basis vectors, in canonical (i, ς, k) order; read-only."""

    m: int
    n: int
    labels: tuple[Label, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen(self.matrix))

    def block_partition(self) -> dict[BlockKey, list[int]]:
        """Label indices grouped into Γ_ς blocks (k ∈ ς) and Λ_ξ blocks (k ∉ ς)."""
        return _block_partition(self.labels)


def _block_partition(labels) -> dict[BlockKey, list[int]]:
    """GramStructure.block_partition of these labels, which gram_closed_form reads
    before its value is made."""
    groups: dict[BlockKey, list[int]] = {}
    for idx, (_, k, s) in enumerate(labels):
        if k in s:
            key = ("gamma", s)
        else:
            key = ("lambda", tuple(sorted(s + (k,))))
        groups.setdefault(key, []).append(idx)
    return groups


def _labels_for(m: int, n: int) -> list[Label]:
    if m < n:
        raise WrongRegime(f"no basis family is defined for m={m} < n={n}")
    tuples = increasing_tuples(m, n)
    # canonical order: lexicographic by (i, ς, k)
    return [(i, k, s) for i in range(1, n + 1) for s in tuples for k in range(1, m + 1)]


def _sized_labels(m: int, n: int, square: bool, what: str) -> list[Label]:
    """_labels_for(m, n), listed only after the object they index is sized against the
    budget: L = n·m·C(m, n) vectors of m^(n+1) entries, or (square) the L x L Gram matrix.

    For m >= n >= 1, L >= m² and L >= C(m, n) >= 2^min(n, m−n).  With m >= 2^b these
    bounds put the entries at 2^bits or more, so when bits exceeds the budget's bit
    length CapExceeded is raised before C(m, n) or m^(n+1) is formed, however large m is.
    """
    if m >= n >= 1:
        budget = resolve_cap()
        b = m.bit_length() - 1
        bits = max(2 * b, min(n, m - n))
        bits = 2 * bits if square else bits + (n + 1) * b
        if bits > budget.bit_length():
            raise CapExceeded(f"{what} with at least 2^{bits} complex entries exceeds the cap of {budget}")
        count = n * m * math.comb(m, n)
        check_entries(count * (count if square else m ** (n + 1)), what)
    return _labels_for(m, n)


def build_basis_vectors(m: int, n: int) -> LabeledVectors:
    """Unit vectors |k>_i |φ_ς>_rest in dimension m^(n+1), one per label (i, k, ς):
    every register i, level k and increasing n-tuple ς (the one tuple (1..n) when
    m = n).  Their n·m·C(m, n)·m^(n+1) entries are sized against the budget before
    any label is listed.
    """
    labels = _sized_labels(m, n, False, "labeled vector family")
    dims = [m] * (n + 1)
    eye = np.eye(m, dtype=complex)
    phi = {s: antisym_basis_vector(s, m) for s in increasing_tuples(m, n)}
    vecs = np.empty((len(labels), m ** (n + 1)), dtype=complex)
    for row, (i, k, s) in enumerate(labels):
        vecs[row] = reorder_factors(
            np.kron(eye[k - 1], phi[s]), dims, own_register_first(i, n + 1)
        )
    return LabeledVectors(m=m, n=n, labels=tuple(labels), vectors=vecs)


def gram_numeric(lv: LabeledVectors) -> GramStructure:
    """Gram matrix from explicit inner products, in label order."""
    g = lv.vectors.conj() @ lv.vectors.T
    return GramStructure(m=lv.m, n=lv.n, labels=lv.labels, matrix=g)


def gram_closed_form(m: int, n: int) -> GramStructure:
    """Gram matrix assembled from the Γ/Λ block rules, its (n·m·C(m, n))² entries
    sized against the budget before any label is listed.

    The labels of one block_partition() key span a copy of
    gamma_block_matrix(n) (key ς, k ∈ ς) or lambda_block_matrix(n) (key
    ξ = {k} ∪ ς, present when m > n); every entry between different keys
    vanishes.  Label (i, k, ·) of the block keyed by κ sits at block row
    (i−1)·len(κ) + κ.index(k).
    """
    labels = tuple(_sized_labels(m, n, True, "Gram matrix"))
    g = np.zeros((len(labels), len(labels)), dtype=complex)
    blocks = {"gamma": gamma_block_matrix(n), "lambda": lambda_block_matrix(n) if m > n else None}
    for (kind, key), idx in _block_partition(labels).items():
        rows = [(labels[a][0] - 1) * len(key) + key.index(labels[a][1]) for a in idx]
        g[np.ix_(idx, idx)] = blocks[kind][np.ix_(rows, rows)]
    return GramStructure(m=m, n=n, labels=labels, matrix=g)


def gamma_block_matrix(n: int) -> np.ndarray:
    """The n² × n² Γ block: (i, j) sub-block I δ_ij + (-1)^(i-j+1)/n I (i ≠ j).

    Its n⁴ entries are sized against the budget first; a zero of a negative
    sub-block is −0.0 (the coefficient times I)."""
    check_entries(n**4, "Γ block")
    i, k, j, l = np.ix_(range(n), range(n), range(n), range(n))
    g = np.where(i == j, 1.0, np.where((i - j + 1) % 2, -1.0, 1.0) / n) * (k == l)
    return g.reshape(n * n, n * n).astype(complex)


def lambda_block_matrix(n: int) -> np.ndarray:
    """The n(n+1) × n(n+1) Λ block over (register i, position k in ξ).

    Entry ((i,k),(j,l)) = δ_ij δ_kl + (-1)^(i-j+k-l)/n (1-δ_kl)(1-δ_ij).  Its
    (n(n+1))² entries are sized against the budget first.
    """
    size = n * (n + 1)
    check_entries(size * size, "Λ block")
    i, k, j, l = np.ix_(range(n), range(n + 1), range(n), range(n + 1))
    g = np.where((i == j) & (k == l), 1.0,
                 np.where((i != j) & (k != l), np.where((i - j + k - l) % 2, -1.0, 1.0) / n, 0.0))
    return g.reshape(size, size).astype(complex)


@dataclass(frozen=True)
class SpectralSummary:
    """λ_max of the whole Gram matrix, and (key, λ_max) per block in block_partition() order."""

    lambda_max: float
    block_maxima: tuple[tuple[BlockKey, float], ...]

    def max_over(self, kind: str) -> float:
        vals = [v for (k, _), v in self.block_maxima if k == kind]
        if not vals:
            raise KeyError(f"no {kind!r} blocks present")
        return max(vals)


def extremal_eigenvalues(gs: GramStructure) -> SpectralSummary:
    """Largest eigenvalue of the whole Gram matrix and of each Γ/Λ block."""
    lam = float(np.linalg.eigvalsh(gs.matrix)[-1])
    maxima = tuple((key, float(np.linalg.eigvalsh(gs.matrix[np.ix_(idx, idx)])[-1]))
                   for key, idx in gs.block_partition().items())
    return SpectralSummary(lambda_max=lam, block_maxima=maxima)


def c_optimal(m: int, n: int) -> float:
    """Largest admissible POVM coefficient within c·(I_i ⊗ Φ_rest), 1/λ_max(G).

    Outside that form it is not the largest when m > n: the unambiguous
    covariant Π_i = b·(I_i ⊗ Φ_rest − Φ), Φ on all n+1 registers, is
    admissible up to b = n/(n+1) (discriminator._Family).

    G is a direct sum of copies of the Γ block and, when m > n, the Λ block,
    so λ_max(G) is the larger of their largest eigenvalues; no label and no
    m-dependent vector is formed.  Cross-checked against the coefficient c of
    family_povm(auto_family(m, n), m, n) (n/(n+1) for m = n, 1/n for m > n),
    which also decides the regime: n < 2 and m < n raise its WrongRegime.  A
    disagreement beyond COEFFICIENT_TOL raises ArithmeticError.
    """
    expected = family_povm(auto_family(m, n), m, n).c
    blocks = [gamma_block_matrix(n)] + ([lambda_block_matrix(n)] if m > n else [])
    c = 1.0 / max(float(np.linalg.eigvalsh(b)[-1]) for b in blocks)
    if abs(c - expected) > COEFFICIENT_TOL:
        raise ArithmeticError(
            f"numeric coefficient {c!r} disagrees with the closed form {expected!r}"
        )
    return c
