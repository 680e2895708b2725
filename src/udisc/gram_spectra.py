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

from dataclasses import dataclass

import numpy as np

from .antisym import antisym_basis_vector, increasing_tuples
from .config import check_entries
from .discriminator import _COEFFICIENTS, auto_family
from .errors import WrongRegime
from .tensor_algebra import own_register_first, reorder_factors

# c_optimal: largest disagreement between the numeric and closed-form coefficients.
COEFFICIENT_TOL = 1e-9

Label = tuple[int, int, tuple[int, ...]]  # (register i, level k, tuple ς)


@dataclass(frozen=True)
class LabeledVectors:
    m: int
    n: int
    labels: tuple[Label, ...]
    vectors: np.ndarray  # shape (len(labels), m**(n+1))


@dataclass(frozen=True)
class GramStructure:
    """Gram matrix of the labeled basis vectors, in canonical (i, ς, k) order."""

    m: int
    n: int
    labels: tuple[Label, ...]
    matrix: np.ndarray

    def block_partition(self) -> dict[tuple[str, tuple[int, ...]], list[int]]:
        """Label indices grouped into Γ_ς blocks (k ∈ ς) and Λ_ξ blocks (k ∉ ς)."""
        groups: dict[tuple[str, tuple[int, ...]], list[int]] = {}
        for idx, (_, k, s) in enumerate(self.labels):
            if k in s:
                key = ("gamma", s)
            else:
                key = ("lambda", tuple(sorted(s + (k,))))
            groups.setdefault(key, []).append(idx)
        return groups


def _sign(exponent: int) -> float:
    return -1.0 if exponent % 2 else 1.0


def _tuples_for(m: int, n: int) -> list[tuple[int, ...]]:
    if m < n:
        raise WrongRegime(f"no basis family is defined for m={m} < n={n}")
    if m == n:
        return [tuple(range(1, n + 1))]
    return increasing_tuples(m, n)


def _labels_for(m: int, n: int) -> list[Label]:
    # canonical order: lexicographic by (i, ς, k)
    return [
        (i, k, s)
        for i in range(1, n + 1)
        for s in _tuples_for(m, n)
        for k in range(1, m + 1)
    ]


def build_basis_vectors(m: int, n: int) -> LabeledVectors:
    """Unit vectors |k>_i |φ_ς>_rest in dimension m^(n+1), one per label.

    For m = n the single tuple ς = (1..n) is used; for m > n all increasing
    n-tuples appear.
    """
    labels = _labels_for(m, n)
    dim = m ** (n + 1)
    check_entries(dim * len(labels), "labeled vector family")
    dims = [m] * (n + 1)
    eye = np.eye(m, dtype=complex)
    phi = {s: antisym_basis_vector(s, m) for s in _tuples_for(m, n)}
    vecs = np.empty((len(labels), dim), dtype=complex)
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
    """Gram matrix assembled from the Γ/Λ block rules.

    The labels of one block_partition() key span a copy of
    gamma_block_matrix(n) (key ς, k ∈ ς) or lambda_block_matrix(n) (key
    ξ = {k} ∪ ς); every entry between different keys vanishes.  Label
    (i, k, ·) of the block keyed by κ sits at block row (i−1)·len(κ) + κ.index(k).
    """
    labels = tuple(_labels_for(m, n))
    gs = GramStructure(m=m, n=n, labels=labels,
                       matrix=np.zeros((len(labels), len(labels)), dtype=complex))
    blocks = {"gamma": gamma_block_matrix(n), "lambda": lambda_block_matrix(n)}
    for (kind, key), idx in gs.block_partition().items():
        rows = [(labels[a][0] - 1) * len(key) + key.index(labels[a][1]) for a in idx]
        gs.matrix[np.ix_(idx, idx)] = blocks[kind][np.ix_(rows, rows)]
    return gs


def gamma_block_matrix(n: int) -> np.ndarray:
    """The n² × n² Γ block: (i, j) sub-block I δ_ij + (-1)^(i-j+1)/n I (i ≠ j)."""
    eye = np.eye(n)
    g = np.zeros((n * n, n * n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            block = eye if i == j else _sign(i - j + 1) / n * eye
            g[(i - 1) * n : i * n, (j - 1) * n : j * n] = block
    return g.astype(complex)


def lambda_block_matrix(n: int) -> np.ndarray:
    """The n(n+1) × n(n+1) Λ block over (register i, position k in ξ).

    Entry ((i,k),(j,l)) = δ_ij δ_kl + (-1)^(i-j+k-l)/n (1-δ_kl)(1-δ_ij).
    """
    width = n + 1
    size = n * width
    g = np.zeros((size, size))
    for i in range(1, n + 1):
        for k in range(1, width + 1):
            for j in range(1, n + 1):
                for l in range(1, width + 1):
                    a = (i - 1) * width + (k - 1)
                    b = (j - 1) * width + (l - 1)
                    if i == j and k == l:
                        g[a, b] = 1.0
                    elif i != j and k != l:
                        g[a, b] = _sign(i - j + k - l) / n
    return g.astype(complex)


@dataclass(frozen=True)
class SpectralSummary:
    lambda_max: float
    block_maxima: dict[tuple[str, tuple[int, ...]], float]

    def max_over(self, kind: str) -> float:
        vals = [v for (k, _), v in self.block_maxima.items() if k == kind]
        if not vals:
            raise KeyError(f"no {kind!r} blocks present")
        return max(vals)


def extremal_eigenvalues(gs: GramStructure) -> SpectralSummary:
    """Largest eigenvalue of the whole Gram matrix and of each Γ/Λ block."""
    lam = float(np.linalg.eigvalsh(gs.matrix)[-1])
    maxima = {}
    for key, idx in gs.block_partition().items():
        sub = gs.matrix[np.ix_(idx, idx)]
        maxima[key] = float(np.linalg.eigvalsh(sub)[-1])
    return SpectralSummary(lambda_max=lam, block_maxima=maxima)


def c_optimal(m: int, n: int) -> float:
    """Largest admissible POVM coefficient, 1/λ_max(G).

    G is a direct sum of copies of the Γ block and, when m > n, the Λ block,
    so λ_max(G) is the larger of their largest eigenvalues; no m-dependent
    vector is formed.  Cross-checked against the coefficient of the
    auto_family device (n/(n+1) for m = n, 1/n for m > n); a disagreement
    beyond COEFFICIENT_TOL raises ArithmeticError.  n < 2 and m < n raise WrongRegime,
    as family_povm does.
    """
    if n < 2:
        raise WrongRegime(f"need at least two states, got n={n}")
    _tuples_for(m, n)  # WrongRegime for m < n
    blocks = [gamma_block_matrix(n)] + ([lambda_block_matrix(n)] if m > n else [])
    c = 1.0 / max(float(np.linalg.eigvalsh(b)[-1]) for b in blocks)
    expected = _COEFFICIENTS[auto_family(m, n)](n)
    if abs(c - expected) > COEFFICIENT_TOL:
        raise ArithmeticError(
            f"numeric coefficient {c!r} disagrees with the closed form {expected!r}"
        )
    return c
