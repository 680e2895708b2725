import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from udisc.antisym import (
    TRACE_TOL,
    AntisymProjector,
    Permutation,
    _digit_table,
    _sign_entries,
    _sorting_signs,
    _weight_sectors,
    all_permutations,
)
from udisc.config import NULL_TOL, SUPPORT_TOL, check_tensor_square
from udisc.discriminator import FAMILIES, family_povm
from udisc.errors import LayoutMismatch
from udisc.gram_spectra import gamma_block_matrix, lambda_block_matrix
from udisc.mixed_states import CoreDecomposition, require_density
from udisc.tensor_algebra import (
    as_complex_matrix,
    eig_hermitian,
    gram_det,
    hermitize,
    max_abs,
    psd_sqrt,
    require_psd,
)


# Random states, PSD operators and density operators, drawn from a numpy Generator.


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_state(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in dimension m."""
    v = _ginibre(1, m, rng)[0]
    return v / np.linalg.norm(v)


def rand_states(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """n independent Haar-random unit vectors, rows of the result."""
    return np.array([rand_state(m, rng) for _ in range(n)])


def rand_independent_states(
    n: int, m: int, rng: np.random.Generator, min_det: float = 1e-4
) -> np.ndarray:
    """Random state set redrawn until its Gram determinant clears min_det."""
    if n > m:
        raise ValueError("cannot draw more independent states than the dimension")
    while True:
        s = rand_states(n, m, rng)
        if gram_det(s) > min_det:
            return s


def rand_psd(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random PSD operator G G† of the requested rank (full rank by default)."""
    r = d if rank is None else int(rank)
    g = _ginibre(d, r, rng)
    return hermitize(g @ g.conj().T)


def rand_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density operator, optionally rank-deficient."""
    rho = rand_psd(d, rng, rank)
    return rho / float(np.trace(rho).real)


def random_ensemble(rng, n_states=None, dim=None, dims=(2, 3, 4)):
    """Random mixed-state ensemble with rank-deficient draws mixed in."""
    if dim is None:
        dim = int(rng.choice(dims))
    if n_states is None:
        n_states = int(rng.integers(2, 4))
    rhos = []
    for _ in range(n_states):
        rank = int(rng.integers(1, dim + 1))
        rhos.append(rand_density(dim, rng, rank=rank))
    return rhos


def rand_unitary(m, rng):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    # fix the phase ambiguity of QR so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


# Oracles for udisc.antisym: permutation operators and the n!-permutation projector.

# validate: idempotency and sign-covariance deviation.
PROJECTOR_TOL = 1e-10

# The five (family, m, n) of the certify workload, then the other points at which a built
# POVM file, in either layout, must read back and be written again byte for byte.
ROUND_TRIP = [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2), ("universal", 4, 3),
              ("trivial", 4, 3), ("optimal", 2, 2), ("optimal", 4, 4), ("trivial", 3, 3), ("universal", 6, 2)]


def _permuted_indices(sigma: Permutation, m: int) -> np.ndarray:
    """Index map j ↦ j' with digits ω'_k = ω_{σ(k)}; column j of the operator is e_{j'}."""
    digits = _digit_table(m, sigma.n)
    moved = tuple(digits[:, sigma.images[k] - 1] for k in range(sigma.n))
    return np.ravel_multi_index(moved, [m] * sigma.n)


def permutation_operator(sigma: Permutation, m: int) -> np.ndarray:
    """Unitary realigning n registers of dimension m: |ω_1..ω_n> ↦ |ω_{σ1}..ω_{σn}>."""
    dim = check_tensor_square(m, sigma.n, "permutation operator")
    op = np.zeros((dim, dim), dtype=complex)
    op[_permuted_indices(sigma, m), np.arange(dim)] = 1.0
    return op


def validate(projector: AntisymProjector) -> None:
    """Check idempotency, trace = C(m, n) and the sign-covariance property."""
    p = projector.matrix
    if max_abs(p @ p - p) > PROJECTOR_TOL:
        raise ValueError("projector is not idempotent within tolerance")
    if abs(float(np.trace(p).real) - projector.rank) > TRACE_TOL:
        raise ValueError("projector trace differs from C(m, n)")
    for sigma in all_permutations(projector.n):
        lhs = permutation_operator(sigma, projector.m) @ p
        if max_abs(lhs - sigma.sign * p) > PROJECTOR_TOL:
            raise ValueError(f"sign covariance fails for permutation {sigma.images}")


def permutation_sum_projector(m: int, n: int) -> np.ndarray:
    """The antisymmetric projector (1/n!) Σ_σ sgn(σ)·σ accumulated over all n!
    permutations by index maps, as a complex matrix."""
    dim = m**n
    acc = np.zeros((dim, dim))
    if n <= m:
        cols = np.arange(dim)
        for sigma in all_permutations(n):
            acc[_permuted_indices(sigma, m), cols] += sigma.sign
        acc /= math.factorial(n)
    return acc.astype(complex)


def element_spectra(family, m, n):
    """Closed-form eigenvalues, ascending, of each built element (Π_0, Π_1, …, Π_n).

    For optimal and universal, Π_i = c·(I_i ⊗ Φ_rest) is c on a space of
    dimension m·C(m, n) and 0 elsewhere.  Σ_i Π_i/c has the nonzero spectrum
    of the Gram matrix of udisc.gram_spectra: C(m, n) copies of the Γ block
    and, when m > n, C(m, n+1) copies of the Λ block.  So Π_0 is 1 − c·λ
    over those blocks' eigenvalues λ and 1 on the rest.  The trivial Π_i is
    Φ/n on all n+1 registers and Π_0 = I − Φ.
    """
    dim = m ** (n + 1)
    if family == "trivial":
        rank = math.comb(m, n + 1)
        outcome = np.concatenate([np.zeros(dim - rank), np.full(rank, 1.0 / n)])
        return [np.concatenate([np.zeros(rank), np.ones(dim - rank)])] + [outcome] * n
    c = family_povm(family, m, n).c
    rank = m * math.comb(m, n)
    blocks = [(gamma_block_matrix(n), math.comb(m, n))]
    if m > n:
        blocks.append((lambda_block_matrix(n), math.comb(m, n + 1)))
    gram = np.concatenate([np.repeat(np.linalg.eigvalsh(b), copies) for b, copies in blocks])
    pi0 = np.concatenate([1.0 - c * gram, np.ones(dim - len(gram))])
    outcome = np.concatenate([np.zeros(dim - rank), np.full(rank, c)])
    return [np.sort(pi0)] + [outcome] * n


# Oracle for a built family's sector entries: the sign identity on the registers other
# than i, which gave the built entries before their permutation coefficients did.


def sign_entries_own(m, count, own):
    """Entries on _weight_sectors(m, count).same of I_own ⊗ Φ_rest, Φ_rest = (1/k!)·Σ_σ sgn(σ)·σ
    on the k = count − 1 registers other than own (1-based): S(x)·S(y)/k! when x and y hold
    the same own level and the same set of k distinct levels on the others, else 0, S the
    sign of the permutation that sorts those levels (0 when one repeats)."""
    index = _weight_sectors(m, count)
    sign = _sorting_signs(np.delete(index.digits, own - 1, axis=1))
    product = sign[index.rows] * sign[index.cols]
    product *= index.digits[index.rows, own - 1] == index.digits[index.cols, own - 1]
    return product / math.factorial(count - 1)


def sign_route_entries(family, m, n):
    """(d_0, …, d_n) of a built family by the sign identity: Π_i = b·(I_i ⊗ Φ_rest) + (a−b)·Φ,
    a weight of 0 contributing no term, and Π_0 = I − Σ_i Π_i."""
    a, b = FAMILIES[family].weights(n)
    shared = [(a - b) * _sign_entries(m, n + 1)] if a != b else []  # sum(shared, x) is x when empty
    parts = [sum(shared, b * sign_entries_own(m, n + 1, i)) for i in range(1, n + 1)] if b else shared * n
    parts = [np.asarray(d, dtype=complex) for d in parts]
    return [np.asarray(_weight_sectors(m, n + 1).identity - sum(d.real for d in parts), dtype=complex), *parts]


# Oracle for the sector-row POVM layout of udisc.io.


def sector_columns(m, count):
    """For each basis state x of count registers of dimension m, the y whose levels are a
    permutation of x's (its weight sector), ascending."""
    dim = m**count
    levels = np.sort(np.array(np.unravel_index(np.arange(dim), (m,) * count)).T, axis=1)
    return [np.flatnonzero((levels == levels[x]).all(axis=1)) for x in range(dim)]


def sector_rows(m, count, element):
    """The rows of the sector-row layout of a dense element on count registers: row x holds
    its entries (x, y) for the y of sector_columns, ascending."""
    element = np.asarray(element)
    return [element[x, columns] for x, columns in enumerate(sector_columns(m, count))]


# Oracle for udisc.mixed_states: a subspace algebra, the cores computed through it (the
# pull-back of the others' span intersected with each support) and their residuals.

# Orthonormality deviation tolerated inside a Subspace basis, and Subspace.contains'
# residual norm relative to max(1, ‖v‖).
ORTH_TOL = 1e-9
CONTAINS_TOL = 1e-8


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an orthonormal basis (columns of ``basis``)."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, k)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient {self.ambient_dim}")
        if b.shape[1]:
            dev = max_abs(b.conj().T @ b - np.eye(b.shape[1]))
            if dev > ORTH_TOL:
                raise ValueError(f"basis is not orthonormal (deviation {dev:.3e})")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement_projector(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex) - self.projector()

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise LayoutMismatch("vector dimension does not match ambient dimension")
        residual = v - self.basis @ (self.basis.conj().T @ v)
        return float(np.linalg.norm(residual)) <= CONTAINS_TOL * max(1.0, float(np.linalg.norm(v)))


def _orthonormal_columns(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span, dropping near-dependent directions."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > NULL_TOL * max(1.0, float(s[0]))
    return u[:, keep]


def _null_space(mat: np.ndarray, tol: float = NULL_TOL) -> np.ndarray:
    """Orthonormal basis of the right null space of ``mat``."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol * max(1.0, smax)))
    return vh[rank:].conj().T


def subspace_from_vectors(vectors) -> Subspace:
    """Span of a family of (possibly dependent) vectors."""
    v = np.atleast_2d(np.asarray(vectors, dtype=complex))
    return Subspace(v.shape[1], _orthonormal_columns(v.T))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union of two subspaces, via combined orthonormalization."""
    _require_same_ambient(a, b)
    return Subspace(a.ambient_dim, _orthonormal_columns(np.hstack([a.basis, b.basis])))


def subspace_intersection(a: Subspace, b: Subspace, tol: float = NULL_TOL) -> Subspace:
    """Intersection, as the joint null space of the stacked complement projectors."""
    _require_same_ambient(a, b)
    stacked = np.vstack([a.complement_projector(), b.complement_projector()])
    return Subspace(a.ambient_dim, _null_space(stacked, tol))


def subspace_preimage(s: Subspace, mat) -> Subspace:
    """Preimage {x : M x ∈ S}, computed as the null space of (I - P_S) M."""
    mat = as_complex_matrix(mat)
    if mat.shape[0] != s.ambient_dim:
        raise LayoutMismatch("map dimension does not match subspace ambient dimension")
    return Subspace(mat.shape[1], _null_space((np.eye(s.ambient_dim) - s.projector()) @ mat))


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise LayoutMismatch(
            f"subspaces live in different ambient dimensions ({a.ambient_dim} vs {b.ambient_dim})"
        )


def support_projector(op) -> Subspace:
    """Support of a PSD operator: span of eigenvectors above SUPPORT_TOL·max(1, λ_max).

    The zero operator yields the zero subspace.  A negative eigenvalue beyond
    the PSD tolerance raises NotPositive.
    """
    w, v = eig_hermitian(require_psd(op))
    keep = w > SUPPORT_TOL * max(1.0, float(w[-1]) if w.size else 0.0)
    return Subspace(v.shape[0], v[:, keep])


def _support_union(supports: list[Subspace], skip: int) -> Subspace:
    return reduce(subspace_sum, [s for j, s in enumerate(supports) if j != skip])


def subspace_cores(rhos) -> CoreDecomposition:
    """core_decompose by subspaces: with S_i the sum of the others' supports, V is the
    preimage of S_i under √ρ_i intersected with supp ρ_i, Q its projector,
    ρ̂_i = √ρ_i Q √ρ_i and ρ̃_i = ρ_i - ρ̂_i."""
    mats = [require_density(r) for r in rhos]
    supports = [support_projector(r) for r in mats]
    tildes, hats = [], []
    for i, rho in enumerate(mats):
        root = psd_sqrt(rho)
        pulled_back = subspace_preimage(_support_union(supports, skip=i), root)
        q = subspace_intersection(pulled_back, supports[i]).projector()
        hat = hermitize(root @ q @ root)
        hats.append(hat)
        tildes.append(hermitize(rho - hat))
    return CoreDecomposition(tildes=tuple(tildes), hats=tuple(hats), tilde0=hermitize(sum(hats)))


def core_residuals(cores: CoreDecomposition, rhos) -> dict[str, float]:
    """Worst-case residuals of the three defining conditions of a core decomposition.

    split: ‖ρ_i - ρ̃_i - ρ̂_i‖_max.
    containment: ρ̂_i sandwiched by the complement of Σ_{j≠i} supp(ρ_j).
    intersection_dim: largest dimension of supp(ρ̃_i) ∩ Σ_{j≠i} supp(ρ_j),
    computed at threshold 1e-7.
    """
    mats = [np.asarray(r, dtype=complex) for r in rhos]
    split = 0.0
    containment = 0.0
    inter_dim = 0
    supports = [support_projector(r) for r in mats]
    for i in range(cores.n):
        split = max(split, max_abs(mats[i] - cores.tildes[i] - cores.hats[i]))
        others = _support_union(supports, skip=i)
        comp = others.complement_projector()
        containment = max(containment, max_abs(comp @ cores.hats[i] @ comp))
        inter = subspace_intersection(support_projector(cores.tildes[i]), others, tol=1e-7)
        inter_dim = max(inter_dim, inter.dim)
    return {
        "split": split,
        "containment": containment,
        "intersection_dim": float(inter_dim),
    }
