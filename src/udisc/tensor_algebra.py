"""Dense complex linear algebra substrate.

Tensor products, partial traces, Hermitian spectral decompositions, Gram
matrices, positive-operator checks and square roots, and fidelity.
Operators are plain complex ndarrays, and a composite system is the plain
sequence of its factor dimensions (``factors``, (m,)*(n+1) for the
discriminators).  Factors are addressed with 1-based indices throughout
(registers 1..n, data register n+1), and the first tensor factor always
owns the slowest-varying index, matching ``numpy.kron``.

frozen is the home of udisc's one read-only rule: every array held by a
value a udisc function returns (a Povm, a ProgramInput, a projector, a
distribution, a Gram structure, a core decomposition, a program) and every
array the sector index keeps goes through it.  A function that returns a
bare array (kron_chain, partial_trace, gram, …) returns a fresh, writable
one that belongs to the caller.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable

import numpy as np

from .config import HERM_TOL, PSD_TOL, check_entries
from .errors import IndexOutOfRange, LayoutMismatch, NotHermitian, NotPositive

# Largest deviation of a state-vector norm from 1.
NORM_TOL = 1e-6
# fidelity: largest trace accepted above 1, and the eigenvalues of √ρ σ √ρ
# below EIGEN_NOISE_TOL·max(1, λ_max) zeroed before the square root.
FIDELITY_TRACE_TOL = 1e-9
EIGEN_NOISE_TOL = 1e-13


def max_abs(a: np.ndarray) -> float:
    """Max norm: largest entry magnitude (0 for empty input)."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def frozen(a, dtype=None) -> np.ndarray:
    """a as a read-only ndarray of dtype (a's own when None): a read-only view of an
    ndarray that already has it, so the caller's name for the array stays writable
    and the caller must not change it afterwards; anything else is copied once."""
    out = np.asarray(a, dtype=dtype).view()
    out.setflags(write=False)
    return out


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending: np.unique's result, from np.sort and a
    neighbour test (on int64, np.unique took 31 ms against 1.2 ms for 2^17 distinct values)."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    require_finite(a)
    return a


def all_finite(a) -> bool:
    """Whether a holds no NaN and no infinity: the least and largest of its real and
    imaginary parts are finite (a NaN is what min and max give).  A contiguous complex
    array is read in place, as one float64 view; other input is made one first."""
    parts = np.ascontiguousarray(a, dtype=complex).view(np.float64)
    return parts.size == 0 or math.isfinite(parts.min()) and math.isfinite(parts.max())


def require_finite(a, what: str = "matrix") -> None:
    """Raise ValueError naming what if a holds a NaN or an infinity."""
    if not all_finite(a):
        raise ValueError(f"{what} contains NaN or Inf entries")


def as_state_set(states) -> np.ndarray:
    """Coerce to an (n, m) complex array whose rows are state vectors."""
    s = np.asarray(states, dtype=complex)
    if s.ndim != 2:
        raise ValueError(f"expected a set of state vectors, got shape {s.shape}")
    require_finite(s, "state set")
    return s


def require_normalized(states) -> np.ndarray:
    s = as_state_set(states)
    norms = np.linalg.norm(s, axis=1)
    if np.any(np.abs(norms - 1.0) > NORM_TOL):
        raise ValueError("state vectors must be normalized")
    return s


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2."""
    return (a + a.conj().T) / 2


def require_hermitian(a) -> np.ndarray:
    """Validate A = A† within HERM_TOL (relative to max(1, ‖A‖_max))."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix of shape {a.shape} is not square")
    require_conjugate_pairs(a, a.T.copy())
    return a


def require_conjugate_pairs(entries: np.ndarray, mirrored: np.ndarray) -> float:
    """Validate that entries equal conj(mirrored) within HERM_TOL (relative to
    max(1, max|entries|)), where mirrored holds, at each position, the entry of
    the same matrix at the transposed position; return the deviation.

    mirrored is overwritten: it is conjugated and subtracted in place, so the
    deviation is max|A - conj(A^T)| bit for bit without a strided read or a
    second temporary.
    """
    np.conjugate(mirrored, out=mirrored)
    dev = max_abs(np.subtract(entries, mirrored, out=mirrored))
    if dev > HERM_TOL * max(1.0, max_abs(entries)):
        raise NotHermitian(f"hermiticity deviation {dev:.3e} exceeds tolerance")
    return dev


def kron_chain(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of vectors or matrices."""
    mats = [np.asarray(f, dtype=complex) for f in factors]
    if not mats:
        raise ValueError("kron_chain needs at least one factor")
    total = 1
    for f in mats:
        total *= f.size
    check_entries(total, "kronecker chain")
    return reduce(np.kron, mats)


def partial_trace(op, factors, traced) -> np.ndarray:
    """Trace out the given 1-based factor indices of an operator on factors ``factors``.

    The result acts on the remaining factors in their original relative
    order; the total trace is preserved.  Only the shape and the indices
    are checked: hermiticity and finiteness are the caller's checks, made
    once per operator.
    """
    op = np.asarray(op, dtype=complex)
    dims = [int(f) for f in factors]
    dim = math.prod(dims)
    if op.shape != (dim, dim):
        raise LayoutMismatch(
            f"operator of shape {op.shape} does not match factors {tuple(dims)} "
            f"(ambient dimension {dim})"
        )
    traced = sorted(set(int(t) for t in traced))
    if not traced:
        raise IndexOutOfRange("traced set must be non-empty")
    if traced[0] < 1 or traced[-1] > len(dims):
        raise IndexOutOfRange(f"traced indices {traced} outside 1..{len(dims)}")
    tensor = op.reshape(*dims, *dims)
    for t in reversed(traced):
        ax = t - 1
        tensor = np.trace(tensor, axis1=ax, axis2=ax + len(dims))
        del dims[ax]
    d = math.prod(dims)
    return tensor.reshape(d, d)


def reorder_factors(op, factors, order) -> np.ndarray:
    """Permute the tensor factors of a vector or an operator.

    ``order`` lists 1-based input factor positions; output slot j carries
    input factor order[j].  If op = A_1 ⊗ ... ⊗ A_N the result is
    A_{order[1]} ⊗ ... ⊗ A_{order[N]}; every array axis (one for a vector,
    two for an operator) is split into the factors and permuted alike.
    """
    op = np.asarray(op, dtype=complex)
    dims = [int(f) for f in factors]
    n = len(dims)
    perm = [int(o) - 1 for o in order]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 1..{n}")
    axes = [k * n + p for k in range(op.ndim) for p in perm]
    return op.reshape(dims * op.ndim).transpose(axes).reshape(op.shape)


def own_register_first(i: int, count: int) -> list[int]:
    """Order for reorder_factors that takes factors laid out as (register i,
    the other registers ascending) back to registers 1..count."""
    return list(range(2, i + 1)) + [1] + list(range(i + 1, count + 1))


def eig_hermitian(op) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns)
    with A v_j = w_j v_j.
    """
    return np.linalg.eigh(require_hermitian(op))


def gram(states) -> np.ndarray:
    """Gram matrix X with X[i, j] = <s_i|s_j>."""
    s = as_state_set(states)
    return s.conj() @ s.T


def gram_det(states) -> float:
    """Real determinant of the Gram matrix, clamped at 0."""
    d = np.linalg.det(gram(states))
    return max(float(d.real), 0.0)


# ---------------------------------------------------------------------------
# positive operators


def _check_psd(w: np.ndarray) -> None:
    """Raise NotPositive if the ascending eigenvalues ``w`` dip below
    -PSD_TOL·max(1, λ_max)."""
    lam_max = max(float(w[-1]), 0.0) if w.size else 0.0
    if w.size and float(w[0]) < -PSD_TOL * max(1.0, lam_max):
        raise NotPositive(f"operator has eigenvalue {float(w[0]):.3e} below -psd_tol")


def require_psd(op) -> np.ndarray:
    op = require_hermitian(op)
    _check_psd(np.linalg.eigvalsh(op))
    return op


def psd_sqrt(op) -> np.ndarray:
    """Principal square root of a PSD operator (negative noise clipped to 0)."""
    w, v = eig_hermitian(op)
    _check_psd(w)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Square-root fidelity F(ρ,σ) = Tr √(√ρ σ √ρ).

    For pure σ = |φ><φ| this satisfies F² = <φ|ρ|φ>.  Both arguments must be
    PSD with trace at most 1 (up to tolerance).
    """
    rho = require_psd(rho)
    sigma = require_psd(sigma)
    if rho.shape != sigma.shape:
        raise LayoutMismatch("fidelity arguments must share a dimension")
    for name, op in (("rho", rho), ("sigma", sigma)):
        tr = float(np.trace(op).real)
        if tr > 1.0 + FIDELITY_TRACE_TOL:
            raise ValueError(f"{name} has trace {tr} > 1")
    sr = psd_sqrt(rho)
    inner = hermitize(sr @ sigma @ sr)
    w = np.linalg.eigvalsh(inner)
    # zero out eigensolver noise before the square root amplifies it
    w[w < EIGEN_NOISE_TOL * max(1.0, float(w[-1]))] = 0.0
    return float(np.sum(np.sqrt(w)))
