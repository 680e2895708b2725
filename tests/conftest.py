import math

import numpy as np

from udisc.antisym import TRACE_TOL, AntisymProjector, Permutation, _digit_table, all_permutations
from udisc.config import check_square
from udisc.random_states import rand_density
from udisc.tensor_algebra import max_abs


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


def _permuted_indices(sigma: Permutation, m: int) -> np.ndarray:
    """Index map j ↦ j' with digits ω'_k = ω_{σ(k)}; column j of the operator is e_{j'}."""
    digits = _digit_table(m, sigma.n)
    moved = tuple(digits[:, sigma.images[k] - 1] for k in range(sigma.n))
    return np.ravel_multi_index(moved, [m] * sigma.n)


def permutation_operator(sigma: Permutation, m: int) -> np.ndarray:
    """Unitary realigning n registers of dimension m: |ω_1..ω_n> ↦ |ω_{σ1}..ω_{σn}>."""
    dim = m**sigma.n
    check_square(dim, "permutation operator")
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
