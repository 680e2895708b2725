"""Antisymmetric tensor machinery.

Permutation operators on composite registers, wedge products, the projector
onto the antisymmetric subspace of H^⊗n, and its increasing-tuple basis.
Register levels and tuple entries are 1-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_entries, check_square
from .tensor_algebra import as_state_set, kron_chain, max_abs

# AntisymProjector.validate: idempotency and sign-covariance deviation.
PROJECTOR_TOL = 1e-10
# Largest deviation of a projector's trace from its rank C(m, n).
TRACE_TOL = 1e-9


def _cycle_sign(images: tuple[int, ...]) -> int:
    """Permutation parity from the cycle decomposition: (-1)^(n - #cycles)."""
    n = len(images)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = images[k] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, position k ↦ images[k-1], with its parity."""

    images: tuple[int, ...]
    sign: int = field(init=False)

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        n = len(images)
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "sign", _cycle_sign(images))

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Composition matching the operator product:
        permutation_operator(a.compose(b)) = permutation_operator(a) @ permutation_operator(b).
        """
        if other.n != self.n:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(tuple(other.images[self.images[k] - 1] for k in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, img in enumerate(self.images, start=1):
            inv[img - 1] = k
        return Permutation(tuple(inv))


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def _digit_table(m: int, n: int) -> np.ndarray:
    """(m^n, n) table of the base-m digits of each index, first factor slowest."""
    idx = np.arange(m**n)
    return np.stack(np.unravel_index(idx, [m] * n), axis=1)


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


def wedge(states) -> np.ndarray:
    """Antisymmetrized tensor product (1/√n!) Σ_σ sgn(σ) |ψ_{σ1}>…|ψ_{σn}>.

    The squared norm equals det of the Gram matrix, so the result vanishes
    exactly when the inputs are linearly dependent (in particular whenever
    n exceeds the single-system dimension).
    """
    s = as_state_set(states)
    n, m = s.shape
    check_entries(m**n, "wedge product vector")
    out = np.zeros(m**n, dtype=complex)
    for sigma in all_permutations(n):
        out += sigma.sign * kron_chain([s[i - 1] for i in sigma.images])
    return out / math.sqrt(math.factorial(n))


def increasing_tuples(m: int, n: int) -> list[tuple[int, ...]]:
    """All strictly increasing n-tuples from {1..m}, in lexicographic order.

    Empty when n > m (the antisymmetric space is trivial there).
    """
    if n < 1:
        raise ValueError("tuple length must be at least 1")
    return list(itertools.combinations(range(1, m + 1), n))


def antisym_basis_vector(tup: tuple[int, ...], m: int) -> np.ndarray:
    """Unit vector |ς_1> ∧ … ∧ |ς_n> for a strictly increasing tuple ς."""
    tup = tuple(int(t) for t in tup)
    if any(t < 1 or t > m for t in tup) or list(tup) != sorted(set(tup)):
        raise ValueError(f"{tup} is not a strictly increasing tuple from 1..{m}")
    eye = np.eye(m, dtype=complex)
    v = wedge([eye[t - 1] for t in tup])
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class AntisymProjector:
    """Projector onto the antisymmetric subspace of n registers of dimension m."""

    m: int
    n: int
    matrix: np.ndarray

    @property
    def rank(self) -> int:
        return math.comb(self.m, self.n)

    def validate(self) -> None:
        """Check idempotency, trace = C(m, n) and the sign-covariance property."""
        p = self.matrix
        if max_abs(p @ p - p) > PROJECTOR_TOL:
            raise ValueError("projector is not idempotent within tolerance")
        if abs(float(np.trace(p).real) - self.rank) > TRACE_TOL:
            raise ValueError("projector trace differs from C(m, n)")
        for sigma in all_permutations(self.n):
            lhs = permutation_operator(sigma, self.m) @ p
            if max_abs(lhs - sigma.sign * p) > PROJECTOR_TOL:
                raise ValueError(f"sign covariance fails for permutation {sigma.images}")


def antisym_projector(m: int, n: int) -> AntisymProjector:
    """Projector built as (1/n!) Σ_σ sgn(σ)·σ, accumulated by index maps.

    For n > m the antisymmetric space is trivial and the zero operator is
    returned.
    """
    if n < 1:
        raise ValueError("need at least one register")
    dim = m**n
    check_square(dim, "antisymmetric projector")
    acc = np.zeros((dim, dim))
    if n <= m:
        cols = np.arange(dim)
        for sigma in all_permutations(n):
            acc[_permuted_indices(sigma, m), cols] += sigma.sign
        acc /= math.factorial(n)
    trace = float(np.trace(acc))
    if abs(trace - math.comb(m, n)) > TRACE_TOL:
        raise ArithmeticError(f"projector trace {trace!r} differs from C({m},{n})")
    return AntisymProjector(m, n, acc.astype(complex))


def antisym_projector_from_basis(m: int, n: int) -> AntisymProjector:
    """Same projector assembled as Σ_ς |φ_ς><φ_ς| over the increasing-tuple basis."""
    dim = m**n
    check_square(dim, "antisymmetric projector")
    acc = np.zeros((dim, dim), dtype=complex)
    for tup in increasing_tuples(m, n) if n <= m else []:
        v = antisym_basis_vector(tup, m)
        acc += np.outer(v, v.conj())
    return AntisymProjector(m, n, acc)
