"""Antisymmetric tensor machinery.

Permutations and their signs, wedge products, the projector onto the
antisymmetric subspace of H^⊗n, and its increasing-tuple basis.  Register
levels and tuple entries are 1-based.

The projector is built two independent ways.  antisym_projector writes it
entry by entry from the sign identity ⟨x|Φ|y⟩ = S(x)·S(y)/n!, nonzero only
when x and y hold the same set of n distinct levels, with S(x) the sign of
the permutation that sorts x's levels; the same helper (_sign_projector)
gives the built POVM elements I_i ⊗ Φ_rest.  antisym_projector_from_basis
sums the outer products of the increasing-tuple basis vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_entries, check_square
from .tensor_algebra import as_state_set, kron_chain

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
        """Composition matching the operator product: the operator realigning the
        registers by a.compose(b) is a's operator times b's."""
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


def _sign_projector(m: int, count: int, own: int | None = None) -> np.ndarray:
    """Real dense (1/k!)·Σ_σ sgn(σ)·σ on the k registers other than own, tensored
    with I on register own (1-based; None antisymmetrises all count registers).

    Entry by entry, <x|P|y> = S(x)·S(y)/k! when x and y hold the same own
    level and the same set of k distinct levels on the other registers, and
    0 otherwise.  S(x) is the sign of the permutation that sorts x's levels
    on those registers, a product of one np.sign per register pair, and 0
    when a level repeats: the one σ taking y to x has sgn(σ) = S(x)·S(y).
    The basis states with S ≠ 0 fall into groups of k! that share the own
    level and the set of levels, and one fancy-index assignment writes every
    group's block.  The caller sizes m^count against the budget.
    """
    digits = _digit_table(m, count)
    rest = digits if own is None else np.delete(digits, own - 1, axis=1)
    k = rest.shape[1]
    sign = np.ones(len(digits))
    for a, b in itertools.combinations(range(k), 2):
        sign *= np.sign(rest[:, b] - rest[:, a])
    states = np.flatnonzero(sign)
    key = np.sort(rest[states], axis=1) @ m ** np.arange(k)
    if own is not None:
        key += digits[states, own - 1] * m**k
    groups = states[np.argsort(key, kind="stable")].reshape(-1, math.factorial(k))
    s = sign[groups]
    out = np.zeros((len(digits), len(digits)))
    out[groups[:, :, None], groups[:, None, :]] = s[:, :, None] * s[:, None, :] / math.factorial(k)
    return out


def antisym_projector(m: int, n: int) -> AntisymProjector:
    """Projector (1/n!) Σ_σ sgn(σ)·σ, entry by entry from the sign identity
    (_sign_projector).

    For n > m the antisymmetric space is trivial and the zero operator is
    returned.
    """
    if n < 1:
        raise ValueError("need at least one register")
    check_square(m**n, "antisymmetric projector")
    p = _sign_projector(m, n)
    trace = float(np.trace(p))
    if abs(trace - math.comb(m, n)) > TRACE_TOL:
        raise ArithmeticError(f"projector trace {trace!r} differs from C({m},{n})")
    return AntisymProjector(m, n, p.astype(complex))


def antisym_projector_from_basis(m: int, n: int) -> AntisymProjector:
    """Same projector assembled as Σ_ς |φ_ς><φ_ς| over the increasing-tuple basis."""
    dim = m**n
    check_square(dim, "antisymmetric projector")
    acc = np.zeros((dim, dim), dtype=complex)
    for tup in increasing_tuples(m, n) if n <= m else []:
        v = antisym_basis_vector(tup, m)
        acc += np.outer(v, v.conj())
    return AntisymProjector(m, n, acc)
