"""Antisymmetric tensor machinery.

Permutations and their signs, wedge products, the projector onto the
antisymmetric subspace of H^⊗n, and its increasing-tuple basis.  Register
levels and tuple entries are 1-based.

The projector is built two independent ways.  antisym_projector writes its
weight-sector entries (_weight_sectors, the one index the builders and
checks share) from the sign identity ⟨x|Φ|y⟩ = S(x)·S(y)/n!, with S(x) the
sign of the permutation that sorts x's levels; _sign_entries also gives
the built POVM elements I_i ⊗ Φ_rest.  antisym_projector_from_basis sums
the outer products of the increasing-tuple basis vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .config import check_entries, check_square
from .tensor_algebra import as_state_set, kron_chain, sorted_distinct

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


def _nonzeros(a: np.ndarray) -> int:
    """Number of nonzero real and imaginary parts (a signed zero counts as zero)."""
    a = np.ravel(a)
    return np.count_nonzero(a.view(np.float64) if a.dtype == np.complex128 else a)


class _WeightSectors:
    """Weight sectors of count registers of dimension m: the sets of basis states sharing
    one multiset of levels, each mapped into itself by an operator commuting with U^⊗count.
    The caller sizes m^count against the budget; every array is read-only.

    digits: _digit_table(m, count), register 1 first;
    same: flat indices (row·dim + column) of every same-sector pair, the
        sector blocks of one size contiguous and row-major, so one gather
        reads all the blocks (a sector-diagonal operator's entries d);
    blocks: (number of sectors, size) of each run of blocks in same;
    rows, cols: the row and the column of each pair of same;
    identity: whether each pair of same is diagonal, the identity's entries.

    _position maps pairs to their place in same by three per-state arrays.
    The checks' maps (transposed, swapped, shifted, traced, diagonal) are built
    on first use and kept; the POVM file codec's row order is io._sector_rows'.
    """

    def __init__(self, m: int, count: int):
        digits = _digit_table(m, count)
        _, label, sizes = np.unique(np.sort(digits, axis=1) @ m ** np.arange(count),
                                    return_inverse=True, return_counts=True)
        size = sizes[label]
        order = np.lexsort((label, size))  # by sector size, then sector, then index
        distinct = sorted_distinct(sizes)
        runs = np.split(order, np.cumsum(np.bincount(size)[distinct])[:-1])
        sectors = [run.reshape(-1, s) for run, s in zip(runs, distinct)]  # (sectors, size) per size
        same = np.concatenate([(idx[:, :, None] * m**count + idx[:, None, :]).ravel() for idx in sectors])
        self.m, self.digits, self.same = m, digits, same
        self.blocks = tuple(idx.shape for idx in sectors)
        self.rows, self.cols = np.divmod(same, m**count)
        self.identity = self.rows == self.cols
        # per basis state: where its sector's block starts in same (the sector's key), where
        # its row of that block starts, and its place in the sector, so (x, y) is at
        # _row[x] + _local[y] when _block[x] == _block[y] (_position)
        self._block, self._row, self._local = (np.empty(len(digits), dtype=np.int64) for _ in range(3))
        self._begins = [0]  # where each run of blocks starts in same (runs)
        for idx in sectors:
            number, size = idx.shape
            self._block[idx] = self._begins[-1] + size * size * np.arange(number)[:, None]
            self._local[idx] = np.arange(size)
            self._row[idx] = self._block[idx] + size * np.arange(size)
            self._begins.append(self._begins[-1] + number * size * size)
        for a in (digits, same, self.rows, self.cols, self.identity, self._block, self._row, self._local):
            a.setflags(write=False)

    def scatter(self, entries: np.ndarray) -> np.ndarray:
        """Complex dim x dim matrix holding entries at the pairs of same, +0.0 elsewhere."""
        out = np.zeros((len(self.digits),) * 2, dtype=complex)
        np.put(out, self.same, entries)
        return out

    def gather(self, e: np.ndarray) -> tuple[np.ndarray, bool]:
        """e's entries on the sector blocks, ravel(e)[same] (read-only), and whether e is
        zero outside them: a nonzero count over all of e."""
        inside = np.ravel(e)[self.same]
        inside.setflags(write=False)
        return inside, _nonzeros(inside) == _nonzeros(e)

    def runs(self, d: np.ndarray) -> list[np.ndarray]:
        """Sector entries d as stacks of blocks, one (sectors, size, size) view per size."""
        return [d[begin:begin + count * size * size].reshape(count, size, size)
                for begin, (count, size) in zip(self._begins, self.blocks)]

    def block_minimum(self, d: np.ndarray) -> float:
        """Least eigenvalue of the Hermitian operator with sector entries d and zeros
        elsewhere: the least over its sector blocks."""
        return min(float(np.linalg.eigvalsh(blocks).min()) for blocks in self.runs(d))

    def _position(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Position in same of the pairs (row, col), broadcast together, len(same) for a
        pair outside the sectors; read-only."""
        out = np.where(self._block[row] == self._block[col], self._row[row] + self._local[col], len(self.same))
        out.setflags(write=False)
        return out

    @cached_property
    def transposed(self) -> np.ndarray:
        """Position in same of (y, x) for each pair (x, y) of same: d[transposed] is D^T's
        entries."""
        return self._position(self.cols, self.rows)

    @cache  # kept per index, as every index is kept by _weight_sectors
    def swapped(self, a: int, b: int) -> np.ndarray:
        """Position in same of (σx, σy) for each pair (x, y) of same, σ exchanging the
        levels of registers a and b (1-based).  σ maps each sector into itself, so
        d[swapped(a, b)] is the entries of σDσ."""
        count = self.digits.shape[1]
        lift = self.m ** (count - b) - self.m ** (count - a)
        return self._position(*(i + (self.digits[i, a - 1] - self.digits[i, b - 1]) * lift
                                for i in (self.rows, self.cols)))

    @cached_property
    def shifted(self) -> tuple[np.ndarray, np.ndarray]:
        """(raised, lowered): (count, |T|) gathers from d extended by one zero, over the
        pairs T where [dΓ(C), D] can be nonzero for a sector-diagonal D: those reached
        from a same-sector pair by the cyclic shift f_r of one register's level, on the
        row or on the column.  Row r of raised reads D[f_r^{-1}(x), y] and row r of
        lowered reads D[x, f_r(y)] for each (x, y) in T, r running from the last
        register to the first; a pair outside the sectors reads the zero.  T is
        taken in ascending flat order, by a sort and a neighbour test.

        T is the row-side reach {(f_r(x), y)} alone: the column side adds no pair.  Take
        (x, y) in a sector and l, y's level on register r: x holds l on some register s,
        so x' = f_s^{-1}(x) shares f_r^{-1}(y)'s sector and (x, f_r^{-1}(y)) = (f_s(x'), ·)."""
        m, dim = self.m, len(self.digits)
        digits = self.digits[:, ::-1]  # column r: the level of register count − r
        powers = m ** np.arange(digits.shape[1])
        up = np.arange(dim)[:, None] + ((digits + 1) % m - digits) * powers  # column r: f_r
        down = np.arange(dim)[:, None] + ((digits - 1) % m - digits) * powers  # f_r^{-1}
        reached = sorted_distinct((up[self.rows] * dim + self.cols[:, None]).ravel())
        rows, cols = np.divmod(reached, dim)
        return self._position(down[rows].T, cols), self._position(rows, up[cols].T)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Position in same of the diagonal pair (x, x) for each basis state x."""
        out = self._row + self._local
        out.setflags(write=False)
        return out

    @cache  # kept per index, as every index is kept by _weight_sectors
    def traced(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(source, target) of the partial trace over register i (1-based), for
        sector-diagonal operators: source lists the positions in same of the pairs
        (x, y) whose levels on register i agree, and target the position of (x', y'),
        x and y with register i removed, in _weight_sectors(m, count − 1).same.  Such
        x' and y' share a sector, so Tr_i(D) has the entries
        bincount(target, weights=d[source])."""
        count = self.digits.shape[1]
        lower = _weight_sectors(self.m, count - 1)
        reduced = np.delete(self.digits, i - 1, axis=1) @ self.m ** np.arange(count - 2, -1, -1)
        source = np.flatnonzero(self.digits[self.rows, i - 1] == self.digits[self.cols, i - 1])
        target = lower._position(reduced[self.rows[source]], reduced[self.cols[source]])
        source.setflags(write=False)
        return source, target


@cache
def _weight_sectors(m: int, count: int) -> _WeightSectors:
    """The _WeightSectors of (m, count), built once per process."""
    return _WeightSectors(m, count)


def _sign_entries(m: int, count: int, own: int | None = None) -> np.ndarray:
    """Entries on _weight_sectors(m, count).same of (1/k!)·Σ_σ sgn(σ)·σ on the k
    registers other than own, tensored with I on register own (1-based;
    None antisymmetrises all count registers).

    <x|P|y> = S(x)·S(y)/k! when x and y hold the same own level and the same
    set of k distinct levels on the other registers (so share a sector),
    and 0 otherwise.  S(x) is the sign of the permutation that sorts x's
    levels there, an integer product of one np.sign per register pair, 0
    when a level repeats: the one σ taking y to x has sgn(σ) = S(x)·S(y).
    Integers until the division keep −0.0 out.
    """
    index = _weight_sectors(m, count)
    digits, rows, cols = index.digits, index.rows, index.cols
    rest = digits if own is None else np.delete(digits, own - 1, axis=1)
    k = rest.shape[1]
    sign = np.ones(len(digits), dtype=np.int64)
    for a, b in itertools.combinations(range(k), 2):
        sign *= np.sign(rest[:, b] - rest[:, a])
    product = sign[rows] * sign[cols]
    if own is not None:
        product *= digits[rows, own - 1] == digits[cols, own - 1]
    return product / math.factorial(k)


def antisym_projector(m: int, n: int) -> AntisymProjector:
    """Projector (1/n!) Σ_σ sgn(σ)·σ, scattered from its sector entries (_sign_entries).

    For n > m the antisymmetric space is trivial and the zero operator is
    returned.
    """
    if n < 1:
        raise ValueError("need at least one register")
    check_square(m**n, "antisymmetric projector")
    p = _weight_sectors(m, n).scatter(_sign_entries(m, n))
    trace = float(np.trace(p).real)
    if abs(trace - math.comb(m, n)) > TRACE_TOL:
        raise ArithmeticError(f"projector trace {trace!r} differs from C({m},{n})")
    return AntisymProjector(m, n, p)


def antisym_projector_from_basis(m: int, n: int) -> AntisymProjector:
    """Same projector assembled as Σ_ς |φ_ς><φ_ς| over the increasing-tuple basis."""
    dim = m**n
    check_square(dim, "antisymmetric projector")
    acc = np.zeros((dim, dim), dtype=complex)
    for tup in increasing_tuples(m, n) if n <= m else []:
        v = antisym_basis_vector(tup, m)
        acc += np.outer(v, v.conj())
    return AntisymProjector(m, n, acc)
