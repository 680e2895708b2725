"""Antisymmetric tensor machinery.

Permutations and their signs, wedge products, the projector onto the
antisymmetric subspace of H^⊗n, and its increasing-tuple basis.  Register
levels and tuple entries are 1-based.

The projector is built two independent ways.  antisym_projector writes its
weight-sector entries (_weight_sectors, the one index the builders and
checks share) from the sign identity ⟨x|Φ|y⟩ = S(x)·S(y)/n!, with S(x) the
sign of the permutation that sorts x's levels.  antisym_projector_from_basis
sums the outer products of the increasing-tuple basis vectors.  The index
also maps each register permutation P_σ onto its entries
(_WeightSectors.permutation_positions), from which a POVM element given by
its coefficients Σ_σ a_σ P_σ takes its sector entries (discriminator).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .config import check_entries, check_factorial, check_tensor_square
from .tensor_algebra import as_state_set, frozen, kron_chain, sorted_distinct

# Largest deviation of a projector's trace from its rank C(m, n).
TRACE_TOL = 1e-9


def _sorting_signs(rows: np.ndarray) -> np.ndarray:
    """Per row of an integer array, the sign of the permutation that sorts it: the product
    of one np.sign per pair of places, −1 for each inversion and 0 when an entry repeats."""
    sign = np.ones(len(rows), dtype=np.int64)
    for a, b in itertools.combinations(range(rows.shape[1]), 2):
        sign *= np.sign(rows[:, b] - rows[:, a])
    return sign


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, position k ↦ images[k-1], with its parity (_sorting_signs)."""

    images: tuple[int, ...]
    sign: int = field(init=False)

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        n = len(images)
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "sign", int(_sorting_signs(np.array([images]))[0]))

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


@cache
def _permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(images, signs) of all_permutations(n), in its order: row σ holds σ(1), …, σ(n)
    and its sign, by Permutation's rule (_sorting_signs); read-only, built once per n per
    process.  The caller sizes n! first."""
    images = np.array(list(itertools.permutations(range(1, n + 1))))
    return frozen(images), frozen(_sorting_signs(images))


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
    """Projector onto the antisymmetric subspace of n registers of dimension m; the matrix
    is read-only (tensor_algebra.frozen)."""

    m: int
    n: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen(self.matrix))

    @property
    def rank(self) -> int:
        return math.comb(self.m, self.n)


def _nonzeros(a: np.ndarray) -> int:
    """Number of nonzero real and imaginary parts of a complex array (−0.0 counts as zero)."""
    return np.count_nonzero(np.ravel(a).view(np.float64))


class _WeightSectors:
    """Weight sectors of count registers of dimension m: the sets of basis states sharing
    one multiset of levels, each mapped into itself by an operator commuting with U^⊗count.
    The caller sizes m^count against the budget; every array is read-only.

    digits: _digit_table(m, count), register 1 first;
    same: flat indices (row·dim + column) of every same-sector pair, ascending, so one
        gather reads a sector-diagonal operator's entries d in io's sector-row file order;
    row_bounds: 2·(where each row starts in same, then len(same)), that file's row bounds;
    rows, cols: the row and the column of each pair of same;
    identity: whether each pair of same is diagonal, the identity's entries; each row
        holds one pair (x, x), so d[identity] is the operator's diagonal, x ascending.

    _position maps pairs to their place in same by three per-state arrays.
    The checks' maps (transposed, permuted, lowered, traced), the block
    gathers of runs and the map of the register permutations
    (permutation_positions) are built on first use and kept.
    """

    def __init__(self, m: int, count: int):
        digits = _digit_table(m, count)
        dim = len(digits)
        _, sector, sizes = np.unique(np.sort(digits, axis=1) @ m ** np.arange(count),
                                     return_inverse=True, return_counts=True)
        members = np.argsort(sector, kind="stable")  # each sector's states ascending, sector after sector
        first, size = (np.cumsum(sizes) - sizes)[sector], sizes[sector]  # where x's sector starts in members
        # per basis state: its sector, where its row starts in same (then the end) and its place in
        # its sector, so (x, y) is at _row[x] + _local[y] when _sector[x] == _sector[y] (_position)
        self._sector, self._row, self._local = sector, np.append(0, np.cumsum(size)), np.empty_like(sector)
        self._local[members] = np.arange(dim)
        self._local -= first
        self.rows = np.repeat(np.arange(dim), size)
        self.cols = members[np.repeat(first - self._row[:-1], size) + np.arange(len(self.rows))]
        self.m, self.digits, self.same, self.row_bounds = m, digits, self.rows * dim + self.cols, 2 * self._row
        self.identity = self.rows == self.cols
        for a in (digits, self.same, self.row_bounds, self.rows, self.cols, self.identity, sector, self._row,
                  self._local):
            a.setflags(write=False)

    def scatter(self, entries: np.ndarray) -> np.ndarray:
        """Complex dim x dim matrix holding entries at the pairs of same, +0.0 elsewhere."""
        out = np.zeros((len(self.digits),) * 2, dtype=complex)
        np.put(out, self.same, entries)
        return out

    def gather(self, e: np.ndarray) -> tuple[np.ndarray, bool]:
        """e's entries on the sector blocks, ravel(e)[same] (read-only), and whether e is
        zero outside them: a nonzero count over all of e."""
        inside = frozen(np.ravel(e)[self.same])
        return inside, _nonzeros(inside) == _nonzeros(e)

    @cached_property
    def run_positions(self) -> tuple[np.ndarray, ...]:
        """Per sector size, ascending, the (sectors, size, size) positions in same of the
        blocks of that size: sectors in order, each block row-major; read-only."""
        size = np.diff(self._row)
        order = np.lexsort((self._sector, size))  # by sector size, then sector, then state
        runs = np.split(order, np.cumsum(np.bincount(size)[sorted_distinct(size)])[:-1])
        blocks = [run.reshape(-1, size[run[0]]) for run in runs]  # (sectors, size) states per size
        return tuple(self._position(b[:, :, None], b[:, None, :]) for b in blocks)

    def runs(self, d: np.ndarray) -> list[np.ndarray]:
        """Sector entries d as stacks of blocks, one (sectors, size, size) gather per size."""
        return [d[positions] for positions in self.run_positions]

    def block_minimum(self, d: np.ndarray) -> float:
        """Least eigenvalue of the Hermitian operator with sector entries d and zeros
        elsewhere: the least over its sector blocks."""
        return min(float(np.linalg.eigvalsh(blocks).min()) for blocks in self.runs(d))

    def _position(self, row: np.ndarray, col: np.ndarray, read=True) -> np.ndarray:
        """Position in same of the pairs (row, col), broadcast together with read, len(same)
        for a pair outside the sectors or not read; read-only."""
        inside = read & (self._sector[row] == self._sector[col])
        return frozen(np.where(inside, self._row[row] + self._local[col], len(self.same)))

    @cached_property
    def permutation_positions(self) -> np.ndarray:
        """(count!, m^count) positions in same of the pairs (P_σ y, y), σ running over
        all_permutations(count) in order and y over the basis states, P_σ y holding on
        register r the level y holds on register σ(r).  ⟨x|P_σ|y⟩ is 1 at these pairs
        and 0 elsewhere, and P_σ keeps y's levels, so every pair is in a sector.  Sized
        against the budget before it is formed; read-only."""
        count, dim = self.digits.shape[1], len(self.digits)
        check_factorial(count, dim, "register permutation map")
        images = _permutation_table(count)[0] - 1
        # P_σ y = Σ_r y_σ(r)·m^(count−1−r): weights[σ(r), σ] = m^(count−1−r)
        weights = np.zeros((count, len(images)), dtype=np.int64)
        weights[images.T, np.arange(len(images))] = self.m ** np.arange(count - 1, -1, -1)[:, None]
        return self._position((self.digits @ weights).T, np.arange(dim))

    @cached_property
    def transposed(self) -> np.ndarray:
        """Position in same of (y, x) for each pair (x, y) of same: d[transposed] is D^T's
        entries."""
        return self._position(self.cols, self.rows)

    @cache  # kept per index, as every index is kept by _weight_sectors
    def permuted(self, registers: tuple[int, ...], levels: tuple[int, ...]) -> np.ndarray:
        """Position in same of (σx, σy) for each pair (x, y) of same, σx holding level
        levels[x_j] on register registers[j] (1-based, reorder_factors' order).  σ maps
        sectors onto sectors, so d[permuted(registers, levels)] is the entries of D[σx, σy]."""
        states = np.take(levels, self.digits[:, np.argsort(registers)]) @ self.m ** np.arange(len(registers))[::-1]
        return self._position(states[self.rows], states[self.cols])

    @cached_property
    def lowered(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right): (count, |T|) gathers from d extended by one zero, over the pairs T
        where [dΓ(E), D] can be nonzero for a sector-diagonal D, E = |0><1|: those reached
        from a same-sector pair (x, y) by lowering a level 1 of x to 0.  Row r of left
        reads D[x + m^r, y] where x holds 0 on register r, row r of right D[x, y − m^r]
        where y holds 1 there, for each (x, y) in T, r running from the last register to
        the first; any other read, and a pair outside the sectors, reads the zero.  T is
        taken in ascending flat order, by a sort and a neighbour test.

        The column side {(a, b) : (a, b − m^r) in same, b_r = 1} adds no pair to T: a,
        in the sector of b − m^r, holds 0 on some register s, and x = a + m^s shares b's
        sector, so (a, b) is reached from (x, b)."""
        m, dim = self.m, len(self.digits)
        levels = self.digits[:, ::-1].T  # row r: each state's level on register count − r
        step = m ** np.arange(len(levels))[:, None]
        reached = sorted_distinct(((self.rows - step) * dim + self.cols)[levels[:, self.rows] == 1])
        rows, cols = np.divmod(reached, dim)
        zero, one = levels[:, rows] == 0, levels[:, cols] == 1
        return self._position(rows + step * zero, cols, zero), self._position(rows, cols - step * one, one)

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
        return frozen(source), lower._position(reduced[self.rows[source]], reduced[self.cols[source]])


@cache
def _weight_sectors(m: int, count: int) -> _WeightSectors:
    """The _WeightSectors of (m, count), built once per process."""
    return _WeightSectors(m, count)


def _sign_entries(m: int, count: int) -> np.ndarray:
    """Entries on _weight_sectors(m, count).same of Φ = (1/count!)·Σ_σ sgn(σ)·P_σ.

    <x|Φ|y> = S(x)·S(y)/count! when x and y hold the same set of count
    distinct levels (so share a sector), and 0 otherwise.  S(x) is the sign
    of the permutation that sorts x's levels (_sorting_signs, Permutation's
    rule too), 0 when a level repeats: the one σ taking y to x has
    sgn(σ) = S(x)·S(y).  Integers until the division keep −0.0 out.
    """
    index = _weight_sectors(m, count)
    sign = _sorting_signs(index.digits)
    return sign[index.rows] * sign[index.cols] / math.factorial(count)


def antisym_projector(m: int, n: int) -> AntisymProjector:
    """Projector (1/n!) Σ_σ sgn(σ)·σ, scattered from its sector entries (_sign_entries).

    For n > m the antisymmetric space is trivial and the zero operator is
    returned.
    """
    if n < 1:
        raise ValueError("need at least one register")
    check_tensor_square(int(m), int(n), "antisymmetric projector")  # int: a numpy m**n wraps
    p = _weight_sectors(m, n).scatter(_sign_entries(m, n))
    trace = float(np.trace(p).real)
    if abs(trace - math.comb(m, n)) > TRACE_TOL:
        raise ArithmeticError(f"projector trace {trace!r} differs from C({m},{n})")
    return AntisymProjector(m, n, p)


def antisym_projector_from_basis(m: int, n: int) -> AntisymProjector:
    """Same projector assembled as Σ_ς |φ_ς><φ_ς| over the increasing-tuple basis."""
    dim = check_tensor_square(int(m), int(n), "antisymmetric projector")
    acc = np.zeros((dim, dim), dtype=complex)
    for tup in increasing_tuples(m, n):
        v = antisym_basis_vector(tup, m)
        acc += np.outer(v, v.conj())
    return AntisymProjector(m, n, acc)
