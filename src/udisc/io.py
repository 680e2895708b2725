"""Text file formats for state sets, density operators and POVMs.

All numbers are locale-independent decimal floats written with 17
significant digits, which round-trips IEEE doubles exactly.  Lines starting
with ``#`` are comments; blank lines are ignored.

state file      header ``states m n``, then n lines of m pairs ``re im``
density file    header ``rho d``, then d rows of d pairs ``re im``
povm file       header ``povm m n k`` with k = n+1, then for each element a
                line ``element i`` followed by m^(n+1) rows of m^(n+1)
                pairs ``re im`` (the dense layout)
sector file     header ``povm-sectors m n k`` with k = n+1, then for each
                element a line ``element i`` followed by m^(n+1) rows, row
                x holding the pairs (x, y) for the y of x's weight sector,
                in ascending y (the sector-row layout): the dense row with
                the pairs outside the sector deleted
commutant file  header ``povm-commutant m n k`` with k = n, then for each
                element i = 1..n a line ``element i`` followed by (n+1)!
                rows of one pair ``re im``, the coefficient a_σ of
                Π_i = Σ_σ a_σ P_σ, σ in antisym.all_permutations(n+1)
                order (the commutant layout); Π_0 = I − Σ_i Π_i has no block

write_povm writes a built or commutant POVM (discriminator.Povm) in the
commutant layout, a sector POVM in the sector-row layout and an explicit
one in the dense layout; read_povm reads each layout back into the form
it was written from, so writing what was read gives back the file's bytes
in every layout.  The
state and density writers refuse what their readers refuse, by the readers'
checks and before the file is opened, and write what the readers repair as
given; a Povm holds nothing read_povm refuses, as its constructor checks.

All are a header and blocks of rows, written and read by one codec, for
which row r of a block holds the numbers bounds[r] to bounds[r + 1]: a
dense block's rows are all one width (_dense_bounds), a sector-row block's
row x holds 2·|sector of x| numbers (_WeightSectors.row_bounds), a
commutant block's rows two numbers each; reader and writer take a POVM
file's blocks, which elements have one and their layout, from one place
(_povm_rows).  The writer takes each block's complex entries in file
order, a dense matrix, a sector POVM's weight-sector entries d_k or a built
or commutant POVM's coefficients, with no dense element, as the positions and bit patterns of their nonzero doubles (_numbers), and
turns its rows into text in chunks of at most WRITE_CHUNK numbers, each
distinct double formatted once with "%.17g" and +0.0 written "0"
(_block_text): beyond the nonzero doubles, its temporary memory is one
chunk, whatever the block size.

Files are read in text mode, where "\r\n" and "\r" line ends read as
newlines and a byte outside ASCII reads as U+FFFD, which float() refuses.
Each reader parses its header in _blocks, which refuses content after the
last block, and sizes every block against the dense-storage budget
(config.entry_cap) before any row is read; a POVM header's m^(n+1) is
refused before it is formed when it is far over
(config.check_tensor_square).  A POVM block is read in chunks of at most
WRITE_CHUNK numbers (_scan_block).  Every block, state, density or POVM,
is read row by row with float() (_scan_rows), which takes tabs, runs of
whitespace, comment and blank lines inside a block and float()'s
spellings ("1_0").  A bad token, a wrong count or a NaN or an
infinity is refused naming the file, the block and the row.  Each block's
numbers go into one array in the file's order.

The header word alone picks what a POVM file becomes.  A dense block is
one explicit element of m^(n+1) x m^(n+1) entries, within the budget.  A
sector-row block's numbers, viewed as complex, are its d_k as they stand,
since _WeightSectors.same is ascending in flat index.  The budget bounds
the element the header declares, which is never formed, and the reader
holds n+1 arrays of |same| entries and about one chunk.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from .antisym import _weight_sectors
from .config import check_entries, check_factorial, check_tensor_square
from .discriminator import Povm
from .errors import FormatError
from .tensor_algebra import NORM_TOL, all_finite, hermitize, max_abs, sorted_distinct

# read_states: a norm deviation above this (and at most NORM_TOL) is renormalized with a warning.
RENORMALIZE_WARN_TOL = 1e-9
# read_density: hermiticity and trace deviations up to this are repaired, beyond it rejected.
DENSITY_REPAIR_TOL = 1e-8


# Numbers turned into text, or read back, per chunk of rows (at least one row per chunk).
WRITE_CHUNK = 1 << 16


def _write_blocks(path, header: str, blocks) -> None:
    """Write a header line, then each (label or None, numbers) block as rows of "%.17g"
    pairs; numbers is what _block_text takes (_numbers).  A regular file is overwritten,
    then cut to what was written (ext4 flushes one truncated to zero at close)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for label, numbers in blocks:
            if label is not None:
                fh.write(label + "\n")
            fh.writelines(_block_text(*numbers))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _dense_bounds(rows: int, cols: int) -> np.ndarray:
    """The row bounds of a dense block of rows x cols complex pairs: row r holds numbers
    bounds[r] to bounds[r + 1], 2·cols of them."""
    return np.arange(rows + 1) * 2 * cols


def _numbers(entries, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's (bounds, at, bits) from its complex entries in file order (a dense matrix,
    or sector entries d_k), entry p holding numbers 2p and 2p + 1: the positions of
    its nonzero doubles, ascending, and their int64 bit patterns."""
    bits = np.ascontiguousarray(entries, dtype=complex).view(np.int64).ravel()
    at = np.flatnonzero(bits)
    return bounds, at, bits[at]


def _povm_rows(keyword: str, m: int, n: int) -> tuple[range, np.ndarray]:
    """The elements a POVM file holds a block for and the row bounds of each block, shared
    by reader and writer: a dense block (``povm``) holds an element's rows, a sector-row
    block (``povm-sectors``) the weight-sector entries d_k as they stand
    (_WeightSectors.row_bounds), and a commutant block (``povm-commutant``) one
    coefficient a_σ per row, (n+1)! rows.  Dense and sector-row files hold elements
    0..n; a commutant file holds 1..n, as element 0 is the remainder I − Σ_i Π_i.
    The m^(n+1) x m^(n+1) element is sized against the budget first
    (config.check_tensor_square), and a commutant file's n·(n+1)! coefficients
    before (n+1)! is formed (config.check_factorial)."""
    dim = check_tensor_square(m, n + 1, "POVM element")
    if keyword == "povm-commutant":
        return range(1, n + 1), _dense_bounds(check_factorial(n + 1, n, "permutation coefficients"), 1)
    if keyword == "povm":
        return range(n + 1), _dense_bounds(dim, dim)
    return range(n + 1), _weight_sectors(m, n + 1).row_bounds


def _chunks(bounds: np.ndarray) -> Iterator[tuple[int, int]]:
    """The (first, stop) row ranges of a block whose row r holds numbers bounds[r] to
    bounds[r + 1]: each as many rows as hold at most WRITE_CHUNK numbers, at least one."""
    first, rows = 0, len(bounds) - 1
    while first < rows:
        stop = max(first + 1, int(bounds.searchsorted(bounds[first] + WRITE_CHUNK, "right")) - 1)
        yield first, stop
        first = stop


def _block_text(bounds: np.ndarray, at: np.ndarray, bits: np.ndarray):
    """The rows of a block as text, in chunks (_chunks), each distinct double formatted once.

    Row r holds numbers bounds[r] to bounds[r + 1]; at and bits are the
    positions and int64 bit patterns of the block's nonzero doubles
    (_numbers), so -0.0, each NaN payload and each subnormal keeps its own
    entry and every other double is +0.0.  The distinct patterns
    (tensor_algebra.sorted_distinct) are formatted by one "%.17g" operation
    into a vocabulary of words that carry their trailing separator, a space
    or, at a row end, a newline; code 0 is "0 " and code 1 + len(distinct)
    is "0\n", for +0.0.  A chunk is joined from two
    pieces per nonzero number or row end: the run of zeros before it, and
    its word.  A built POVM's rows are mostly zeros in the dense layout, so
    a row costs a few pieces, and the work follows the nonzero numbers and
    the rows, not the block's size.
    """
    distinct = sorted_distinct(bits)
    formatted = ("%.17g\0" * len(distinct) % tuple(distinct.view(np.float64).tolist())).split("\0")
    words = np.array([word + sep for sep in " \n" for word in ["0", *formatted[:-1]]], dtype=object)
    codes = np.searchsorted(distinct, bits) + 1
    zero = np.array("0 ", dtype=object)
    for first, stop in _chunks(bounds):
        lo, hi = at.searchsorted(bounds[[first, stop]])
        ends = bounds[first + 1:stop + 1] - 1  # the last number of each row
        where = sorted_distinct(np.concatenate([at[lo:hi], ends]))
        code = np.zeros(len(where), dtype=np.intp)
        code[where.searchsorted(ends)] = len(distinct) + 1
        code[where.searchsorted(at[lo:hi])] += codes[lo:hi]
        before = np.empty_like(where)  # the number before each piece's run of zeros
        before[0], before[1:] = bounds[first] - 1, where[:-1]
        pieces = np.empty(2 * len(where), dtype=object)
        pieces[0::2] = zero * (where - before - 1)
        pieces[1::2] = words[code]
        yield "".join(pieces.tolist())


@contextmanager
def _blocks(path, keywords, fields: int, what: str):
    """Open path in text mode and parse its header ``keyword <fields positive ints>``,
    keyword one of keywords: yields (fh, keyword, fields) for the caller to read its
    blocks from fh, then refuses content after them ("content after the last {what} row")."""
    with open(path, encoding="ascii", errors="replace") as fh:
        line = _content_line(fh)
        if line is None:
            raise FormatError(f"{path}: empty file")
        parts = line.split()
        if len(parts) != fields + 1 or parts[0] not in keywords:
            ints = " ".join("<int>" for _ in range(fields))
            raise FormatError(f"{path}: expected header " + " or ".join(f"'{word} {ints}'" for word in keywords))
        try:
            values = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise FormatError(f"{path}: header fields must be integers") from exc
        if any(v < 1 for v in values):
            raise FormatError(f"{path}: header fields must be positive")
        yield fh, parts[0], values
        if _content_line(fh) is not None:
            raise FormatError(f"{path}: content after the last {what} row")


def _scan_rows(block: list[str], out: np.ndarray, bounds: np.ndarray, where: str, first: int = 0) -> None:
    """Fill out, whose row r is out[bounds[r]:bounds[r + 1]], from the lines of block with
    float(), row by row.

    The first row with the wrong number of tokens, or with a token float()
    refuses, raises a FormatError naming it (rows are numbered from first+1)
    and, for a wrong count, its pair count; then the first row holding a NaN
    or an infinity does.
    """
    bounds = bounds.tolist()
    for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        parts = block[r].split() if r < len(block) else []
        if len(parts) != hi - lo:
            raise FormatError(
                f"{where} row {first + r + 1} needs {(hi - lo) // 2} complex pairs ({hi - lo} numbers), "
                f"got {len(parts)}"
            )
        try:
            out[lo:hi] = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{where} row {first + r + 1} contains a non-numeric token") from exc
    _refuse_non_finite(out.view(complex), where, bounds, first)


def _content(fh, count: int) -> list[str]:
    """The next count lines of fh that are neither blank nor a comment, stripped (fewer at
    the end of the file)."""
    block = [s for s in map(str.strip, itertools.islice(fh, count)) if s and not s.startswith("#")]
    while len(block) < count and (line := _content_line(fh)) is not None:
        block.append(line)
    return block


def _content_line(fh) -> str | None:
    """The next line of fh that is neither blank nor a comment, stripped; None at the end."""
    for line in fh:
        line = line.strip()
        if line and not line.startswith("#"):
            return line
    return None


def _scan_block(fh, bounds: np.ndarray, where: str) -> np.ndarray:
    """The numbers of a POVM block whose row r holds numbers bounds[r] to bounds[r + 1], as
    one float64 array, read from the next content lines of fh in row chunks (_chunks):
    (re, im) pairs bit for bit, -0.0 included.

    A chunk holds at most WRITE_CHUNK numbers (at least one row), as the
    writer's do: its content lines (_content) go to _scan_rows, which writes
    its numbers in place with float() or names a bad row, so the reader's
    temporary memory is one chunk's lines, whatever the block size.
    """
    numbers = np.empty(bounds[-1])
    for first, stop in _chunks(bounds):
        rows = bounds[first:stop + 1] - bounds[first]
        _scan_rows(_content(fh, stop - first), numbers[bounds[first]:bounds[stop]], rows, where, first)
    return numbers


# ---------------------------------------------------------------------------
# state sets


def _matrix_block(block, where: str, square: bool) -> np.ndarray:
    """block as a complex array, refusing as the reader would one that is not a matrix with
    at least one row and one column, or (square) not a square one (FormatError naming
    where and the shape), and a NaN or an infinity (_refuse_non_finite)."""
    block = np.asarray(block, dtype=complex)
    if block.ndim != 2 or 0 in block.shape or square and block.shape[0] != block.shape[1]:
        expected = "d x d" if square else "n x m"
        raise FormatError(f"{where} of shape {block.shape}, expected {expected} with every size at least 1")
    _refuse_non_finite(block, where, _dense_bounds(*block.shape))
    return block


def write_states(path, states) -> None:
    """Write a state file; a shape other than n x m with n, m >= 1, a NaN or an infinity,
    and a norm read_states refuses are refused before the file is opened.  The states
    are written as given, not renormalized."""
    s = _matrix_block(states, f"{path}: state set", square=False)
    _state_norms(s, path)
    _write_blocks(path, f"states {s.shape[1]} {s.shape[0]}", [(None, _numbers(s, _dense_bounds(*s.shape)))])


def read_states(path) -> tuple[np.ndarray, list[str]]:
    """Parse a state file; near-unit states are renormalized.

    Returns (states, warnings).  Norm deviations above RENORMALIZE_WARN_TOL
    produce a warning, deviations above NORM_TOL are rejected (a zero row
    among them).
    """
    with _blocks(path, ("states",), 2, "state set") as (fh, _, (m, n)):
        check_entries(n * m, f"{n}x{m} state set")
        states = np.empty((n, m), dtype=complex)
        _scan_rows(_content(fh, n), states.view(float).reshape(-1), _dense_bounds(n, m), f"{path}: state set")
    norms = _state_norms(states, path)
    warnings = [f"state {i + 1} renormalized (norm deviation {abs(norm - 1.0):.3e})"
                for i, norm in enumerate(norms) if abs(norm - 1.0) > RENORMALIZE_WARN_TOL]
    return states / np.array(norms)[:, None], warnings


def _state_norms(states: np.ndarray, path) -> list[float]:
    """The norm of each state, refusing one more than NORM_TOL from 1 (a zero row among
    them): read_states' rule, which write_states applies before opening its file."""
    norms = [float(np.linalg.norm(row)) for row in states]
    for i, norm in enumerate(norms):
        if abs(norm - 1.0) > NORM_TOL:
            raise FormatError(f"{path}: state {i + 1} has norm {norm!r}, too far from 1")
    return norms


# ---------------------------------------------------------------------------
# density operators


def write_density(path, rho) -> None:
    """Write a density file; a shape other than d x d with d >= 1, a NaN or an infinity,
    and a deviation from hermiticity or unit trace that read_density refuses are refused
    before the file is opened.  rho is written as given, not repaired."""
    rho = _matrix_block(rho, f"{path}: density matrix", square=True)
    _repaired_density(rho, path)
    _write_blocks(path, f"rho {len(rho)}", [(None, _numbers(rho, _dense_bounds(*rho.shape)))])


def read_density(path) -> np.ndarray:
    """Parse a density file, validating hermiticity and unit trace.

    Deviations up to DENSITY_REPAIR_TOL (hand-typed rounding) are repaired by
    symmetrizing and rescaling; anything beyond is rejected.
    """
    with _blocks(path, ("rho",), 1, "density matrix") as (fh, _, (d,)):
        check_entries(d * d, f"{d}x{d} density matrix")
        rho = np.empty((d, d), dtype=complex)
        _scan_rows(_content(fh, d), rho.view(float).reshape(-1), _dense_bounds(d, d), f"{path}: density matrix")
    return _repaired_density(rho, path)


def _repaired_density(rho: np.ndarray, path) -> np.ndarray:
    """rho symmetrized and rescaled to unit trace, refusing a deviation from hermiticity or
    from unit trace beyond DENSITY_REPAIR_TOL: read_density's rule, which write_density
    applies before opening its file."""
    herm_dev = max_abs(rho - rho.conj().T)
    if herm_dev > DENSITY_REPAIR_TOL:
        raise FormatError(f"{path}: matrix is not Hermitian (deviation {herm_dev:.3e})")
    rho = hermitize(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_REPAIR_TOL:
        raise FormatError(f"{path}: trace is {tr!r}, expected 1")
    return rho / tr


# ---------------------------------------------------------------------------
# POVMs


def write_povm(path, povm: Povm) -> None:
    """Write a POVM file.  Its layout and finiteness were checked when the Povm was made,
    and its elements are sized against the budget in force here as the reader sizes them
    from the header (_povm_rows), so read_povm refuses nothing it writes.

    A built or commutant POVM is written in the commutant layout (header
    ``povm-commutant``, n blocks) from its permutation coefficients, with no
    sector entry and no dense element, sized before a built family's
    coefficients are formed.  A sector POVM
    is written in the sector-row layout (header ``povm-sectors``) from its
    d_k as they stand, and an explicit one in the dense layout (header
    ``povm``).  read_povm gives back each representation, so
    write_povm(path, read_povm(path)) rewrites a file written by write_povm
    byte for byte.  Library code that wants a sector-row or dense file of a
    built POVM writes Povm(m, n, sectors=povm._sectors) or
    Povm(m, n, elements=povm.elements).
    """
    keyword = "povm" if povm._explicit else "povm-commutant" if povm._entries is None else "povm-sectors"
    elements, bounds = _povm_rows(keyword, povm.m, povm.n)  # before a built family's coefficients
    if keyword == "povm-commutant":
        blocks = povm._coefficients
    else:
        blocks = povm.elements if povm._explicit else povm._entries
    _write_blocks(path, f"{keyword} {povm.m} {povm.n} {len(elements)}",
                  ((f"element {i}", _numbers(b, bounds)) for i, b in zip(elements, blocks)))


def _refuse_non_finite(block, where: str, bounds, first: int = 0) -> None:
    """Refuse a block of complex entries holding a NaN or an infinity, for the readers and
    the state and density writers: FormatError naming the first row that holds one, row r
    (numbered from first+1) holding the numbers bounds[r] to bounds[r + 1]."""
    if all_finite(block):
        return
    parts = np.ascontiguousarray(block, dtype=complex).view(np.float64).ravel()
    row = np.searchsorted(bounds, np.argmin(np.isfinite(parts)), "right")
    raise FormatError(f"{where} row {first + row} holds a non-finite number")


def read_povm(path) -> Povm:
    """Parse a POVM file: a dense file (header ``povm``) gives an explicit POVM, a
    sector-row file (header ``povm-sectors``) a sector POVM (Povm, sectors=...) and a
    commutant file (header ``povm-commutant``) a commutant POVM (Povm, coefficients=...).

    The element size m^(n+1) x m^(n+1) is checked against the budget (after
    config.check_tensor_square), and so are a commutant file's n·(n+1)!
    coefficients, before (n+1)! is formed (config.check_factorial); then a
    header whose block count k is not n+1 (n for a commutant file, whose
    element 0 is the remainder and has no block) is refused (_povm_rows), all
    before any row is read, in every layout.  Each block is read in row chunks
    (_scan_block).  A dense file holds n+1 dense elements, each within the
    budget; the checks still take the sector route on them when they are
    zero outside their weight sectors (Povm._sectors).  A sector-row block's
    numbers, viewed as complex, are its sector entries d_k, and a commutant
    block's its coefficients: the budget bounds an element that is never
    formed.
    """
    keywords = ("povm", "povm-sectors", "povm-commutant")
    with _blocks(path, keywords, 3, "POVM element") as (fh, keyword, (m, n, k)):
        elements, bounds = _povm_rows(keyword, m, n)
        if k != len(elements):
            raise FormatError(f"{path}: {keyword} header declares {k} elements; a POVM on n={n} states has "
                              f"n+1 = {n + 1} elements, and a {keyword} file holds {len(elements)} of them, "
                              f"element {elements[0]} to element {n}")
        blocks = []
        for label in (f"element {i}" for i in elements):  # each block's entries in file order
            line = _content_line(fh) or ""
            if line.split() != label.split():
                raise FormatError(f"{path}: expected {label!r}, got {line!r}")
            blocks.append(_scan_block(fh, bounds, f"{path}: {label}").view(complex))
    if keyword == "povm":
        return Povm(m, n, elements=[b.reshape(len(bounds) - 1, -1) for b in blocks])
    if keyword == "povm-commutant":
        return Povm(m, n, coefficients=blocks)
    return Povm(m, n, sectors=blocks)
