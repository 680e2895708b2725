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

write_povm writes a built or sector POVM (discriminator.Povm) in the
sector-row layout and an explicit one in the dense layout; read_povm reads
a sector-row file into a sector POVM and a dense file into an explicit one,
so writing what was read gives back the file's bytes in either layout.  The
writers refuse a NaN or an infinity, which the readers refuse, before the
file is opened.

All are a header and blocks of rows, written and read by one codec, for
which row r of a block holds the numbers bounds[r] to bounds[r + 1]: a
dense block's rows are all one width, a sector-row block's row x holds
2·|sector of x| numbers (_sector_rows).  The writer takes each block as the
positions and bit patterns of its nonzero doubles: a dense block gives them
from its nonzero mask, and a built or sector POVM from its weight-sector
entries in row-major order, with no dense element.  It formats each
distinct double of a block once, with "%.17g", and writes every row from
that vocabulary; +0.0 is written "0", so a row is its runs of zeros and a
few words.  Rows are turned into text in chunks of at most WRITE_CHUNK
numbers, so beyond the nonzero doubles and their vocabulary the writer's
temporary memory is one chunk, whatever the block size.

Files are read in text mode, where "\r\n" and "\r" line ends read as
newlines and a byte outside ASCII reads as U+FFFD, which float() refuses.
Every block the header declares is sized against the dense-storage budget
(config.entry_cap) before any row is read; a POVM header's m^(n+1) is
refused before it is formed when it is far over
(config.check_tensor_square), on either layout.  A POVM block is read in
chunks of at most WRITE_CHUNK numbers, as it was written, each chunk's
lines joined and encoded into one bytes object.  A chunk in the writer's
layout (one space between tokens, one newline after each row) is scanned
as bytes with numpy: a token that is the one byte "0" is +0.0 and is not
parsed, and each distinct other token is parsed once by float().  Any
other chunk (tabs, runs of spaces, a comment or blank line inside the
block, a wrong token count, a token float() refuses) is read row by row
with float(), which names the bad row and accepts float()'s spellings
("1_0").  Each block's numbers go into one array in the file's order.  A
state or density block, a few rows of distinct numbers, takes that
row-by-row scan.  A NaN or an infinity is refused where it is read,
naming the file, the block and the row.

The header word alone picks what a POVM file becomes.  A dense block is
one explicit element of m^(n+1) x m^(n+1) entries, within the budget.  A
sector-row block holds only weight-sector entries, which go into its d_k as
soon as the block is read: the budget bounds the element the header
declares, which is never formed, and the reader holds n+1 arrays of |same|
entries plus one block's numbers and about one chunk.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import cache, partial

import numpy as np

from .antisym import _weight_sectors
from .config import check_entries, check_tensor_square
from .discriminator import Povm
from .errors import FormatError
from .tensor_algebra import NORM_TOL, max_abs, sorted_distinct

# read_states: a norm deviation above this (and at most NORM_TOL) is renormalized with a warning.
RENORMALIZE_WARN_TOL = 1e-9
# read_density: hermiticity and trace deviations up to this are repaired, beyond it rejected.
DENSITY_REPAIR_TOL = 1e-8


# Numbers turned into text, or read back, per chunk of rows (at least one row per chunk).
WRITE_CHUNK = 1 << 16


def _write_blocks(path, header: str, blocks) -> None:
    """Write a header line, then each (label or None, numbers) block as rows of "%.17g"
    pairs; numbers is what _block_text takes (_dense_numbers, _sector_numbers)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for label, numbers in blocks:
            if label is not None:
                fh.write(label + "\n")
            fh.writelines(_block_text(*numbers))


def _dense_numbers(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's (bounds, at, bits) in the dense layout: its rows x width (re, im) doubles,
    row r holding numbers r·width to (r + 1)·width, the positions row·width + column of
    the nonzero ones, ascending, and their int64 bit patterns."""
    bits = np.ascontiguousarray(matrix, dtype=complex).view(np.int64)
    at = np.flatnonzero(bits)
    rows, width = bits.shape
    return np.arange(rows + 1) * width, at, bits.ravel()[at]


@cache
def _sector_rows(m: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The sector-row layout of count registers of dimension m, as (order, bounds): d[order]
    lists the sector entries d row after row, row x holding (x, y) for the y of x's
    sector in ascending y, which is the order of _weight_sectors(m, count).same by flat
    index, and row x holds numbers bounds[x] to bounds[x + 1], 2·|sector of x| of them.
    The codec's one copy of the layout, built once per (m, count), read-only."""
    index = _weight_sectors(m, count)
    dim = len(index.digits)
    order = np.argsort(index.same)
    bounds = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(2 * np.bincount(index.rows, minlength=dim), out=bounds[1:])
    order.setflags(write=False)
    bounds.setflags(write=False)
    return order, bounds


def _sector_numbers(m: int, count: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_dense_numbers's (bounds, at, bits) of the sector-row block of the weight-sector
    entries d: the entry at place p of the rows (_sector_rows) holds numbers 2p, 2p + 1."""
    order, bounds = _sector_rows(m, count)
    bits = d[order].view(np.int64)
    at = np.flatnonzero(bits)
    return bounds, at, bits[at]


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
    (_dense_numbers, _sector_numbers), so -0.0, each NaN payload and each
    subnormal keeps its own entry and every other double is +0.0.  The
    distinct patterns (tensor_algebra.sorted_distinct) are formatted by one
    "%.17g" operation into a vocabulary of words that carry their trailing
    separator, a space or, at a row end, a newline; code 0 is "0 " and
    code 1 + len(distinct) is "0\n", for +0.0.  A chunk is joined from two
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


def _parse_header(line: str | None, keywords, fields: int, path) -> tuple[str, list[int]]:
    """(keyword, fields) of a header ``keyword <fields positive ints>``, keyword one of keywords."""
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
    return parts[0], values


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
    finite = np.isfinite(out)
    if not finite.all():
        row = np.searchsorted(bounds, np.argmin(finite), "right")
        raise FormatError(f"{where} row {first + row} holds a non-finite number")


def _content(fh, count: int, text: str | None = None) -> list[str]:
    """The next count lines of fh that are neither blank nor a comment, stripped (fewer at
    the end of the file): those of text, the count lines a chunk took, topped up."""
    if text is None:
        text = "".join(itertools.islice(fh, count))
    block = [s for s in map(str.strip, text.split("\n")) if s and not s.startswith("#")]
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
    writer's do: its lines, after a newline, are joined and encoded into one
    bytes object.  A chunk in the writer's layout is parsed by _scan_chunk,
    whose tokens other than "0" are put at their places.  Any other chunk
    (other whitespace, a comment or blank line, a wrong token count, a token
    float() refuses) has its comment and blank lines dropped, is topped up
    to its row count from the content lines that follow, and goes to
    _scan_rows, which writes its numbers in place or names a bad row.
    """
    numbers = np.zeros(bounds[-1])
    for first, stop in _chunks(bounds):
        rows = bounds[first:stop + 1] - bounds[first]
        chunk = numbers[bounds[first]:bounds[stop]]
        buf = "".join(itertools.chain("\n", itertools.islice(fh, stop - first))).encode()
        parsed = _scan_chunk(buf, rows)
        if parsed is None:
            _scan_rows(_content(fh, stop - first, buf.decode()), chunk, rows, where, first)
        else:
            tokens, values = parsed
            chunk[tokens] = values
    return numbers


def _scan_chunk(buf: bytes, bounds: np.ndarray):
    """Parse buf, a newline and then a chunk's lines, if it is in the writer's layout:
    (tokens, values) of the tokens other than "0", else None.

    The bytes are taken as a uint8 view, with no copy; spaces and newlines
    are the separators.  The writer's layout is one line per row, row r of
    bounds[r + 1] − bounds[r] tokens, one space between two tokens and a
    newline after the last: there are len(bounds) newlines, the last byte
    is one, and no separator follows another.  A token that is the one byte
    "0" (a "0" between separators) is +0.0 and is left out.  The other
    tokens are found by their bounds, the separators before and after them
    (one result per such token), so the work beyond a few passes over the
    bytes follows those tokens only.  Every token before a separator at p is
    one "0" byte or one of the other tokens, each with its separator, so
    (p − their bytes)/2 + their count tokens lie before p: that numbers
    token k as (begin_k − Σ_{j<k} (length_j + 1))/2 + k, and the newline
    ending row r must follow exactly bounds[r + 1] tokens.  Each distinct
    other token is parsed once by float() on its bytes, which gives what
    float() gives _scan_rows on its text, or refuses it.  Returns None when
    the chunk is in another layout, or float() refuses a token or gives a
    NaN or an infinity.
    """
    u = np.frombuffer(buf, np.uint8)
    sep = u == ord("\n")
    lines = sep.nonzero()[0]
    if len(lines) != len(bounds) or lines[-1] != len(u) - 1:
        return None
    sep |= u == ord(" ")
    if (sep[1:] & sep[:-1]).any():
        return None
    lone = u[1:-1] == ord("0")  # at p: byte p + 1 is the token "0"
    lone &= sep[:-2]
    lone &= sep[2:]
    begin = (sep[:-2] > lone).nonzero()[0]  # the separator before each other token
    after = (sep[2:] > lone).nonzero()[0] + 2  # and the one after it
    del sep, lone
    units = np.zeros(len(begin) + 1, dtype=np.int64)  # bytes of the other tokens before each
    np.cumsum(after - begin, out=units[1:])
    ahead = begin.searchsorted(lines)
    if ((lines - units[ahead]) // 2 + ahead != bounds).any():
        return None  # a row of another length
    keys = [buf[a:b] for a, b in zip((begin + 1).tolist(), after.tolist())]
    vocabulary = dict.fromkeys(keys)
    try:
        for key in vocabulary:
            vocabulary[key] = float(key)
    except ValueError:
        return None
    values = np.fromiter(map(vocabulary.__getitem__, keys), np.float64, len(keys))
    if not np.isfinite(values).all():
        return None  # _scan_rows names the row
    return (begin - units[:-1]) // 2 + np.arange(len(begin)), values


def _read_blocks(path, layouts: dict, fields: int) -> tuple[str, list[int], list]:
    """Parse a header ``keyword <fields positive ints>``, keyword one of layouts' keys, and
    the blocks it declares: (keyword, fields, blocks).

    ``layouts[keyword](*header)`` sizes the blocks against the budget and
    returns (labels, what, read): one block per label, led by the label line
    unless the label is None, which read(fh, where) reads from the file, open
    in text mode, into what the returned list holds for it.
    """
    with open(path, encoding="ascii", errors="replace") as fh:
        keyword, header = _parse_header(_content_line(fh), layouts, fields, path)
        labels, what, read = layouts[keyword](*header)
        blocks = []
        for label in labels:
            if label is not None:
                line = _content_line(fh) or ""
                if line.split() != label.split():
                    raise FormatError(f"{path}: expected {label!r}, got {line!r}")
            where = f"{path}: {what if label is None else label}"
            blocks.append(read(fh, where))
        if _content_line(fh) is not None:
            raise FormatError(f"{path}: content after the last {what} row")
    return keyword, header, blocks


def _row_layout(rows: int, cols: int, what: str):
    """The _read_blocks layout of one block of rows x cols complex pairs, checked against
    the budget before anything of that size is formed, read as a complex array from its
    next rows content lines by _scan_rows: a state or density block is a few rows of
    distinct numbers, which _scan_block's fixed numpy cost reads about twice as slowly."""
    check_entries(rows * cols, f"{rows}x{cols} {what}")

    def read(fh, where: str) -> np.ndarray:
        values = np.empty((rows, 2 * cols))
        _scan_rows(_content(fh, rows), values.reshape(-1), np.arange(rows + 1) * 2 * cols, where)
        return values.view(complex)

    return [None], what, read


# ---------------------------------------------------------------------------
# state sets


def write_states(path, states) -> None:
    """Write a state file; a NaN or an infinity is refused before the file is opened."""
    s = np.asarray(states, dtype=complex)
    _refuse_non_finite(s, f"{path}: state set")
    _write_blocks(path, f"states {s.shape[1]} {s.shape[0]}", [(None, _dense_numbers(s))])


def read_states(path) -> tuple[np.ndarray, list[str]]:
    """Parse a state file; near-unit states are renormalized.

    Returns (states, warnings).  Norm deviations above RENORMALIZE_WARN_TOL
    produce a warning, deviations above NORM_TOL are rejected (a zero row
    among them).
    """
    _, (m, n), (states,) = _read_blocks(path, {"states": lambda m, n: _row_layout(n, m, "state set")}, 2)
    warnings = []
    for i in range(n):
        norm = float(np.linalg.norm(states[i]))
        deviation = abs(norm - 1.0)
        if deviation > NORM_TOL:
            raise FormatError(f"{path}: state {i + 1} has norm {norm!r}, too far from 1")
        if deviation > RENORMALIZE_WARN_TOL:
            warnings.append(f"state {i + 1} renormalized (norm deviation {deviation:.3e})")
        states[i] = states[i] / norm
    return states, warnings


# ---------------------------------------------------------------------------
# density operators


def write_density(path, rho) -> None:
    """Write a density file; a NaN or an infinity is refused before the file is opened."""
    rho = np.asarray(rho, dtype=complex)
    _refuse_non_finite(rho, f"{path}: density matrix")
    _write_blocks(path, f"rho {len(rho)}", [(None, _dense_numbers(rho))])


def read_density(path) -> np.ndarray:
    """Parse a density file, validating hermiticity and unit trace.

    Deviations up to DENSITY_REPAIR_TOL (hand-typed rounding) are repaired by
    symmetrizing and rescaling; anything beyond is rejected.
    """
    _, _, (rho,) = _read_blocks(path, {"rho": lambda d: _row_layout(d, d, "density matrix")}, 1)
    herm_dev = max_abs(rho - rho.conj().T)
    if herm_dev > DENSITY_REPAIR_TOL:
        raise FormatError(f"{path}: matrix is not Hermitian (deviation {herm_dev:.3e})")
    rho = (rho + rho.conj().T) / 2
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_REPAIR_TOL:
        raise FormatError(f"{path}: trace is {tr!r}, expected 1")
    return rho / tr


# ---------------------------------------------------------------------------
# POVMs


def write_povm(path, povm: Povm) -> None:
    """Write a POVM file; what read_povm would refuse is refused before the file is opened:
    an element count other than n+1, and a NaN or an infinity, named by its block and row.

    A built or sector POVM is written in the sector-row layout (header
    ``povm-sectors``) from its weight-sector entries (_sector_numbers), with
    no dense element; its elements are sized against the budget first, as
    the reader sizes them from the header.  An explicit POVM is written in
    the dense layout (header ``povm``).  read_povm gives back each
    representation, so write_povm(path, read_povm(path)) rewrites a file
    written by write_povm byte for byte.  Library code that wants a dense
    file of a built POVM writes Povm(m, n, elements=povm.elements).
    """
    m, n = povm.m, povm.n
    if povm._explicit:
        keyword, k, blocks, rows = "povm", len(povm.elements), povm.elements, None
    else:
        # sized against the budget before the layout is formed
        keyword, k, blocks, rows = "povm-sectors", n + 1, povm._sectors, _weight_sectors(m, n + 1).rows
    labels = list(_povm_labels(n, k))
    for label, block in zip(labels, blocks):
        _refuse_non_finite(block, f"{path}: {label}", rows)
    numbers = (_dense_numbers(b) if rows is None else _sector_numbers(m, n + 1, b) for b in blocks)
    _write_blocks(path, f"{keyword} {m} {n} {k}", zip(labels, numbers))


def _refuse_non_finite(block, where: str, rows: np.ndarray | None = None) -> None:
    """Refuse, as the reader would, a block holding a NaN or an infinity: FormatError naming
    the first row that holds one, row r + 1 for the entries of block[r], or for sector
    entries d (rows given, _WeightSectors.rows) for the entries d[p] with rows[p] = r."""
    block = np.ascontiguousarray(block, dtype=complex)
    parts = block.view(np.float64)
    if not parts.size or math.isfinite(parts.min()) and math.isfinite(parts.max()):  # no temporary
        return
    bad = ~np.isfinite(block)
    row = np.nonzero(bad)[0].min() if rows is None else rows[bad].min()
    raise FormatError(f"{where} row {row + 1} holds a non-finite number")


def _povm_labels(n: int, k: int) -> Iterator[str]:
    """The k element labels, one at a time, once a count other than n+1 is refused."""
    if k != n + 1:
        raise FormatError(
            f"povm header declares {k} elements; a POVM on n={n} states has n+1 = {n + 1}"
        )
    return (f"element {i}" for i in range(k))


def _povm_layout(m: int, n: int, k: int, sector_rows: bool = False):
    """The _read_blocks layout of a POVM header, each block read by _scan_block: the dense
    layout's complex elements, or with sector_rows each block's weight-sector entries
    d_k, scattered from its numbers through _sector_rows' order as soon as it is read."""
    labels = _povm_labels(n, k)
    dim = check_tensor_square(m, n + 1, "POVM element")  # refused before m**(n+1) is formed
    if not sector_rows:
        bounds = np.arange(dim + 1) * 2 * dim
        return labels, "POVM element", lambda fh, where: (
            _scan_block(fh, bounds, where).view(complex).reshape(dim, dim))
    order, bounds = _sector_rows(m, n + 1)

    def entries(fh, where: str) -> np.ndarray:
        numbers = _scan_block(fh, bounds, where)  # its chunk's temporaries freed before d
        d = np.empty(len(order), dtype=complex)
        d[order] = numbers.view(complex)
        return d

    return labels, "POVM element", entries


def read_povm(path) -> Povm:
    """Parse a POVM file: a dense file (header ``povm``) gives an explicit POVM, a
    sector-row file (header ``povm-sectors``) a sector POVM (Povm, sectors=...).

    A header whose element count k is not n+1 is refused, and the element
    size m^(n+1) x m^(n+1) is checked against the budget (after
    config.check_tensor_square), before any row is read, in either layout.
    Each block is read in row chunks (_scan_block).  A dense file holds n+1
    dense elements, each within the budget; the checks still take the
    sector route on them when they are zero outside their weight sectors
    (Povm._sectors).  A sector-row block goes into its sector entries d_k as
    soon as it is read: the budget bounds an element that is never formed,
    and the reader holds n+1 arrays of |same| complex entries and one
    block's numbers, far less than the budget allows.
    """
    layouts = {"povm": _povm_layout, "povm-sectors": partial(_povm_layout, sector_rows=True)}
    keyword, (m, n, _), blocks = _read_blocks(path, layouts, 3)
    if keyword == "povm":
        return Povm(m, n, elements=blocks)
    return Povm(m, n, sectors=blocks)
