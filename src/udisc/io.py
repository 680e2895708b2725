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
both.

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

Files are read in binary mode, in blocks of bytes; "\r\n" and "\r" line
ends count as newlines.  Every block the header declares is sized against
the dense-storage budget (config.entry_cap) before any row is read; a POVM
header's m^(n+1) is refused before it is formed when it is far over
(config.check_tensor_square), on either layout.  A POVM block is read in
chunks of at most WRITE_CHUNK numbers, as it was written, cut from the
buffer at newlines.  A chunk in the writer's layout (one space between
tokens, one newline after each row) is scanned as bytes with numpy: a token
that is the one byte "0" is +0.0 and is not parsed, and each distinct other
token is parsed once by float().  Any other chunk (tabs, runs of spaces, a
comment or blank line inside the block, a wrong token count, a token
float() refuses) is read row by row with float(), which names the bad row
and accepts float()'s spellings ("1_0").  A state or density block, a few
rows of distinct numbers, takes that row-by-row scan.  A NaN or an infinity
is refused where it is read, naming the file, the block and the row.

A sector-row block holds only weight-sector entries, so its numbers go
straight into the sector entries d_k, with no dense fallback: the budget
bounds the m^(n+1) x m^(n+1) element the header declares, which is never
formed, and the reader holds n+1 arrays of |same| entries plus one block's
numbers and about one chunk.  In a dense block each nonzero number is
mapped to its flat pair and to that pair's position in the weight-sector
index.  While every one lies on a same-sector pair, read_povm keeps only
the sector entries d_k, as on the sector-row layout.  At the first nonzero
number outside the sectors, what has been read is scattered into dense
elements and the file is finished on the dense route, which holds n+1
elements of m^(n+1) x m^(n+1) entries, each within the budget.
"""

from __future__ import annotations

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


def _write_blocks(path, header: str, blocks, comment: str | None = None) -> None:
    """Write a header line, then each (label or None, numbers) block as rows of "%.17g"
    pairs; numbers is what _block_text takes (_dense_numbers, _sector_numbers)."""
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            fh.write(f"# {comment}\n")
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
    sector in ascending y (_WeightSectors.row_major), and row x holds numbers bounds[x]
    to bounds[x + 1], 2·|sector of x| of them.  Built once per (m, count), read-only."""
    index = _weight_sectors(m, count)
    dim = len(index.digits)
    bounds = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(2 * np.bincount(index.rows, minlength=dim), out=bounds[1:])
    bounds.setflags(write=False)
    return index.row_major, bounds


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


class _Lines:
    """The lines of a file opened in binary mode, read into one buffer 8 KiB at first and
    twice as much each time after, up to 2·WRITE_CHUNK bytes when that is more (a small
    state or density file takes one small read), with "\r\n" and "\r" taken as "\n" as
    text mode takes them, and a newline supplied after a last line that lacks one."""

    def __init__(self, fh):
        self.fh = fh
        self.buf = b"\n"  # the newline before the first line
        self.pos = 0  # the newline before the next line
        self.size = 1 << 13

    def _read(self) -> bool:
        """Drop the buffer before pos and append the next read; False at the end of the file."""
        data = self.fh.read(self.size)
        self.size = max(self.size, min(2 * self.size, 2 * WRITE_CHUNK))
        while data.endswith(b"\r") and (more := self.fh.read(1)):
            data += more
        if not data:
            if self.buf.endswith(b"\n"):
                return False
            data = b"\n"
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self.buf = b"".join((memoryview(self.buf)[self.pos:], data))  # one copy
        self.pos = 0
        return True

    def take(self, count: int) -> tuple[bytes, int, int]:
        """The next count lines, or as many as are left: (buf, start, end) with buf[start]
        the newline before them and buf[end] the newline that ends the last (end = start
        when none is left)."""
        end = self.pos
        while True:
            find = self.buf.find
            for count in range(count, 0, -1):  # the lines still to find
                found = find(b"\n", end + 1)
                if found < 0:
                    break
                end = found
            else:
                break
            shift = self.pos
            if not self._read():
                break
            end -= shift
        start, self.pos = self.pos, end
        return self.buf, start, end

    def content(self, count: int, taken: tuple[bytes, int, int] | None = None) -> list[str]:
        """The next count lines that are neither blank nor a comment, stripped (fewer at
        the end of the file): those of taken, the count lines take gave, topped up."""
        buf, start, end = self.take(count) if taken is None else taken
        raw = buf[start + 1:end].decode("ascii", "replace").split("\n")
        block = [s for s in map(str.strip, raw) if s and not s.startswith("#")]
        while len(block) < count and (line := self.content_line()) is not None:
            block.append(line)
        return block

    def content_line(self) -> str | None:
        """The next line that is neither blank nor a comment, stripped; None at the end."""
        while True:
            buf, start, end = self.take(1)
            if start == end:
                return None
            line = buf[start + 1:end].decode("ascii", "replace").strip()
            if line and not line.startswith("#"):
                return line


def _read_rows(lines: _Lines, rows: int, cols: int, where: str) -> np.ndarray:
    """A block as a rows x cols complex array, from its next rows content lines, by
    _scan_rows: (re, im) pairs bit for bit, -0.0 included."""
    values = np.empty((rows, 2 * cols))
    _scan_rows(lines.content(rows), values.reshape(-1), np.arange(rows + 1) * 2 * cols, where)
    return values.view(complex)


def _scan_block(lines: _Lines, bounds: np.ndarray, where: str):
    """Yield (tokens, values) for each row chunk (_chunks) of a POVM block whose row r holds
    numbers bounds[r] to bounds[r + 1]: the numbers of the chunk, numbered in the block,
    that are not the token "0", and their doubles (the +0.0 of a token such as "0.0"
    among them).

    A chunk holds at most WRITE_CHUNK numbers (at least one row), as the
    writer's do.  A chunk in the writer's layout is parsed by _scan_chunk.
    Any other chunk (other whitespace, a comment or blank line, a wrong
    token count, a token float() refuses) has its comment and blank lines
    dropped, is topped up to its row count from the content lines that
    follow, and goes to _scan_rows, which names a bad row; its tokens are
    then its nonzero doubles, -0.0 included.
    """
    for first, stop in _chunks(bounds):
        rows = bounds[first:stop + 1] - bounds[first]
        taken = lines.take(stop - first)
        parsed = _scan_chunk(*taken, rows)
        if parsed is None:
            chunk = np.empty(rows[-1])
            _scan_rows(lines.content(stop - first, taken), chunk, rows, where, first)
            tokens = np.flatnonzero(chunk.view(np.int64))
            parsed = tokens, chunk[tokens]
        tokens, values = parsed
        yield tokens + bounds[first], values


def _scan_chunk(buf: bytes, start: int, end: int, bounds: np.ndarray):
    """Parse buf[start:end + 1], a newline and then a chunk's lines, if it is in the
    writer's layout: (tokens, values) of the tokens other than "0", else None.

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
    u = np.frombuffer(buf, np.uint8, end + 1 - start, start)
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
    keys = [buf[a:b] for a, b in zip((begin + (start + 1)).tolist(), (after + start).tolist())]
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


def _read_blocks(path, layouts: dict, fields: int, read=_read_rows) -> tuple[list[int], list]:
    """Parse a header ``keyword <fields positive ints>``, keyword one of layouts' keys, and
    the blocks it declares.

    ``layouts[keyword](*header)`` returns (labels, rows, cols, what): one
    block of rows x cols complex pairs per label, led by the label line
    unless the label is None.  The blocks share one size, which is checked
    against the budget before any row is read.  ``read(lines, rows, cols,
    where)`` reads each block from the _Lines of the file and gives what the
    returned list holds: by default the block as a rows x cols complex array
    (_read_rows, for state and density files, a few small rows of distinct
    numbers).
    """
    with open(path, "rb") as fh:
        lines = _Lines(fh)
        keyword, header = _parse_header(lines.content_line(), layouts, fields, path)
        labels, rows, cols, what = layouts[keyword](*header)
        check_entries(rows * cols, f"{rows}x{cols} {what}")
        blocks = []
        for label in labels:
            if label is not None:
                line = lines.content_line() or ""
                if line.split() != label.split():
                    raise FormatError(f"{path}: expected {label!r}, got {line!r}")
            where = f"{path}: {what if label is None else label}"
            blocks.append(read(lines, rows, cols, where))
        if lines.content_line() is not None:
            raise FormatError(f"{path}: content after the last {what} row")
    return header, blocks


# ---------------------------------------------------------------------------
# state sets


def write_states(path, states, comment: str | None = None) -> None:
    s = np.asarray(states, dtype=complex)
    _write_blocks(path, f"states {s.shape[1]} {s.shape[0]}", [(None, _dense_numbers(s))], comment)


def read_states(path) -> tuple[np.ndarray, list[str]]:
    """Parse a state file; near-unit states are renormalized.

    Returns (states, warnings).  Norm deviations above RENORMALIZE_WARN_TOL
    produce a warning, deviations above NORM_TOL are rejected (a zero row
    among them).
    """
    (m, n), (states,) = _read_blocks(path, {"states": lambda m, n: ([None], n, m, "state set")}, 2)
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


def write_density(path, rho, comment: str | None = None) -> None:
    _write_blocks(path, f"rho {len(rho)}", [(None, _dense_numbers(rho))], comment)


def read_density(path) -> np.ndarray:
    """Parse a density file, validating hermiticity and unit trace.

    Deviations up to DENSITY_REPAIR_TOL (hand-typed rounding) are repaired by
    symmetrizing and rescaling; anything beyond is rejected.
    """
    _, (rho,) = _read_blocks(path, {"rho": lambda d: ([None], d, d, "density matrix")}, 1)
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
    """Write a POVM file; a count other than n+1 is refused, as read_povm refuses it.

    A built or sector POVM is written in the sector-row layout (header
    ``povm-sectors``) from its weight-sector entries (_sector_numbers), with
    no dense element; its elements are sized against the budget before the
    file is opened, as the reader sizes them from the header.  An explicit
    POVM is written in the dense layout (header ``povm``), its count checked
    before the file is opened.  Library code that wants a dense file of a
    built POVM writes Povm(m, n, elements=povm.elements).
    """
    m, n = povm.m, povm.n
    if povm._explicit:
        keyword, k = "povm", len(povm.elements)
        blocks = map(_dense_numbers, povm.elements)
    else:
        keyword, k = "povm-sectors", n + 1
        sectors = povm._sectors  # sized against the budget before the layout is formed
        blocks = (_sector_numbers(m, n + 1, d) for d in sectors)
    _write_blocks(path, f"{keyword} {m} {n} {k}", zip(_povm_labels(n, k), blocks))


def _povm_labels(n: int, k: int) -> Iterator[str]:
    """The k element labels, made one at a time as the blocks are read or written."""
    if k != n + 1:
        raise FormatError(
            f"povm header declares {k} elements; a POVM on n={n} states has n+1 = {n + 1}"
        )
    return (f"element {i}" for i in range(k))


class _PovmBlocks:
    """The elements of a POVM file, block by block: the layout its header declares, and
    each block kept as weight-sector entries (complex arrays on _weight_sectors(m,
    n+1).same) or, from the first nonzero number of a dense block outside the sectors,
    as dense blocks of (re, im) doubles."""

    def layouts(self) -> dict:
        """The layout of each POVM header word, for _read_blocks."""
        return {"povm": partial(self._layout, False), "povm-sectors": partial(self._layout, True)}

    def _layout(self, sector_rows: bool, m: int, n: int, k: int):
        labels = _povm_labels(n, k)
        dim = check_tensor_square(m, n + 1, "POVM element")  # refused before m**(n+1) is formed
        self.m, self.n, self.index = m, n, _weight_sectors(m, n + 1)
        self.rows = _sector_rows(m, n + 1) if sector_rows else None
        self.entries, self.dense = [], None
        return labels, dim, dim, "POVM element"

    def read(self, lines: _Lines, rows: int, cols: int, where: str) -> None:
        if self.rows is not None:  # the sector-row layout: no number lies outside the sectors
            order, bounds = self.rows
            numbers = np.zeros(bounds[-1])
            for tokens, values in _scan_block(lines, bounds, where):
                numbers[tokens] = values
            d = np.empty(len(order), dtype=complex)
            d[order] = numbers.view(complex)
            self.entries.append(d)
            return
        size = len(self.index.same)
        if self.dense is None:
            self.entries.append(np.zeros(size, dtype=complex))
        else:
            self.dense.append(np.zeros((rows, 2 * cols)))
        for at, values in _scan_block(lines, np.arange(rows + 1) * 2 * cols, where):
            nonzero = values.view(np.int64) != 0
            if not nonzero.all():  # a token such as "0.0" is no mass
                at, values = at[nonzero], values[nonzero]
            if self.dense is None:
                pair = self.index.position(at >> 1)
                if (pair < size).all():
                    self.entries[-1].view(np.float64)[2 * pair + (at & 1)] = values
                    continue
                # off-sector mass: this block and the ones before go dense (sized by layout)
                self.dense = [self.index.scatter(d).view(np.float64) for d in self.entries]
            self.dense[-1].ravel()[at] = values

    def povm(self) -> Povm:
        if self.dense is None:
            return Povm(self.m, self.n, sectors=self.entries)
        return Povm(self.m, self.n, elements=[b.view(complex) for b in self.dense])


def read_povm(path) -> Povm:
    """Parse a POVM file, in the dense or the sector-row layout.

    A header whose element count k is not n+1 is refused, and the element
    size m^(n+1) x m^(n+1) is checked against the budget (after
    config.check_tensor_square), before any row is read, whichever layout
    and route the file then takes.  Each block is read in row chunks
    (_scan_block).  A sector-row block goes straight into its sector
    entries d_k: the budget bounds an element that is never formed, and the
    reader holds n+1 arrays of |same| complex entries and one block's
    numbers, far less than the budget allows.  In a dense block each
    nonzero number is mapped to its flat pair and to that pair's position
    in the weight-sector index.  While every nonzero number lies on a
    same-sector pair, only the sector entries d_k are kept (a sector POVM,
    as from a sector-row file).  At the first nonzero number outside the
    sectors (off-sector mass, -0.0 included), the blocks read so far are
    scattered into dense elements and the file is finished on the dense
    route, which holds n+1 dense elements, each within the budget.
    """
    blocks = _PovmBlocks()
    _read_blocks(path, blocks.layouts(), 3, blocks.read)
    return blocks.povm()
