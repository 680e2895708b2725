"""Text file formats for state sets, density operators and POVMs.

All numbers are locale-independent decimal floats written with 17
significant digits, which round-trips IEEE doubles exactly.  Lines starting
with ``#`` are comments; blank lines are ignored.

state file      header ``states m n``, then n lines of m pairs ``re im``
density file    header ``rho d``, then d rows of d pairs ``re im``
povm file       header ``povm m n k`` with k = n+1, then for each element a
                line ``element i`` followed by m^(n+1) rows of m^(n+1)
                pairs ``re im``

All three are a header and blocks of rows, written and read by one codec.
The writer takes each block as the positions and bit patterns of its
nonzero doubles: a dense block gives them from its nonzero mask, and a
built or sector POVM (discriminator.Povm) from its weight-sector entries
in row-major order, with no dense element.  It formats each distinct
double of a block once, with "%.17g", and writes every row from that
vocabulary; +0.0 is written "0", so a row of a built element is its runs
of zeros and a few words.  Rows are turned into text in chunks of at most
WRITE_CHUNK numbers, so beyond the nonzero doubles and their vocabulary
the writer's temporary memory is one chunk, whatever the block size.

Files are read in binary mode, in blocks of bytes; "\r\n" and "\r" line
ends count as newlines.  Every block the header declares is sized against
the dense-storage budget (config.entry_cap) before any row is read; a POVM
header's m^(n+1) is refused before it is formed when it is far over
(config.check_tensor_square).  A POVM block is read in chunks of at most
WRITE_CHUNK numbers, as it was written, cut from the buffer at newlines.
A chunk in the writer's layout (one space between tokens, one newline
after each row) is scanned as bytes with numpy: a token that is the one
byte "0" is +0.0 and is not parsed, and each distinct other token is
parsed once by float().  Any other chunk (tabs, runs of spaces, a comment
or blank line inside the block, a wrong token count, a token float()
refuses) is read row by row with float(), which names the bad row and
accepts float()'s spellings ("1_0").  A state or density block, a few
rows of distinct numbers, takes that row-by-row scan.  A NaN or an
infinity is refused where it is read, naming the file, the block and the
row.

Each nonzero number of a POVM block is mapped to its flat pair and to
that pair's position in the weight-sector index.  While every one lies on
a same-sector pair, read_povm keeps only the sector entries d_k: the
budget then bounds an element that is never formed, and the reader holds
n+1 arrays of |same| entries plus about one chunk.  At the first nonzero
number outside the sectors, what has been read is scattered into dense
elements and the file is finished on the dense route, which holds n+1
elements of m^(n+1) x m^(n+1) entries, each within the budget.
"""

from __future__ import annotations

from collections.abc import Iterator

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


def _dense_numbers(matrix) -> tuple[int, int, np.ndarray, np.ndarray]:
    """A block's (rows, width, at, bits): its rows x width (re, im) doubles, the positions
    row·width + column of the nonzero ones, ascending, and their int64 bit patterns."""
    bits = np.ascontiguousarray(matrix, dtype=complex).view(np.int64)
    at = np.flatnonzero(bits)
    return bits.shape[0], bits.shape[1], at, bits.ravel()[at]


def _sector_numbers(index, d: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray]:
    """_dense_numbers of the dim x dim element with weight-sector entries d and +0.0
    elsewhere, from d alone: the entries in row-major order (index.row_major), where
    the pair at flat index f holds the doubles at 2f and 2f + 1."""
    order, flat = index.row_major
    bits = d[order].view(np.int64).ravel()
    at = (2 * flat[:, None] + np.arange(2)).ravel()
    nonzero = bits != 0
    dim = len(index.digits)
    return dim, 2 * dim, at[nonzero], bits[nonzero]


def _block_text(rows: int, width: int, at: np.ndarray, bits: np.ndarray):
    """The rows of a block as text, in chunks, each distinct double formatted once.

    at and bits are the positions and int64 bit patterns of the block's
    nonzero doubles (_dense_numbers), so -0.0, each NaN payload and each
    subnormal keeps its own entry and every other double is +0.0.  The
    distinct patterns (tensor_algebra.sorted_distinct) are formatted by one
    "%.17g" operation into a vocabulary of words that carry their trailing
    separator, a space or, at a row end, a newline; code 0 is "0 " and
    code 1 + len(distinct) is "0\n", for +0.0.  Chunks take at most
    WRITE_CHUNK numbers (at least one row).  A chunk is joined from two
    pieces per nonzero number or row end: the run of zeros before it, and
    its word.  A built POVM's rows are mostly zeros, so a row costs a few
    pieces, and the work follows the nonzero numbers and the rows, not the
    block's size.
    """
    distinct = sorted_distinct(bits)
    formatted = ("%.17g\0" * len(distinct) % tuple(distinct.view(np.float64).tolist())).split("\0")
    words = np.array([word + sep for sep in " \n" for word in ["0", *formatted[:-1]]], dtype=object)
    codes = np.searchsorted(distinct, bits) + 1
    zero = np.array("0 ", dtype=object)
    step = max(1, WRITE_CHUNK // width)
    starts = range(0, rows, step)
    bounds = np.searchsorted(at, [start * width for start in (*starts, rows)])
    for start, lo, hi in zip(starts, bounds, bounds[1:]):
        first, last = start * width, min(start + step, rows) * width
        where = sorted_distinct(np.concatenate([at[lo:hi], np.arange(first + width - 1, last, width)]))
        code = np.where(where % width == width - 1, len(distinct) + 1, 0)
        code[np.searchsorted(where, at[lo:hi])] += codes[lo:hi]
        before = np.empty_like(where)  # the number before each piece's run of zeros
        before[0], before[1:] = first - 1, where[:-1]
        pieces = np.empty(2 * len(where), dtype=object)
        pieces[0::2] = zero * (where - before - 1)
        pieces[1::2] = words[code]
        yield "".join(pieces.tolist())


def _parse_header(line: str | None, keyword: str, fields: int, path) -> list[int]:
    if line is None:
        raise FormatError(f"{path}: empty file")
    parts = line.split()
    if len(parts) != fields + 1 or parts[0] != keyword:
        raise FormatError(f"{path}: expected header '{keyword} " + " ".join("<int>" for _ in range(fields)) + "'")
    try:
        values = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise FormatError(f"{path}: header fields must be integers") from exc
    if any(v < 1 for v in values):
        raise FormatError(f"{path}: header fields must be positive")
    return values


def _scan_rows(block: list[str], out: np.ndarray, where: str, first: int = 0) -> None:
    """Fill the rows of out from the lines of block with float(), row by row.

    The first row with the wrong number of tokens, or with a token float()
    refuses, raises a FormatError naming it (rows are numbered from first+1);
    then the first row holding a NaN or an infinity does.
    """
    rows, width = out.shape
    for r in range(rows):
        parts = block[r].split() if r < len(block) else []
        if len(parts) != width:
            raise FormatError(
                f"{where} row {first + r + 1} needs {width // 2} complex pairs ({width} numbers), "
                f"got {len(parts)}"
            )
        try:
            out[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{where} row {first + r + 1} contains a non-numeric token") from exc
    _check_finite(out, where, first)


def _check_finite(values: np.ndarray, where: str, first: int = 0) -> None:
    """Refuse a NaN or an infinity, naming the first row that holds one (numbered from first+1)."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise FormatError(f"{where} row {first + np.argmin(finite) + 1} holds a non-finite number")


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
    _scan_rows(lines.content(rows), values, where)
    return values.view(complex)


def _scan_block(lines: _Lines, rows: int, cols: int, where: str):
    """Yield (first row, tokens, values) for each row chunk of a POVM block: the numbers
    of the chunk, numbered row-major from its first row, that are not the token "0",
    and their doubles (the +0.0 of a token such as "0.0" among them).

    A chunk holds at most WRITE_CHUNK numbers (at least one row), as the
    writer's do.  A chunk in the writer's layout is parsed by _scan_chunk.
    Any other chunk (other whitespace, a comment or blank line, a wrong
    token count, a token float() refuses) has its comment and blank lines
    dropped, is topped up to its row count from the content lines that
    follow, and goes to _scan_rows, which names a bad row; its tokens are
    then its nonzero doubles, -0.0 included.
    """
    width = 2 * cols
    step = max(1, WRITE_CHUNK // width)
    for first in range(0, rows, step):
        count = min(step, rows - first)
        taken = lines.take(count)
        parsed = _scan_chunk(*taken, count, width)
        if parsed is None:
            chunk = np.empty((count, width))
            _scan_rows(lines.content(count, taken), chunk, where, first)
            tokens = np.flatnonzero(chunk.view(np.int64))
            parsed = tokens, chunk.ravel()[tokens]
        yield first, *parsed


def _scan_chunk(buf: bytes, start: int, end: int, rows: int, width: int):
    """Parse buf[start:end + 1], a newline and then a chunk's lines, if it is in the
    writer's layout: (tokens, values) of the tokens other than "0", else None.

    The bytes are taken as a uint8 view, with no copy; spaces and newlines
    are the separators.  The writer's layout is rows lines of width tokens,
    one space between two tokens and a newline after the last: there are
    rows + 1 newlines, the last byte is one, and no separator follows
    another.  A token that is the one byte "0" (a "0" between separators)
    is +0.0 and is left out.  The other tokens are found by their bounds,
    the separators before and after them (one result per such token), so
    the work beyond a few passes over the bytes follows those tokens only.
    Every token before a separator at p is one "0" byte or one of the other
    tokens, each with its separator, so (p − their bytes)/2 + their count
    tokens lie before p: that numbers token k as (begin_k − Σ_{j<k}
    (length_j + 1))/2 + k, and the newline ending row r must follow exactly
    r·width tokens.  Each distinct
    other token is parsed once by float() on its bytes, which gives what
    float() gives _scan_rows on its text, or refuses it.  Returns None when
    the chunk is in another layout, or float() refuses a token or gives a
    NaN or an infinity.
    """
    u = np.frombuffer(buf, np.uint8, end + 1 - start, start)
    sep = u == ord("\n")
    lines = sep.nonzero()[0]
    if len(lines) != rows + 1 or lines[-1] != len(u) - 1:
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
    if ((lines - units[ahead]) // 2 + ahead != np.arange(0, (rows + 1) * width, width)).any():
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


def _read_blocks(path, keyword: str, fields: int, layout,
                 read=_read_rows) -> tuple[list[int], list]:
    """Parse a header ``keyword <fields positive ints>`` and the blocks it declares.

    ``layout(*header)`` returns (labels, rows, cols, what): one block of rows
    x cols complex pairs per label, led by the label line unless the label
    is None.  The blocks share one size, which is checked against the budget
    before any row is read.  ``read(lines, rows, cols, where)`` reads each
    block from the _Lines of the file and gives what the returned list
    holds: by default the block as a rows x cols complex array (_read_rows,
    for state and density files, a few small rows of distinct numbers).
    """
    with open(path, "rb") as fh:
        lines = _Lines(fh)
        header = _parse_header(lines.content_line(), keyword, fields, path)
        labels, rows, cols, what = layout(*header)
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
    (m, n), (states,) = _read_blocks(path, "states", 2, lambda m, n: ([None], n, m, "state set"))
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
    _, (rho,) = _read_blocks(path, "rho", 1, lambda d: ([None], d, d, "density matrix"))
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

    A built or sector POVM is written from its weight-sector entries
    (_sector_numbers), with no dense element: the same bytes as its dense
    elements give.  Its elements are sized against the budget, and an
    explicit POVM's count checked, before the file is opened.
    """
    if povm._explicit:
        k = len(povm.elements)
        blocks = map(_dense_numbers, povm.elements)
    else:
        k = povm.n + 1
        sectors = povm._sectors  # sized against the budget before the index is formed
        index = _weight_sectors(povm.m, povm.n + 1)
        blocks = (_sector_numbers(index, d) for d in sectors)
    _write_blocks(path, f"povm {povm.m} {povm.n} {k}", zip(_povm_labels(povm.n, k), blocks))


def _povm_labels(n: int, k: int) -> Iterator[str]:
    """The k element labels, made one at a time as the blocks are read or written."""
    if k != n + 1:
        raise FormatError(
            f"povm header declares {k} elements; a POVM on n={n} states has n+1 = {n + 1}"
        )
    return (f"element {i}" for i in range(k))


class _PovmBlocks:
    """The elements of a POVM file, block by block: the layout its header declares, and
    each block's numbers kept as weight-sector entries while every nonzero one lies on
    a same-sector pair, or as dense blocks from the first one that does not."""

    def layout(self, m: int, n: int, k: int):
        labels = _povm_labels(n, k)
        dim = check_tensor_square(m, n + 1, "POVM element")  # refused before m**(n+1) is formed
        self.m, self.n, self.index = m, n, _weight_sectors(m, n + 1)
        self.entries, self.dense = [], None  # (re, im) doubles of each block
        return labels, dim, dim, "POVM element"

    def read(self, lines: _Lines, rows: int, cols: int, where: str) -> None:
        size = len(self.index.same)
        if self.dense is None:
            self.entries.append(np.zeros(2 * size))
        else:
            self.dense.append(np.zeros((rows, 2 * cols)))
        for first, tokens, values in _scan_block(lines, rows, cols, where):
            at = tokens + first * 2 * cols
            nonzero = values.view(np.int64) != 0
            if not nonzero.all():  # a token such as "0.0" is no mass
                at, values = at[nonzero], values[nonzero]
            if self.dense is None:
                pair = self.index.position(at >> 1)
                if (pair < size).all():
                    self.entries[-1][2 * pair + (at & 1)] = values
                    continue
                # off-sector mass: this block and the ones before go dense (sized by layout)
                self.dense = [self.index.scatter(d.view(complex)).view(np.float64) for d in self.entries]
            self.dense[-1].ravel()[at] = values

    def povm(self) -> Povm:
        if self.dense is None:
            return Povm(self.m, self.n, sectors=[d.view(complex) for d in self.entries])
        return Povm(self.m, self.n, elements=[b.view(complex) for b in self.dense])


def read_povm(path) -> Povm:
    """Parse a POVM file.

    A header whose element count k is not n+1 is refused, and the element
    size m^(n+1) x m^(n+1) is checked against the budget, before any row is
    read, whichever route the file then takes.  Each block is read in row
    chunks (_scan_block), and each nonzero number is mapped to its flat pair
    and to that pair's position in the weight-sector index.  While every
    nonzero number lies on a same-sector pair, only the sector entries d_k
    are kept (a sector POVM: n+1 arrays of |same| complex entries, far less
    than the budget allows).  At the first nonzero number outside the
    sectors (off-sector mass, -0.0 included), the blocks read so far are
    scattered into dense elements and the file is finished on the dense
    route, which holds n+1 dense elements, each within the budget.
    """
    blocks = _PovmBlocks()
    _read_blocks(path, "povm", 3, blocks.layout, blocks.read)
    return blocks.povm()
