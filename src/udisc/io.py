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
The writer formats each distinct double of a block once, with "%.17g", and
writes every row from that vocabulary; a built POVM's element holds a few
distinct doubles and mostly +0.0, which is written "0", so a row is
written as its runs of zeros and a few words.  Rows are turned into text
in chunks of at most WRITE_CHUNK numbers, so beyond the sorted nonzero
values, their vocabulary and a one-byte zero mask per number the writer's
temporary memory is one chunk, whatever the block size.
Every block the header declares is sized against the dense-storage budget
(config.entry_cap) before any row is read, and rows stream from the file;
a POVM header's m^(n+1) is refused before it is formed when it is far over
(config.check_tensor_square).
A POVM block is read in chunks of at most WRITE_CHUNK numbers, as it was
written.  A chunk in the writer's layout (one space between tokens, one
newline after each row) is scanned as bytes: one np.flatnonzero over the
space/newline mask numbers every token and checks the layout, a token that
is the one byte "0" is +0.0 and is not parsed, and each distinct other
token is parsed once by float().  So beyond the returned elements the
reader's temporary memory is about one chunk, whatever the block size.
Files are read as text, so "\r\n" and "\r" line ends count as newlines.
Any other chunk (tabs, runs of spaces, a comment or blank line inside the
block, a wrong token count, a token float() refuses) is read row by row
with float(), which names the bad row and accepts float()'s spellings
("1_0").  A state or density block, a few rows of distinct numbers, takes
that row-by-row scan.  A NaN or an infinity is refused where it is read,
naming the file, the block and the row.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .config import check_entries, check_tensor_square
from .discriminator import Povm
from .errors import FormatError
from .tensor_algebra import NORM_TOL, max_abs

# read_states: a norm deviation above this (and at most NORM_TOL) is renormalized with a warning.
RENORMALIZE_WARN_TOL = 1e-9
# read_density: hermiticity and trace deviations up to this are repaired, beyond it rejected.
DENSITY_REPAIR_TOL = 1e-8


# Numbers turned into text, or read back, per chunk of rows (at least one row per chunk).
WRITE_CHUNK = 1 << 16


def _write_blocks(path, header: str, blocks, comment: str | None = None) -> None:
    """Write a header line, then each (label or None, matrix) block as rows of "%.17g" pairs."""
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for label, matrix in blocks:
            if label is not None:
                fh.write(label + "\n")
            fh.writelines(_block_text(matrix))


def _block_text(matrix):
    """The rows of a block as text, in chunks, each distinct double formatted once.

    The (re, im) doubles are taken as int64 bit patterns, so -0.0, each NaN
    payload and each subnormal keeps its own entry.  The distinct nonzero
    patterns (np.sort and a neighbour test, which on int64 is far quicker
    than np.unique) are formatted by one "%.17g" operation into a
    vocabulary of words that carry their trailing space; code 0 is "0 ",
    for +0.0.  A chunk's codes come from np.searchsorted, and the chunk is
    joined from one piece per nonzero number or row end: the run of zeros
    before it and its word, with a newline for the space at a row end.  A
    built POVM's rows are mostly zeros, so a row costs a few pieces.
    """
    bits = np.ascontiguousarray(matrix, dtype=complex).view(np.int64)
    nonzero = np.sort(bits[bits != 0])
    keep = np.ones(len(nonzero), dtype=bool)
    keep[1:] = nonzero[1:] != nonzero[:-1]
    distinct = nonzero[keep]
    words = np.empty(len(distinct) + 1, dtype=object)
    words[0] = "0 "
    words[1:] = ("%.17g \0" * len(distinct) % tuple(distinct.view(np.float64).tolist())).split("\0")[:-1]
    zero = np.array("0 ", dtype=object)
    width = bits.shape[1]
    step = max(1, WRITE_CHUNK // width)
    for start in range(0, len(bits), step):
        chunk = bits[start:start + step]
        marked = chunk != 0
        marked[:, -1] = True
        at = np.flatnonzero(marked)
        values = chunk.ravel()[at]
        codes = np.searchsorted(distinct, values) + 1
        codes[values == 0] = 0
        pieces = zero * (np.diff(at, prepend=-1) - 1) + words[codes]
        ends = at % width == width - 1
        pieces[ends] = [p[:-1] + "\n" for p in pieces[ends].tolist()]
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


def _scan_block(fh, lines, rows: int, cols: int, where: str) -> np.ndarray:
    """The rows x 2·cols floats of a POVM block, read from fh in row chunks.

    Each chunk holds at most WRITE_CHUNK numbers (at least one row), as the
    writer's do.  A chunk in the writer's layout is parsed by _scan_chunk.
    Any other chunk (other whitespace, a comment or blank line, a wrong
    token count, a token float() refuses) has its comment and blank lines
    dropped, is topped up to its row count from lines (the stream of
    content lines over fh), and goes to _scan_rows, which names a bad row.
    """
    values = np.zeros((rows, 2 * cols))
    step = max(1, WRITE_CHUNK // (2 * cols))
    for start in range(0, rows, step):
        chunk = values[start:start + step]
        text = "".join(["\n", *itertools.islice(fh, len(chunk))]).encode("ascii")
        if not _scan_chunk(text, chunk):
            raw = text.decode("ascii").split("\n")
            block = [s for s in map(str.strip, raw) if s and not s.startswith("#")]
            block += itertools.islice(lines, len(chunk) - len(block))
            _scan_rows(block, chunk, where, start)
    return values


def _scan_chunk(text: bytes, out: np.ndarray) -> bool:
    """Parse a chunk's text into out (zeros on entry), if it is in the writer's layout.

    text is a newline, then the chunk's lines, taken as a uint8 view.
    Spaces and newlines are the separators, and one np.flatnonzero numbers
    them: token t lies between separators t and t+1.  The writer's layout
    (len(out) lines of out.shape[1] tokens, one space between two tokens
    and a newline after the last) is then four checks: no separator follows
    another, the last byte is a separator, there are len(out)·out.shape[1]
    + 1 separators, and every out.shape[1]-th separator, and only those, is
    a newline.  A token that is the one byte "0" (a "0" followed by a
    separator) is +0.0 and is left as out holds it.  Each distinct other
    token is parsed once by float() on its bytes, which gives what float()
    gives _scan_rows on its text, or refuses it.  Returns False, leaving out
    as it was, when the chunk is in another layout, or float() refuses a
    token or gives a NaN or an infinity.
    """
    rows, width = out.shape
    u = np.frombuffer(text, np.uint8)
    newline = u == ord("\n")
    sep = newline | (u == ord(" "))
    if not sep[-1] or (sep[1:] & sep[:-1]).any() or np.count_nonzero(newline) != rows + 1:
        return False
    seps = np.flatnonzero(sep)
    if len(seps) != rows * width + 1 or not newline[seps[::width]].all():
        return False
    del newline
    zero = (u[1:-1] == ord("0")) & sep[2:]  # at p: a "0", then a separator, after byte p
    parse = np.flatnonzero(np.greater(sep[:-2], zero, out=zero))  # the separators before other tokens
    del sep, zero
    token = np.searchsorted(seps, parse)
    keys = [text[a:b] for a, b in zip((seps[token] + 1).tolist(), seps[token + 1].tolist())]
    vocabulary = dict.fromkeys(keys)
    try:
        for key in vocabulary:
            vocabulary[key] = float(key)
    except ValueError:
        return False
    if not np.isfinite(list(vocabulary.values())).all():
        return False  # _scan_rows names the row
    out.ravel()[token] = np.fromiter(map(vocabulary.__getitem__, keys), np.float64, len(keys))
    return True


def _read_blocks(path, keyword: str, fields: int, layout,
                 scan: bool = False) -> tuple[list[int], list[np.ndarray]]:
    """Parse a header ``keyword <fields positive ints>`` and the blocks it declares.

    ``layout(*header)`` returns (labels, rows, cols, what): one block of rows
    x cols complex pairs per label, led by the label line unless the label
    is None.  The blocks share one size, which is checked against the budget
    before any row is read.  With scan, blocks are read by _scan_block in
    row chunks (POVM files: mostly "0" and a few distinct other tokens);
    otherwise each block's lines go to _scan_rows (state and density files,
    a few small rows of distinct numbers).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = (s for s in map(str.strip, fh) if s and not s.startswith("#"))
        header = _parse_header(next(lines, None), keyword, fields, path)
        labels, rows, cols, what = layout(*header)
        check_entries(rows * cols, f"{rows}x{cols} {what}")
        blocks = []
        for label in labels:
            name = what if label is None else label
            if label is not None:
                line = next(lines, "")
                if line.split() != label.split():
                    raise FormatError(f"{path}: expected {label!r}, got {line!r}")
            where = f"{path}: {name}"
            if scan:
                values = _scan_block(fh, lines, rows, cols, where)
            else:
                values = np.empty((rows, 2 * cols))
                _scan_rows(list(itertools.islice(lines, rows)), values, where)
            blocks.append(values.view(complex))  # (re, im) pairs bit for bit, -0.0 included
        if next(lines, None) is not None:
            raise FormatError(f"{path}: content after the last {what} row")
    return header, blocks


# ---------------------------------------------------------------------------
# state sets


def write_states(path, states, comment: str | None = None) -> None:
    s = np.asarray(states, dtype=complex)
    _write_blocks(path, f"states {s.shape[1]} {s.shape[0]}", [(None, s)], comment)


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
    _write_blocks(path, f"rho {len(rho)}", [(None, rho)], comment)


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

    The elements are read (and a built POVM's assembled, under the budget)
    and their count checked before the file is opened.
    """
    k = len(povm.elements)
    _write_blocks(path, f"povm {povm.m} {povm.n} {k}", zip(_povm_labels(povm.n, k), povm.elements))


def _povm_labels(n: int, k: int) -> Iterator[str]:
    """The k element labels, made one at a time as the blocks are read or written."""
    if k != n + 1:
        raise FormatError(
            f"povm header declares {k} elements; a POVM on n={n} states has n+1 = {n + 1}"
        )
    return (f"element {i}" for i in range(k))


def _povm_layout(m: int, n: int, k: int):
    labels = _povm_labels(n, k)
    dim = check_tensor_square(m, n + 1, "POVM element")  # refused before m**(n+1) is formed
    return labels, dim, dim, "POVM element"


def read_povm(path) -> Povm:
    """Parse a POVM file.

    A header whose element count k is not n+1 is refused, and each element's
    size is checked against the budget, before any row is read.
    """
    (m, n, _), elements = _read_blocks(path, "povm", 3, _povm_layout, scan=True)
    return Povm(m=m, n=n, elements=tuple(elements))
