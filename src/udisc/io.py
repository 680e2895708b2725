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
Every block the header declares is sized against the dense-storage budget
(config.entry_cap) before any row is read, and rows stream from the file.
Each block is parsed by one np.loadtxt call over its lines, which gives the
same doubles as float(); a block it refuses is scanned again row by row,
so an error names the row.
"""

from __future__ import annotations

import itertools

import numpy as np

from .config import check_entries
from .discriminator import Povm
from .errors import FormatError
from .tensor_algebra import NORM_TOL, max_abs

# read_states: a norm deviation above this (and at most NORM_TOL) is renormalized with a warning.
RENORMALIZE_WARN_TOL = 1e-9
# read_density: hermiticity and trace deviations up to this are repaired, beyond it rejected.
DENSITY_REPAIR_TOL = 1e-8


def _write_blocks(path, header: str, blocks, comment: str | None = None) -> None:
    """Write a header line, then each (label or None, matrix) block row by row."""
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for label, matrix in blocks:
            if label is not None:
                fh.write(label + "\n")
            a = np.ascontiguousarray(matrix, dtype=complex)
            row_format = " ".join(["%.17g %.17g"] * a.shape[1]) + "\n"
            fh.writelines(row_format % tuple(row.view(float).tolist()) for row in a)


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


def _parse_block(block: list[str], rows: int, cols: int, where: str) -> np.ndarray:
    """The rows x 2·cols floats of a block's lines.

    One np.loadtxt call parses a well-formed block.  On a ValueError or a
    wrong shape the block is scanned again row by row with float(), which
    names the first bad row and accepts the few spellings float() takes and
    np.loadtxt does not (digit separators such as "1_0").  Both give the
    same double for every token both accept.
    """
    if len(block) == rows:
        try:
            values = np.loadtxt(block, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (rows, 2 * cols):
                return values
    values = np.empty((rows, 2 * cols))
    for r in range(rows):
        parts = block[r].split() if r < len(block) else []
        if len(parts) != 2 * cols:
            raise FormatError(
                f"{where} row {r + 1} needs {cols} complex pairs ({2 * cols} numbers), got {len(parts)}"
            )
        try:
            values[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{where} row {r + 1} contains a non-numeric token") from exc
    return values


def _read_blocks(path, keyword: str, fields: int, layout) -> tuple[list[int], list[np.ndarray]]:
    """Parse a header ``keyword <fields positive ints>`` and the blocks it declares.

    ``layout(*header)`` returns (labels, rows, cols, what): one block of rows
    x cols complex pairs per label, led by the label line unless the label
    is None.  The blocks share one size, which is checked against the budget
    before any row is read.
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
            values = _parse_block(list(itertools.islice(lines, rows)), rows, cols, f"{path}: {name}")
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
    labels, _, _, _ = _povm_layout(povm.m, povm.n, k)
    _write_blocks(path, f"povm {povm.m} {povm.n} {k}", zip(labels, povm.elements))


def _povm_layout(m: int, n: int, k: int):
    if k != n + 1:
        raise FormatError(
            f"povm header declares {k} elements; a POVM on n={n} states has n+1 = {n + 1}"
        )
    dim = m ** (n + 1)
    return (f"element {i}" for i in range(k)), dim, dim, "POVM element"


def read_povm(path) -> Povm:
    """Parse a POVM file.

    A header whose element count k is not n+1 is refused, and each element's
    size is checked against the budget, before any row is read.
    """
    (m, n, _), elements = _read_blocks(path, "povm", 3, _povm_layout)
    return Povm(m=m, n=n, elements=tuple(elements))
