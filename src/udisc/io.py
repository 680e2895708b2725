"""Text file formats for state sets, density operators and POVMs.

All numbers are locale-independent decimal floats written with 17
significant digits, which round-trips IEEE doubles exactly.  Lines starting
with ``#`` are comments; blank lines are ignored.

state file      header ``states m n``, then n lines of m pairs ``re im``
density file    header ``rho d``, then d rows of d pairs ``re im``
povm file       header ``povm m n k``, then for each of the k elements a
                line ``element i`` followed by m^(n+1) rows of m^(n+1)
                pairs ``re im``
"""

from __future__ import annotations

import numpy as np

from .config import check_square
from .discriminator import Povm
from .errors import FormatError
from .tensor_algebra import SubsystemLayout, max_abs


def _format_row(row) -> str:
    return " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row)


def _content_lines(path) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.readlines()
    lines = []
    for line in raw:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    return lines


def _parse_complex_row(line: str, expected: int, path, what: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != 2 * expected:
        raise FormatError(
            f"{path}: {what} needs {expected} complex pairs ({2 * expected} numbers), "
            f"got {len(parts)}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"{path}: {what} contains a non-numeric token") from exc
    arr = np.array(values).reshape(expected, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _parse_header(lines: list[str], keyword: str, fields: int, path) -> list[int]:
    if not lines:
        raise FormatError(f"{path}: empty file")
    parts = lines[0].split()
    if len(parts) != fields + 1 or parts[0] != keyword:
        raise FormatError(f"{path}: expected header '{keyword} " + " ".join("<int>" for _ in range(fields)) + "'")
    try:
        values = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise FormatError(f"{path}: header fields must be integers") from exc
    if any(v < 1 for v in values):
        raise FormatError(f"{path}: header fields must be positive")
    return values


# ---------------------------------------------------------------------------
# state sets


def write_states(path, states, comment: str | None = None) -> None:
    s = np.asarray(states, dtype=complex)
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"states {s.shape[1]} {s.shape[0]}")
    lines.extend(_format_row(row) for row in s)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_states(path) -> tuple[np.ndarray, list[str]]:
    """Parse a state file; near-unit states are renormalized.

    Returns (states, warnings).  Norm deviations above 1e-9 produce a
    warning, deviations above 1e-6 are rejected.
    """
    lines = _content_lines(path)
    m, n = _parse_header(lines, "states", 2, path)
    if len(lines) != 1 + n:
        raise FormatError(f"{path}: expected {n} state lines, found {len(lines) - 1}")
    rows = [_parse_complex_row(lines[1 + i], m, path, f"state {i + 1}") for i in range(n)]
    states = np.array(rows)
    warnings = []
    for i in range(n):
        norm = float(np.linalg.norm(states[i]))
        deviation = abs(norm - 1.0)
        if deviation > 1e-6:
            raise FormatError(f"{path}: state {i + 1} has norm {norm!r}, too far from 1")
        if norm == 0.0:
            raise FormatError(f"{path}: state {i + 1} is the zero vector")
        if deviation > 1e-9:
            warnings.append(f"state {i + 1} renormalized (norm deviation {deviation:.3e})")
        states[i] = states[i] / norm
    return states, warnings


# ---------------------------------------------------------------------------
# density operators


def write_density(path, rho, comment: str | None = None) -> None:
    r = np.asarray(rho, dtype=complex)
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"rho {r.shape[0]}")
    lines.extend(_format_row(row) for row in r)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_density(path) -> np.ndarray:
    """Parse a density file, validating hermiticity and unit trace.

    Deviations up to 1e-8 (hand-typed rounding) are repaired by symmetrizing
    and rescaling; anything beyond is rejected.
    """
    lines = _content_lines(path)
    (d,) = _parse_header(lines, "rho", 1, path)
    if len(lines) != 1 + d:
        raise FormatError(f"{path}: expected {d} rows, found {len(lines) - 1}")
    rows = [_parse_complex_row(lines[1 + i], d, path, f"row {i + 1}") for i in range(d)]
    rho = np.array(rows)
    herm_dev = max_abs(rho - rho.conj().T)
    if herm_dev > 1e-8:
        raise FormatError(f"{path}: matrix is not Hermitian (deviation {herm_dev:.3e})")
    rho = (rho + rho.conj().T) / 2
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise FormatError(f"{path}: trace is {tr!r}, expected 1")
    return rho / tr


# ---------------------------------------------------------------------------
# POVMs


def write_povm(path, povm: Povm) -> None:
    lines = [f"povm {povm.m} {povm.n} {len(povm.elements)}"]
    for idx, element in enumerate(povm.elements):
        lines.append(f"element {idx}")
        lines.extend(_format_row(row) for row in element)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_povm(path, cap: int | None = None) -> Povm:
    """Parse a POVM file; the header's element size is checked against cap before any row."""
    lines = _content_lines(path)
    m, n, k = _parse_header(lines, "povm", 3, path)
    dim = m ** (n + 1)
    check_square(dim, cap, "POVM element")
    expected = 1 + k * (1 + dim)
    if len(lines) != expected:
        raise FormatError(f"{path}: expected {expected} content lines, found {len(lines)}")
    elements = []
    cursor = 1
    for idx in range(k):
        marker = lines[cursor]
        if marker.split() != ["element", str(idx)]:
            raise FormatError(f"{path}: expected 'element {idx}', got {marker!r}")
        cursor += 1
        rows = [
            _parse_complex_row(lines[cursor + r], dim, path, f"element {idx} row {r + 1}")
            for r in range(dim)
        ]
        cursor += dim
        elements.append(np.array(rows))
    return Povm(
        m=m,
        n=n,
        elements=tuple(elements),
        layout=SubsystemLayout.uniform(m, n + 1),
        cap=cap,
    )
