import itertools
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ROUND_TRIP, rand_density, rand_states, sector_columns, sector_rows
from udisc import io as udisc_io
from udisc.antisym import _weight_sectors
from udisc.discriminator import (
    Povm,
    build_optimal_equal,
    build_trivial_antisym,
    build_universal,
    check_covariance,
    family_povm,
    verify_unambiguous,
)
from udisc.config import DEFAULT_ENTRY_CAP, entry_cap
from udisc.errors import CapExceeded, FormatError, InvalidPovm, WrongRegime
from udisc.io import read_density, read_povm, read_states, write_density, write_povm, write_states
from udisc.tensor_algebra import max_abs

# The two POVM file layouts: "dense" rows of m^(n+1) pairs, "sector" rows of the row's weight sector.
LAYOUTS = ["dense", "sector"]


def in_layout(layout, povm):
    """What write_povm writes in the named layout: povm's explicit dense copy for "dense",
    a built or sector POVM itself for "sector"."""
    return Povm(povm.m, povm.n, elements=povm.elements) if layout == "dense" else povm


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(90)
        states = rand_states(3, 4, rng)
        path = tmp_path / "states.txt"
        write_states(path, states)
        loaded, warnings = read_states(path)
        assert warnings == []
        assert max_abs(loaded - states) < 1e-15

    def test_renormalization_warning(self, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("states 2 1\n1.0000001 0 0 0\n")
        loaded, warnings = read_states(path)
        assert len(warnings) == 1
        assert abs(np.linalg.norm(loaded[0]) - 1.0) < 1e-12

    def test_rejects_far_from_unit(self, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("states 2 1\n2 0 0 0\n")
        with pytest.raises(FormatError):
            read_states(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("# a comment\n\nstates 2 2\n1 0 0 0\n\n# another\n0 0 1 0\n")
        loaded, _ = read_states(path)
        assert np.allclose(loaded, np.eye(2))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("states 3 2\n1 0 0 0 0 0\n")
        with pytest.raises(FormatError):
            read_states(path)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "states.txt"
        path.write_text("states 2 1\n1 zero 0 0\n")
        with pytest.raises(FormatError):
            read_states(path)


class TestDensityFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(91)
        rho = rand_density(3, rng)
        path = tmp_path / "rho.txt"
        write_density(path, rho)
        assert max_abs(read_density(path) - rho) < 1e-15

    def test_rejects_non_hermitian(self, tmp_path):
        path = tmp_path / "rho.txt"
        path.write_text("rho 2\n0.5 0 1 0\n0 0 0.5 0\n")
        with pytest.raises(FormatError):
            read_density(path)

    def test_rejects_wrong_trace(self, tmp_path):
        path = tmp_path / "rho.txt"
        path.write_text("rho 2\n1 0 0 0\n0 0 1 0\n")
        with pytest.raises(FormatError):
            read_density(path)

    def test_repairs_hand_rounding(self, tmp_path):
        third = "0.333333333333"
        path = tmp_path / "rho.txt"
        path.write_text(f"rho 3\n{third} 0 0 0 0 0\n0 0 {third} 0 0 0\n0 0 0 0 {third} 0\n")
        rho = read_density(path)
        assert abs(np.trace(rho).real - 1.0) < 1e-14


class TestPovmFiles:
    @pytest.mark.parametrize(
        "factory",
        [lambda: build_optimal_equal(2), lambda: build_universal(3, 2),
         lambda: build_trivial_antisym(3, 2)],
    )
    def test_exact_round_trip_and_verify(self, tmp_path, factory):
        povm = factory()
        path = tmp_path / "povm.txt"
        write_povm(path, povm)
        loaded = read_povm(path)
        assert loaded.m == povm.m and loaded.n == povm.n
        for a, b in zip(loaded.elements, povm.elements):
            assert np.array_equal(a, b)  # 17 significant digits round-trip exactly
        assert verify_unambiguous(loaded).passed

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_truncated_povm(self, tmp_path, layout):
        povm = build_universal(3, 2)
        path = tmp_path / "povm.txt"
        write_povm(path, in_layout(layout, povm))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(FormatError):
            read_povm(path)

    @pytest.mark.parametrize("write, value", [(write_povm, build_universal(3, 2)),
                                              (write_states, np.eye(3)[:2]),
                                              (write_density, np.eye(2) / 2)])
    def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(self, tmp_path, write, value):
        fresh, path = tmp_path / "fresh.txt", tmp_path / "old.txt"
        write(fresh, value)
        path.write_bytes(b"9" * (3 * fresh.stat().st_size) + b"\n")
        write(path, value)
        assert path.read_bytes() == fresh.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "povm.txt"
        path.write_text("povm 3 2\nelement 0\n")
        with pytest.raises(FormatError):
            read_povm(path)

    def test_writer_refuses_a_count_the_reader_refuses(self, tmp_path):
        # the count is refused when the Povm is made, so no POVM the writer gets has it
        with pytest.raises(InvalidPovm, match=r"^expected 2 elements, got 3$"):
            Povm(m=2, n=1, elements=[np.eye(4) / 3] * 3)
        path = tmp_path / "povm.txt"
        path.write_text("povm 2 1 3\n")
        with pytest.raises(FormatError, match="declares 3 elements; a POVM on n=1 states has n"):
            read_povm(path)

    def test_writer_refuses_an_element_shape_the_reader_refuses(self):
        with pytest.raises(InvalidPovm, match=r"^element 0 has shape \(4, 4\), expected \(8, 8\)$"):
            Povm(m=2, n=2, elements=[np.eye(4)] * 3)

    @pytest.mark.parametrize("layout,token,message", [
        ("dense", "x", "element 1 row 3 contains a non-numeric"),
        ("dense", "1 2", r"element 1 row 3 needs 8 complex pairs \(16 numbers\), got 17"),
        ("sector", "x", "element 1 row 3 contains a non-numeric"),
        ("sector", "1 2", r"element 1 row 3 needs 3 complex pairs \(6 numbers\), got 7"),  # sector {001, 010, 100}
    ])
    def test_errors_name_the_row(self, tmp_path, layout, token, message):
        path = tmp_path / "povm.txt"
        write_povm(path, in_layout(layout, build_optimal_equal(2)))
        lines = path.read_text().splitlines()
        row = lines.index("element 1") + 3
        lines[row] = lines[row].replace("0", token, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message):
            read_povm(path)

    def test_rows_parse_as_loadtxt_parses_them(self, tmp_path):
        # oracle: np.loadtxt on the same rows, on 30 spellings it accepts
        tokens = ["0", "-0", "+0", "0.0", "-0.0", "1", "+1", "-1", "1.", ".5", "-.5", "+.5",
                  "1e3", "1E3", "1e+3", "1e-3", "1.5e-300", "5e-324", "-2.2250738585072014e-308",
                  "1.7976931348623157e308", "0.1", "0.30000000000000004", "007",
                  "1.0000000000000002", "123456789012345678901234567890", "-1.5E-07", "2.5e+10",
                  "0.000001", "9007199254740993", "4.9406564584124654e-324"]
        rows = [" ".join(tokens[r:r + 6]) for r in range(0, len(tokens), 6)]
        path = tmp_path / "states.txt"
        path.write_text("states 3 5\n" + "\n".join(rows) + "\n")
        block = np.empty((5, 6))
        with open(path) as fh:
            assert udisc_io._content_line(fh) == "states 3 5"
            udisc_io._scan_rows(udisc_io._content(fh, 5), block.reshape(-1), udisc_io._dense_bounds(5, 3), "rows")
        oracle = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        assert np.array_equal(block.view(np.float64).view(np.int64), oracle.view(np.int64))

    def test_spellings_only_float_accepts_still_parse(self, tmp_path):
        # float() takes digit separators, and state and density rows are read by float()
        path = tmp_path / "rho.txt"
        path.write_text("rho 2\n5_0e-2 0 0 0\n0 0 0.5 -0\n")
        assert np.array_equal(read_density(path), np.eye(2) / 2)


@st.composite
def explicit_povms(draw):
    """Explicit POVM files' content: any finite doubles, ±0 and subnormals included."""
    m, n = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    dim = m ** (n + 1)
    floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    parts = draw(arrays(np.float64, (n + 1, dim, 2 * dim), elements=floats))
    return Povm(m=m, n=n, elements=tuple(parts.view(complex)))


class TestPovmRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(povm=explicit_povms())
    @example(povm=Povm(m=2, n=1, elements=tuple(
        np.resize([-0.0, 5e-324, -5e-324, 0.0, -1.5], (2, 4, 8)).view(complex))))
    def test_bit_exact(self, tmp_path_factory, povm):
        path = tmp_path_factory.mktemp("povm") / "explicit.povm"
        write_povm(path, povm)
        loaded = read_povm(path)
        assert (loaded.m, loaded.n) == (povm.m, povm.n)
        assert len(loaded.elements) == len(povm.elements)
        for a, b in zip(loaded.elements, povm.elements):
            assert a.view(float).tobytes() == b.view(float).tobytes()


def row_format_write(path, header, blocks):
    """Oracle for io._write_blocks: one "%.17g" per number, one % operation per row; a block
    is a matrix or a list of rows of differing widths, each a 1-d complex array."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for label, rows in blocks:
            if label is not None:
                fh.write(label + "\n")
            for row in rows:
                row = np.ascontiguousarray(row, dtype=complex)
                fh.write(" ".join(["%.17g %.17g"] * len(row)) % tuple(row.view(float).tolist()) + "\n")


def oracle_povm_bytes(path, povm, layout="dense"):
    """The bytes of povm's elements in the named layout, written by row_format_write, with
    the sector-row rows cut from the dense elements by conftest.sector_rows."""
    k = len(povm.elements)
    labels = [f"element {i}" for i in range(k)]
    if layout == "dense":
        keyword, blocks = "povm", povm.elements
    else:
        keyword, blocks = "povm-sectors", [sector_rows(povm.m, povm.n + 1, e) for e in povm.elements]
    row_format_write(path, f"{keyword} {povm.m} {povm.n} {k}", zip(labels, blocks))
    return path.read_bytes()


# -0.0, ±inf, quiet and payload NaNs of both signs, the extreme subnormals and normals
SPECIAL_BITS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308, 1.0, -0.5]
).view(np.int64).tolist() + [0x7FF0000000000001, 0x7FF8000000000123, -0x0008000000000001]
bit_patterns = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(SPECIAL_BITS))


@st.composite
def bit_blocks(draw):
    """Complex blocks of arbitrary float64 bit patterns, repeats and +0.0 frequent."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    fill = st.sampled_from(SPECIAL_BITS)
    return draw(arrays(np.int64, (rows, 2 * cols), elements=bit_patterns, fill=fill)).view(complex)


@st.composite
def ragged_blocks(draw):
    """(bounds, bits): rows of 1 to 5 complex pairs, one pair (a sector of size 1) frequent,
    row r holding the doubles bounds[r] to bounds[r + 1] of bits, arbitrary bit patterns
    with repeats and +0.0 frequent."""
    pairs = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=1, max_size=12))
    bounds = np.concatenate([[0], np.cumsum(2 * np.array(pairs))])
    fill = st.sampled_from(SPECIAL_BITS)
    return bounds, draw(arrays(np.int64, int(bounds[-1]), elements=bit_patterns, fill=fill))


class TestInternedWriter:
    """io._write_blocks against the row-format oracle, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(block=bit_blocks(), chunk=st.sampled_from([1, 3, 8, 1 << 16]))
    @example(block=np.array(SPECIAL_BITS + [0]).view(complex).reshape(2, 4), chunk=1 << 16)
    @example(block=np.zeros((3, 2), dtype=complex), chunk=1)
    def test_bit_patterns_match_the_oracle(self, tmp_path_factory, block, chunk):
        folder = tmp_path_factory.mktemp("writer")
        blocks = [("block a", block), (None, block[::-1])]
        with mock.patch.object(udisc_io, "WRITE_CHUNK", chunk):
            udisc_io._write_blocks(folder / "new.txt", "head 1",
                                   [(label, udisc_io._numbers(b, udisc_io._dense_bounds(*b.shape)))
                                    for label, b in blocks])
        row_format_write(folder / "old.txt", "head 1", blocks)
        assert (folder / "new.txt").read_bytes() == (folder / "old.txt").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(block=ragged_blocks(), chunk=st.sampled_from([1, 3, 8, 1 << 16]))
    @example(block=(np.array([0, 2, 4, 10, 12, 16]), np.array(SPECIAL_BITS + [0])), chunk=3)
    @example(block=(np.array([0, 2, 4, 6]), np.array([0, 0, -0x8000000000000000, 1, 0, 0])), chunk=1)
    def test_ragged_rows_match_the_oracle_and_read_back(self, tmp_path_factory, block, chunk):
        """Rows of differing widths: _block_text writes the oracle's bytes, and _scan_chunk
        reads every chunk of finite doubles back bit for bit and leaves a chunk with a NaN
        or an infinity to the row scan."""
        bounds, bits = block
        folder = tmp_path_factory.mktemp("ragged")
        at = np.flatnonzero(bits)
        rows = [bits[lo:hi].view(complex) for lo, hi in zip(bounds, bounds[1:])]
        with mock.patch.object(udisc_io, "WRITE_CHUNK", chunk):
            udisc_io._write_blocks(folder / "new.txt", "head 1", [("block a", (bounds, at, bits[at]))])
            row_format_write(folder / "old.txt", "head 1", [("block a", rows)])
            assert (folder / "new.txt").read_bytes() == (folder / "old.txt").read_bytes()
            with open(folder / "new.txt", encoding="ascii") as fh:
                assert [udisc_io._content_line(fh), udisc_io._content_line(fh)] == ["head 1", "block a"]
                for first, stop in udisc_io._chunks(bounds):
                    assert stop - first == 1 or bounds[stop] - bounds[first] <= chunk
                    buf = "".join(itertools.chain("\n", itertools.islice(fh, stop - first))).encode()
                    parsed = udisc_io._scan_chunk(buf, bounds[first:stop + 1] - bounds[first])
                    written = bits[bounds[first]:bounds[stop]]
                    if not np.isfinite(written.view(np.float64)).all():
                        assert parsed is None
                        continue
                    tokens, values = parsed
                    got = np.zeros(len(written))
                    got[tokens] = values
                    assert np.array_equal(got.view(np.int64), written)
                assert udisc_io._content_line(fh) is None

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("chunk", [1, 4 * 54])  # 4 dense rows per chunk does not divide 27 rows
    def test_chunk_size_leaves_the_bytes(self, tmp_path, monkeypatch, layout, chunk):
        povm = build_universal(3, 2)
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        write_povm(tmp_path / "new.povm", in_layout(layout, povm))
        assert (tmp_path / "new.povm").read_bytes() == oracle_povm_bytes(tmp_path / "old.povm", povm, layout)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2),
                                            ("universal", 4, 3), ("trivial", 4, 3)])
    def test_built_povms_match_the_oracle(self, tmp_path, family, m, n, layout):
        povm = family_povm(family, m, n)
        write_povm(tmp_path / "new.povm", in_layout(layout, povm))
        assert (tmp_path / "new.povm").read_bytes() == oracle_povm_bytes(tmp_path / "old.povm", povm, layout)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_temporary_memory_is_bounded(self, tmp_path, layout):
        povm = in_layout(layout, family_povm("optimal", 4, 4))
        elements = povm.elements  # assembled before tracing: the bound excludes them
        tracemalloc.start()
        try:
            write_povm(tmp_path / "o44.povm", povm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < elements[0].nbytes / 4  # 4 MiB, against 5 elements of 16 MiB


def loadtxt_elements(path):
    """Oracle for the POVM reader: each element of a dense file parsed by one np.loadtxt
    call; each row of a sector-row file by one, put at its sector's columns
    (conftest.sector_columns) of a dense element."""
    with open(path, encoding="ascii") as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    keyword, m, n, k = lines[0].split()
    m, n, k = int(m), int(n), int(k)
    dim = m ** (n + 1)
    blocks = [lines[2 + i * (dim + 1):1 + (i + 1) * (dim + 1)] for i in range(k)]
    if keyword == "povm":
        return [np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2) for rows in blocks]
    columns = sector_columns(m, n + 1)
    elements = []
    for rows in blocks:
        element = np.zeros((dim, dim), dtype=complex)
        for x, row in enumerate(rows):
            element[x, columns[x]] = np.loadtxt([row], dtype=np.float64, comments=None, ndmin=1).view(complex)
        elements.append(element.view(np.float64))
    return elements


def same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


# -0.0, the extreme subnormals and normals, and a few ordinary doubles
FINITE_SPECIALS = np.array(
    [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308, 1.0, -0.5, 1 / 3, 0.1]
).view(np.int64).tolist()
finite_bits = st.one_of(
    st.integers(-(2**63), 2**63 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF),
    st.sampled_from(FINITE_SPECIALS),
)


@st.composite
def sparse_povms(draw):
    """Explicit POVMs of finite bit patterns, with a drawn share of +0.0 and repeated values."""
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2)]))
    dim = m ** (n + 1)
    bits = draw(arrays(np.int64, (n + 1, dim, 2 * dim), elements=finite_bits,
                       fill=st.sampled_from(FINITE_SPECIALS)))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits[rng.random(bits.shape) < zero_share] = 0
    return Povm(m=m, n=n, elements=tuple(bits.view(complex)))


@st.composite
def sparse_sector_povms(draw):
    """Sector POVMs (weight-sector entries d_k) of finite bit patterns, with a drawn share of
    +0.0 and repeated values."""
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]))
    size = len(_weight_sectors(m, n + 1).same)
    bits = draw(arrays(np.int64, (n + 1, 2 * size), elements=finite_bits,
                       fill=st.sampled_from(FINITE_SPECIALS)))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits[rng.random(bits.shape) < zero_share] = 0
    return Povm(m=m, n=n, sectors=tuple(bits.view(complex)))


class TestPovmScanner:
    """read_povm against the bits written and against the np.loadtxt oracle."""

    @settings(max_examples=60, deadline=None)
    @given(povm=sparse_povms(), chunk=st.sampled_from([1, 3, 8, 1 << 16]), final_newline=st.booleans())
    def test_bits_match_the_written_and_the_oracle(self, tmp_path_factory, povm, chunk, final_newline):
        path = tmp_path_factory.mktemp("scan") / "p.povm"
        with mock.patch.object(udisc_io, "WRITE_CHUNK", chunk):
            write_povm(path, povm)
            if not final_newline:
                path.write_bytes(path.read_bytes()[:-1])
            loaded = read_povm(path)
        oracle = loadtxt_elements(path)
        assert len(loaded.elements) == len(povm.elements) == len(oracle)
        for got, want, expected in zip(loaded.elements, povm.elements, oracle):
            assert same_bits(got, want)
            assert same_bits(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(povm=sparse_sector_povms(), chunk=st.sampled_from([1, 3, 8, 1 << 16]), final_newline=st.booleans())
    def test_sector_rows_match_the_written_and_the_oracle(self, tmp_path_factory, povm, chunk, final_newline):
        path = tmp_path_factory.mktemp("scan") / "s.povm"
        with mock.patch.object(udisc_io, "WRITE_CHUNK", chunk):
            write_povm(path, povm)
            if not final_newline:
                path.write_bytes(path.read_bytes()[:-1])
            loaded = read_povm(path)
        assert path.read_text().startswith(f"povm-sectors {povm.m} {povm.n} {povm.n + 1}\n")
        assert not loaded._explicit and loaded._elements is None
        for got, want in zip(loaded._sectors, povm._sectors, strict=True):
            assert same_bits(got, want)
        for got, expected in zip(loaded.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2),
                                            ("universal", 4, 3), ("trivial", 4, 3)])
    def test_built_files_match_the_oracle(self, tmp_path, family, m, n, layout):
        path = tmp_path / "b.povm"
        write_povm(path, in_layout(layout, family_povm(family, m, n)))
        for got, expected in zip(read_povm(path).elements, loadtxt_elements(path)):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("family,m,n,chunk", [
        ("universal", 3, 2, 1 << 16), ("optimal", 3, 3, 1 << 16), ("universal", 5, 2, 1 << 16),
        ("universal", 4, 3, 1 << 16), ("trivial", 4, 3, 1 << 16), ("optimal", 4, 4, 1 << 12),
        ("random", 4, 2, 1 << 16),  # standard-normal entries: no "0" token
    ])
    def test_writer_layout_is_read_without_the_row_scan(self, tmp_path, monkeypatch, family, m, n, chunk,
                                                        layout):
        if family == "random":
            rng = np.random.default_rng(12)
            if layout == "dense":
                dim = m ** (n + 1)
                povm = Povm(m=m, n=n, elements=tuple(rng.standard_normal((n + 1, dim, 2 * dim)).view(complex)))
            else:
                size = len(_weight_sectors(m, n + 1).same)
                povm = Povm(m=m, n=n, sectors=tuple(rng.standard_normal((n + 1, 2 * size)).view(complex)))
        else:
            povm = in_layout(layout, family_povm(family, m, n))
        path = tmp_path / "w.povm"
        write_povm(path, povm)
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        monkeypatch.setattr(udisc_io, "_scan_rows", mock.Mock(side_effect=AssertionError("row scan taken")))
        for got, expected in zip(read_povm(path).elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("text,bounds", [
        (b"\n0 1 0 1\n1 0 1 0\n5", [0, 4, 8]),  # content after the last separator
        (b"\n0 1 0 1\n1 0 1\n", [0, 4, 8]),  # the last row one token short
        (b"\n0 1 0\n1 1 0 1 0\n", [0, 4, 8]),  # a row end one token early, made up in the next row
        (b"\n0 1\n0 1\n1 0 1 0\n", [0, 4, 8]),  # a newline in place of a space
        (b"\n0 1 0 1\n1  0 1\n", [0, 4, 8]),  # an empty token
        (b"\n0 1 0 1\n1 0\n", [0, 2, 8]),  # ragged rows swapped: the widths of another layout
        (b"\n0 1\n1 0 1 0 1 0\n", [0, 2, 6]),  # the second row one pair long
        (b"\n0 1\n", [0, 2, 4]),  # a row missing
    ])
    def test_chunks_off_the_writer_layout_are_left_to_the_row_scan(self, text, bounds):
        assert udisc_io._scan_chunk(text, np.array(bounds)) is None
        good = b"# label\n0 1 0 1\n1 0 1 0\n"
        tokens, values = udisc_io._scan_chunk(good[good.index(b"\n"):], np.array([0, 4, 8]))
        out = np.zeros(8)
        out[tokens] = values
        assert np.array_equal(out.reshape(2, 4), [[0, 1, 0, 1], [1, 0, 1, 0]])
        assert tokens.tolist() == [1, 3, 4, 6]  # the "0" tokens are left out
        ragged = b"\n0 1\n1 0 1 0 0 2\n0 0\n"
        tokens, values = udisc_io._scan_chunk(ragged, np.array([0, 2, 8, 10]))
        assert tokens.tolist() == [1, 2, 4, 7] and values.tolist() == [1, 1, 1, 2]

    @staticmethod
    def _edit(lines, edit):
        """Apply a hand edit that keeps every number's value to a POVM file's lines."""
        first = lines.index("element 1") + 1
        if edit == "tabs":
            return [row.replace(" ", "\t", 3) if i % 2 else row for i, row in enumerate(lines)]
        if edit == "double_spaces":
            return [row.replace(" ", "  ") if first + 2 <= i < first + 6 else row
                    for i, row in enumerate(lines)]
        if edit == "surrounding_whitespace":
            return [f"  {row}\t " if i == first + 3 else row for i, row in enumerate(lines)]
        if edit == "comments_and_blank_lines":
            # inside a chunk, at a chunk boundary, at a block's end and before a label
            at = {first + 2: ["# note"], first + 4: ["", "#"], first + 27: ["  ", "# end"]}
            out = []
            for i, row in enumerate(lines):
                out += at.get(i, []) + [row]
            return out
        if edit == "spellings":  # float() takes all of these; np.loadtxt refuses "_"
            respell = {"0": ["0.0", "00", "+0", "0e5", "0_0", "0"], "1": ["1.0", "1_0e-1"],
                       "-0": ["-0.0", "-0e-3"], "0.25": ["2.5e-1", ".25"], "0.5": ["5_0e-2", "0.50"]}
            out = []
            for i, row in enumerate(lines):
                tokens = row.split(" ")
                if len(tokens) > 5:
                    for j, token in enumerate(tokens):
                        spellings = respell.get(token, [token])
                        tokens[j] = spellings[(i + j) % len(spellings)]
                out.append(" ".join(tokens))
            return out
        raise ValueError(edit)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("chunk", [4 * 54, 1 << 16])  # 4 dense rows of 27 per chunk, or a whole block
    @pytest.mark.parametrize("edit", ["tabs", "double_spaces", "surrounding_whitespace",
                                      "comments_and_blank_lines", "spellings", "crlf", "cr"])
    def test_hand_edited_files_read_the_same_doubles(self, tmp_path, monkeypatch, chunk, edit, layout):
        povm = build_universal(3, 2)
        path = tmp_path / "e.povm"
        write_povm(path, in_layout(layout, povm))
        lines = path.read_text().splitlines()
        if edit in ("crlf", "cr"):
            end = {"crlf": "\r\n", "cr": "\r"}[edit]
            path.write_bytes((end.join(lines) + end).encode("ascii"))
        else:
            path.write_text("\n".join(self._edit(lines, edit)) + "\n")
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        row_scan = mock.Mock(wraps=udisc_io._scan_rows)
        monkeypatch.setattr(udisc_io, "_scan_rows", row_scan)
        loaded = read_povm(path)
        assert loaded._explicit == (layout == "dense")  # the header word picks the representation
        assert loaded._explicit or loaded._elements is None
        assert loaded._sectors is not None  # no off-sector mass, on either layout
        for got, want in zip(loaded.elements, povm.elements, strict=True):
            assert same_bits(got, want)
        if edit in ("crlf", "cr"):
            assert not row_scan.called
        elif edit != "spellings":
            assert row_scan.called

    # universal (3,2): row 11 is |101>, of the sector {011, 101, 110}; row 12 is |102>, of a
    # sector of 6; row 27 is |222>, a sector of its own
    DENSE_ROW_ERRORS = [
        (2, "x", "element 2 row 11 contains a non-numeric token"),
        (2, "0-5", "element 2 row 11 contains a non-numeric token"),  # "-5" after its "0"
        (2, "0é", "element 2 row 11 contains a non-numeric token"),  # a byte outside ASCII
        (2, "nan", "element 2 row 11 holds a non-finite number"),
        (2, "inf", "element 2 row 11 holds a non-finite number"),
        (2, "-inf", "element 2 row 11 holds a non-finite number"),
        (2, "extra", r"element 2 row 11 needs 27 complex pairs \(54 numbers\), got 55"),
        (2, "short", r"element 2 row 11 needs 27 complex pairs \(54 numbers\), got 53"),
        (2, "gap", r"element 2 row 11 needs 27 complex pairs \(54 numbers\), got 53"),
        (2, "missing", r"element 2 row 27 needs 27 complex pairs \(54 numbers\), got 0"),
        (1, "missing", r"element 1 row 27 needs 27 complex pairs \(54 numbers\), got 2"),
        (2, "last", r"element 2 row 27 needs 27 complex pairs \(54 numbers\), got 0"),
    ]
    SECTOR_ROW_ERRORS = [
        (2, "x", "element 2 row 11 contains a non-numeric token"),
        (2, "0-5", "element 2 row 11 contains a non-numeric token"),
        (2, "0é", "element 2 row 11 contains a non-numeric token"),
        (2, "nan", "element 2 row 11 holds a non-finite number"),
        (2, "inf", "element 2 row 11 holds a non-finite number"),
        (2, "-inf", "element 2 row 11 holds a non-finite number"),
        (2, "extra", r"element 2 row 11 needs 3 complex pairs \(6 numbers\), got 7"),
        (2, "short", r"element 2 row 11 needs 3 complex pairs \(6 numbers\), got 5"),
        (2, "gap", r"element 2 row 11 needs 3 complex pairs \(6 numbers\), got 5"),
        (2, "missing", r"element 2 row 11 needs 3 complex pairs \(6 numbers\), got 12"),
        (1, "missing", r"element 1 row 11 needs 3 complex pairs \(6 numbers\), got 12"),
        (2, "last", r"element 2 row 27 needs 1 complex pairs \(2 numbers\), got 0"),
        (1, "last", "element 1 row 27 contains a non-numeric token"),  # "element 2", two tokens
    ]

    @pytest.mark.parametrize("chunk", [4 * 54, 1 << 16])
    @pytest.mark.parametrize("layout,element,defect,message", [("dense", *e) for e in DENSE_ROW_ERRORS]
                             + [("sector", *e) for e in SECTOR_ROW_ERRORS])
    def test_errors_name_the_block_and_row(self, tmp_path, monkeypatch, chunk, layout, element, defect, message):
        path = tmp_path / "bad.povm"
        write_povm(path, in_layout(layout, build_universal(3, 2)))
        lines = path.read_text().splitlines()
        row = lines.index(f"element {element}") + (27 if defect == "last" else 11)
        if defect in ("missing", "last"):
            del lines[row]
        elif defect == "extra":
            lines[row] += " 0"
        elif defect == "short":
            lines[row] = lines[row].rsplit(" ", 1)[0]
        elif defect == "gap":  # a token gone and two spaces in its place: as many separators
            tokens = lines[row].split(" ")
            lines[row] = tokens[0] + "  " + " ".join(tokens[2:])
        else:
            lines[row] = lines[row].replace("0", defect, 1)
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        with pytest.raises(FormatError, match=message):
            read_povm(path)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("chunk", [1 << 12, 1 << 16])
    def test_temporary_memory_is_set_by_the_chunk(self, tmp_path, monkeypatch, chunk, layout):
        path = tmp_path / "u43.povm"
        # dense: 1.1 MB, four blocks of 256 rows of 512 numbers; sector rows: 105 KB
        write_povm(path, in_layout(layout, family_povm("universal", 4, 3)))
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        read_povm(path)
        tracemalloc.start()
        try:
            povm = read_povm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a sector-row file keeps its sector entries only, a dense file its dense elements
        assert povm._explicit == (layout == "dense")
        held = povm.elements if povm._explicit else povm._sectors
        assert peak - sum(a.nbytes for a in held) < 20 * chunk + (64 << 10)


CERTIFY = [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2), ("universal", 4, 3), ("trivial", 4, 3)]


def with_off_sector_token(path, element, row, value="1e-3"):
    """Edit one "0" token of a built file, the real part of the first pair of the row that
    lies outside the row's weight sector, into value; returns its (row, column)."""
    povm = read_povm(path)
    index = _weight_sectors(povm.m, povm.n + 1)
    dim = povm.dim
    inside = index.same[(index.same // dim) == row] % dim
    column = int(np.setdiff1d(np.arange(dim), inside)[0])
    lines = path.read_text().split("\n")
    at = lines.index(f"element {element}") + 1 + row
    tokens = lines[at].split(" ")
    assert tokens[2 * column] == "0"
    tokens[2 * column] = value
    lines[at] = " ".join(tokens)
    path.write_text("\n".join(lines))
    return row, column


def with_sector_token(path, element, row, value):
    """Edit one token of a sector-row file, the imaginary part of the row's first pair (row,
    y), y the least of the row's weight sector ("0" in a built file), into value; returns
    its (row, column)."""
    povm = read_povm(path)
    column = int(sector_columns(povm.m, povm.n + 1)[row][0])
    lines = path.read_text().split("\n")
    at = lines.index(f"element {element}") + 1 + row
    tokens = lines[at].split(" ")
    assert tokens[1] == "0"
    tokens[1] = value
    lines[at] = " ".join(tokens)
    path.write_text("\n".join(lines))
    return row, column


class TestSectorRoute:
    """A sector-row file is read as weight-sector entries and a dense file as its explicit
    elements; the checks take the sector route on both while nothing lies off the sectors."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("family,m,n", ROUND_TRIP)
    def test_read_back_and_written_again_gives_the_same_bytes(self, tmp_path, family, m, n, layout):
        path = tmp_path / "built.povm"
        write_povm(path, in_layout(layout, family_povm(family, m, n)))
        povm = read_povm(path)
        assert povm._explicit == (layout == "dense")  # the header word picks the representation
        assert povm._explicit or povm._elements is None
        write_povm(tmp_path / "again.povm", povm)  # in the layout it was read from
        assert povm._explicit or povm._elements is None
        assert (tmp_path / "again.povm").read_bytes() == path.read_bytes()
        write_povm(tmp_path / "sector.povm", Povm(m, n, sectors=povm._sectors))
        assert oracle_povm_bytes(tmp_path / "oracle.povm", povm, layout) == path.read_bytes()
        sector_bytes = oracle_povm_bytes(tmp_path / "oracle.povm", povm, "sector")
        assert (tmp_path / "sector.povm").read_bytes() == sector_bytes

    @pytest.mark.parametrize("family,m,n", CERTIFY + [("optimal", 2, 2), ("optimal", 4, 4)])
    def test_both_layouts_read_to_the_same_sector_entries(self, tmp_path, family, m, n):
        built = family_povm(family, m, n)
        write_povm(tmp_path / "s.povm", built)
        write_povm(tmp_path / "d.povm", Povm(m, n, elements=built.elements))
        assert (tmp_path / "s.povm").stat().st_size < (tmp_path / "d.povm").stat().st_size
        sector, dense = read_povm(tmp_path / "s.povm"), read_povm(tmp_path / "d.povm")
        for a, b, c in zip(sector._sectors, dense._sectors, built._sectors, strict=True):
            assert same_bits(a, b) and same_bits(a, c)

    @pytest.mark.parametrize("family,m,n", CERTIFY)
    @pytest.mark.parametrize("element,row", [(0, 0), (-1, -1), (1, 5)])
    def test_both_reader_routes_match_loadtxt(self, tmp_path, family, m, n, element, row):
        path = tmp_path / "built.povm"
        built = family_povm(family, m, n)
        write_povm(path, Povm(m, n, elements=built.elements))
        sector = read_povm(path)
        for got, expected in zip(sector.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)
        element, row = element % (n + 1), row % m ** (n + 1)
        with_off_sector_token(path, element, row)
        dense = read_povm(path)
        assert dense._explicit
        for got, expected in zip(dense.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("family,m,n", CERTIFY)
    @pytest.mark.parametrize("element,row", [(0, 0), (-1, -1), (1, 5)])
    def test_sector_rows_with_an_edited_token_match_loadtxt(self, tmp_path, family, m, n, element, row):
        path = tmp_path / "built.povm"
        write_povm(path, family_povm(family, m, n))
        for got, expected in zip(read_povm(path).elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)
        element, row = element % (n + 1), row % m ** (n + 1)
        row, column = with_sector_token(path, element, row, "1e-3")
        edited = read_povm(path)
        assert not edited._explicit and edited.elements[element][row, column].imag == 1e-3
        for got, expected in zip(edited.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("value", ["-0", "-0.0", "0.0", "+0"])
    def test_signed_zero_off_the_sectors_keeps_its_sign(self, tmp_path, value):
        """A dense file's elements keep a signed zero off the sectors; it is no mass, so
        the checks keep the sector route."""
        path = tmp_path / "built.povm"
        write_povm(path, Povm(3, 2, elements=family_povm("universal", 3, 2).elements))
        built = path.read_bytes()
        row, column = with_off_sector_token(path, 2, 26, value)
        povm = read_povm(path)
        assert povm._explicit and povm._sectors is not None
        assert np.signbit(povm.elements[2][row, column].real) == value.startswith("-")
        for got, expected in zip(povm.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)
        write_povm(tmp_path / "again.povm", povm)
        assert ((tmp_path / "again.povm").read_bytes() == built) != value.startswith("-")

    @pytest.mark.parametrize("value", ["-0", "-0.0", "0.0", "+0"])
    def test_signed_zero_in_a_sector_row_file_keeps_its_sign(self, tmp_path, value):
        path = tmp_path / "built.povm"
        write_povm(path, family_povm("universal", 3, 2))
        built = path.read_bytes()
        row, column = with_sector_token(path, 2, 26, value)
        povm = read_povm(path)
        assert not povm._explicit
        assert np.signbit(povm.elements[2][row, column].imag) == value.startswith("-")
        for got, expected in zip(povm.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)
        write_povm(tmp_path / "again.povm", povm)
        assert ((tmp_path / "again.povm").read_bytes() == built) != value.startswith("-")

    def test_write_read_verify_peak_is_under_a_quarter_of_an_element(self, tmp_path):
        """At (optimal,4,4) a built POVM is written, read back, verified and checked for
        covariance on its weight-sector entries, with no 16 MiB dense element."""
        povm = family_povm("optimal", 4, 4)
        path = tmp_path / "o44.povm"
        write_povm(path, povm)  # forms the sector entries and the index maps, once per process
        check_covariance(read_povm(path))
        verify_unambiguous(read_povm(path))
        tracemalloc.start()
        try:
            write_povm(path, povm)
            loaded = read_povm(path)
            assert verify_unambiguous(loaded).passed and check_covariance(loaded).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded._elements is None
        assert peak < (16 << 20) / 4


class TestWritersRefuseNonFinite:
    """A NaN or an infinity, which every reader refuses, is refused by the state and density
    writers before the file is opened, with the reader's message: the block and the first
    row holding one.  A Povm holding one cannot be made, so write_povm never sees it."""

    @staticmethod
    def _set(array, row, column, part, value):
        array.view(np.float64)[row, 2 * column + part] = value

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("kind", ["states", "density"])
    def test_states_and_density(self, tmp_path, kind, part, value):
        if kind == "states":
            block, write, where = np.eye(3, dtype=complex)[:2].copy(), write_states, "state set"
        else:
            block, write, where = np.eye(2, dtype=complex) / 2, write_density, "density matrix"
        path = tmp_path / f"{kind}.txt"
        write(path, block)
        before = path.read_bytes()
        self._set(block, 1, 0, part, value)
        with pytest.raises(FormatError, match=f"{where} row 2 holds a non-finite number$"):
            write(path, block)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_povm(self, tmp_path, layout, part, value):
        """In either layout the POVM that would be written is refused when it is made,
        naming the element, and the file keeps its bytes."""
        built = build_universal(3, 2)
        path = tmp_path / "u32.povm"
        write_povm(path, in_layout(layout, built))
        before = path.read_bytes()
        with pytest.raises(InvalidPovm, match=r"^element 1 holds a NaN or an infinity$"):
            if layout == "dense":
                elements = [e.copy() for e in built.elements]
                self._set(elements[1], 20, 20, part, value)
                self._set(elements[1], 4, 10, part, value)
                write_povm(path, Povm(3, 2, elements=elements))
            else:
                sectors = [d.copy() for d in built._sectors]
                # the first entry of row 26, then the first of row 22
                first_of_rows = _weight_sectors(3, 3).row_bounds[[25, 21]] // 2
                sectors[1][first_of_rows] = [complex(value, 0), complex(0, value)][part]
                write_povm(path, Povm(3, 2, sectors=sectors))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("row", [0, 13, 26])
    def test_writer_names_the_row_read_povm_names_in_an_edited_sector_file(self, tmp_path, row):
        """A NaN typed into one row of a sector-row file is named by read_povm, by its row;
        the entries with that NaN in the same place are refused when the Povm is made,
        naming the element, so write_povm never sees them."""
        built = build_universal(3, 2)
        path = tmp_path / "u32.povm"
        write_povm(path, built)
        with_sector_token(path, 1, row, "nan")
        with pytest.raises(FormatError, match=f"element 1 row {row + 1} holds a non-finite number$"):
            read_povm(path)
        edited = path.read_bytes()
        sectors = [d.copy() for d in built._sectors]
        sectors[1].view(np.float64)[_weight_sectors(3, 3).row_bounds[row] + 1] = np.nan  # the token's number
        with pytest.raises(InvalidPovm, match=r"^element 1 holds a NaN or an infinity$"):
            write_povm(path, Povm(3, 2, sectors=sectors))
        assert path.read_bytes() == edited


SHAPE = " with every size at least 1"


@pytest.mark.parametrize("write,block,message", [
    (write_states, np.ones(2) / np.sqrt(2), "state set of shape (2,), expected n x m" + SHAPE),
    (write_states, np.ones((1, 1, 1)), "state set of shape (1, 1, 1), expected n x m" + SHAPE),
    (write_states, np.ones((0, 2)), "state set of shape (0, 2), expected n x m" + SHAPE),
    (write_states, np.ones((1, 0)), "state set of shape (1, 0), expected n x m" + SHAPE),
    (write_states, [[2.0, 0.0]], "state 1 has norm 2.0, too far from 1"),
    (write_states, [[1.0, 0.0], [0.0, 0.0]], "state 2 has norm 0.0, too far from 1"),
    (write_density, np.full((2, 3), 0.5), "density matrix of shape (2, 3), expected d x d" + SHAPE),
    (write_density, np.eye(2)[None] / 2, "density matrix of shape (1, 2, 2), expected d x d" + SHAPE),
    (write_density, np.ones(1), "density matrix of shape (1,), expected d x d" + SHAPE),
    (write_density, np.ones((0, 0)), "density matrix of shape (0, 0), expected d x d" + SHAPE),
    (write_density, np.eye(2), "trace is 2.0, expected 1"),
    (write_density, [[0.5, 1], [0, 0.5]], "matrix is not Hermitian (deviation 1.000e+00)"),
], ids=["states-vector", "states-3d", "states-none", "states-empty", "states-norm", "states-zero",
        "density-2x3", "density-3d", "density-vector", "density-empty", "density-trace", "density-hermitian"])
def test_writers_refuse_a_shape_the_reader_refuses(tmp_path, write, block, message):
    """What a reader refuses, its writer refuses with the reader's message, and no file
    is created."""
    path = tmp_path / "file.txt"
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        write(path, block)
    assert not path.exists()


@pytest.mark.parametrize("write,read,block", [
    (write_states, read_states, [[1 + 1e-8, 0.0]]),
    (write_density, read_density, [[0.5 + 1e-9, 1e-9], [0.0, 0.5]]),
], ids=["states", "density"])
def test_writers_write_as_given_what_the_reader_repairs(tmp_path, write, read, block):
    """A norm or a trace within the reader's repair tolerance is written unrepaired."""
    path = tmp_path / "file.txt"
    write(path, block)
    rows = path.read_text().splitlines()[1:]
    assert np.array_equal(np.array([r.split() for r in rows], dtype=float).view(complex), np.asarray(block))
    read(path)


@pytest.mark.parametrize("reader,text,message", [
    (read_states, "", "empty file"),
    (read_states, "# only a comment\n\n", "empty file"),
    (read_states, "states x 2\n1 0 0 0\n", "header fields must be integers"),
    (read_states, "states 0 2\n", "header fields must be positive"),
    (read_povm, "povm-sectors 1 2 3\nelem 0\n1 0\n", "expected 'element 0', got 'elem 0'"),
    (read_states, "states 2 1\n1 0 0 0\n0 0 1 0\n", "content after the last state set row"),
    (read_density, "", "empty file"),
    (read_density, "rho x\n", "header fields must be integers"),
    (read_density, "rho 1\n1 0\n1 0\n", "content after the last density matrix row"),
    (read_povm, "rho 2\n1 0 0 0\n0 0 1 0\n",
     "expected header 'povm <int> <int> <int>' or 'povm-sectors <int> <int> <int>'"),
    (read_povm, "povm 1 1 2\nelem 0\n1 0\n", "expected 'element 0', got 'elem 0'"),
    # a built (universal, 3, 2) file in the named layout, then a row too many
    (read_povm, ("dense", "0 0\n"), "content after the last POVM element row"),
    (read_povm, ("sector", "0 0\n"), "content after the last POVM element row"),
])
def test_file_structure_refusals_name_the_defect(tmp_path, reader, text, message):
    path = tmp_path / "file.txt"
    if isinstance(text, tuple):
        layout, text = text
        write_povm(path, in_layout(layout, build_universal(3, 2)))
        text = path.read_text() + text
    path.write_text(text)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        reader(path)


def _povm_attempts():
    """(name, m, n, the form's keyword) over m, n in -1..3 and every form: explicit and sector
    ones with n, n+1 or n+2 blocks of the right or a wrong size, and each family by name."""
    for m, n in itertools.product(range(-1, 4), range(-1, 3)):
        dim = m ** (n + 1) if m > 0 and n > 0 else 1
        size = len(_weight_sectors(m, n + 1).same) if m > 0 and n > 0 else 1
        for count, grow in itertools.product((n, n + 1, n + 2), (0, 1)):
            blocks = max(count, 0)
            yield f"explicit-{m}-{n}-{count}-{grow}", m, n, {"elements": [np.eye(dim + grow) / max(blocks, 1)] * blocks}
            yield f"sector-{m}-{n}-{count}-{grow}", m, n, {"sectors": [np.zeros(size + grow)] * blocks}
        for family in ("optimal", "universal", "trivial", "bogus"):
            yield f"{family}-{m}-{n}", m, n, {"family": family}


def test_no_povm_the_writer_takes_has_a_header_the_reader_refuses(tmp_path):
    written = set()
    for name, m, n, form in _povm_attempts():
        try:
            povm = Povm(m, n, **form)
        except (InvalidPovm, WrongRegime, ValueError):
            continue
        path = tmp_path / f"{name}.povm"
        write_povm(path, povm)
        header = path.read_text().split("\n", 1)[0].split()
        assert [int(v) for v in header[1:]] == [m, n, n + 1] and m >= 1 and n >= 1
        again = read_povm(path)
        assert (again.m, again.n, again._explicit) == (m, n, povm._explicit)
        written.add(name.split("-")[0])
    assert written == {"explicit", "sector", "optimal", "universal", "trivial"}


class TestSectorRowFiles:
    """Headers of the sector-row layout, refused before any row is read."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_element_count_other_than_n_plus_1_is_refused(self, tmp_path, k):
        path = tmp_path / "k.povm"
        path.write_text(f"povm-sectors 3 2 {k}\nelement 0\n1 0\n")
        with pytest.raises(FormatError, match=rf"declares {k} elements; a POVM on n=2 states has n\+1 = 3"):
            read_povm(path)

    def test_oversized_header_is_refused_before_its_dimension_is_formed(self, tmp_path):
        path = tmp_path / "huge.povm"
        path.write_text("povm-sectors 1000000 1000000 1000001\nelement 0\n0 0\n")
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=rf"^1000000\^1000001x1000000\^1000001 POVM element exceeds "
                                              rf"the cap of {DEFAULT_ENTRY_CAP} complex entries$"):
            read_povm(path)
        assert time.perf_counter() - start < 1.0

    def test_element_size_is_checked_against_the_budget(self, tmp_path):
        path = tmp_path / "u32.povm"
        write_povm(path, build_universal(3, 2))  # 27 x 27 = 729 entries per element, 1585 bytes
        with entry_cap(728), pytest.raises(CapExceeded, match="27x27 POVM element"):
            read_povm(path)
        with entry_cap(729):
            assert verify_unambiguous(read_povm(path)).passed

    @pytest.mark.parametrize("header", ["povm-sector 3 2 3", "sectors 3 2 3", "povm-sectors 3 2"])
    def test_unknown_header_names_both_layouts(self, tmp_path, header):
        path = tmp_path / "h.povm"
        path.write_text(header + "\nelement 0\n1 0\n")
        with pytest.raises(FormatError, match="expected header 'povm <int> <int> <int>' or "
                                              "'povm-sectors <int> <int> <int>'"):
            read_povm(path)
