import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import rand_density, rand_states
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
from udisc.errors import FormatError
from udisc.io import read_density, read_povm, read_states, write_density, write_povm, write_states
from udisc.tensor_algebra import max_abs


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(90)
        states = rand_states(3, 4, rng)
        path = tmp_path / "states.txt"
        write_states(path, states, comment="fixture")
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

    def test_truncated_povm(self, tmp_path):
        povm = build_universal(3, 2)
        path = tmp_path / "povm.txt"
        write_povm(path, povm)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(FormatError):
            read_povm(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "povm.txt"
        path.write_text("povm 3 2\nelement 0\n")
        with pytest.raises(FormatError):
            read_povm(path)

    def test_writer_refuses_a_count_the_reader_refuses(self, tmp_path):
        path = tmp_path / "povm.txt"
        povm = Povm(m=2, n=1, elements=[np.eye(4) / 3] * 3)
        with pytest.raises(FormatError, match="declares 3 elements; a POVM on n=1 states has n"):
            write_povm(path, povm)
        assert not path.exists()

    @pytest.mark.parametrize("token,message", [("x", "element 1 row 3 contains a non-numeric"),
                                               ("1 2", r"element 1 row 3 needs 8 complex pairs \(16 numbers\), got 17")])
    def test_errors_name_the_row(self, tmp_path, token, message):
        path = tmp_path / "povm.txt"
        write_povm(path, build_optimal_equal(2))
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
        _, (block,) = udisc_io._read_blocks(path, "states", 2, lambda m, n: ([None], n, m, "state set"))
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


def row_format_write(path, header, blocks, comment=None):
    """Oracle for io._write_blocks: one "%.17g" per number, one % operation per row."""
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


def oracle_povm_bytes(path, povm):
    k = len(povm.elements)
    labels = [f"element {i}" for i in range(k)]
    row_format_write(path, f"povm {povm.m} {povm.n} {k}", zip(labels, povm.elements))
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
                                   [(label, udisc_io._dense_numbers(b)) for label, b in blocks], comment="c")
        row_format_write(folder / "old.txt", "head 1", blocks, comment="c")
        assert (folder / "new.txt").read_bytes() == (folder / "old.txt").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 4 * 54])  # 4 rows per chunk does not divide 27 rows
    def test_chunk_size_leaves_the_bytes(self, tmp_path, monkeypatch, chunk):
        povm = build_universal(3, 2)
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        write_povm(tmp_path / "new.povm", povm)
        assert (tmp_path / "new.povm").read_bytes() == oracle_povm_bytes(tmp_path / "old.povm", povm)

    @pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2),
                                            ("universal", 4, 3), ("trivial", 4, 3)])
    def test_built_povms_match_the_oracle(self, tmp_path, family, m, n):
        povm = family_povm(family, m, n)
        write_povm(tmp_path / "new.povm", povm)
        assert (tmp_path / "new.povm").read_bytes() == oracle_povm_bytes(tmp_path / "old.povm", povm)

    def test_temporary_memory_is_bounded(self, tmp_path):
        povm = family_povm("optimal", 4, 4)
        elements = povm.elements  # assembled before tracing: the bound excludes them
        tracemalloc.start()
        try:
            write_povm(tmp_path / "o44.povm", povm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < elements[0].nbytes / 4  # 4 MiB, against 5 elements of 16 MiB


def loadtxt_elements(path):
    """Oracle for the POVM reader: each element block parsed by one np.loadtxt call."""
    with open(path, encoding="ascii") as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    m, n, k = (int(f) for f in lines[0].split()[1:])
    dim = m ** (n + 1)
    return [np.loadtxt(lines[2 + i * (dim + 1):1 + (i + 1) * (dim + 1)], dtype=np.float64,
                       comments=None, ndmin=2) for i in range(k)]


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

    @pytest.mark.parametrize("family,m,n", [("universal", 3, 2), ("optimal", 3, 3), ("universal", 5, 2),
                                            ("universal", 4, 3), ("trivial", 4, 3)])
    def test_built_files_match_the_oracle(self, tmp_path, family, m, n):
        path = tmp_path / "b.povm"
        write_povm(path, family_povm(family, m, n))
        for got, expected in zip(read_povm(path).elements, loadtxt_elements(path)):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("family,m,n,chunk", [
        ("universal", 3, 2, 1 << 16), ("optimal", 3, 3, 1 << 16), ("universal", 5, 2, 1 << 16),
        ("universal", 4, 3, 1 << 16), ("trivial", 4, 3, 1 << 16), ("optimal", 4, 4, 1 << 12),
        ("dense", 4, 2, 1 << 16),  # standard-normal entries: no "0" token
    ])
    def test_writer_layout_is_read_without_the_row_scan(self, tmp_path, monkeypatch, family, m, n, chunk):
        if family == "dense":
            dim = m ** (n + 1)
            bits = np.random.default_rng(12).standard_normal((n + 1, dim, 2 * dim))
            povm = Povm(m=m, n=n, elements=tuple(bits.view(complex)))
        else:
            povm = family_povm(family, m, n)
        path = tmp_path / "w.povm"
        write_povm(path, povm)
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        monkeypatch.setattr(udisc_io, "_scan_rows", mock.Mock(side_effect=AssertionError("row scan taken")))
        for got, expected in zip(read_povm(path).elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("text", [
        b"\n0 1 0 1\n1 0 1 0\n5",  # content after the last separator
        b"\n0 1 0 1\n1 0 1\n",  # the last row one token short
        b"\n0 1 0\n1 1 0 1 0\n",  # a row end one token early, made up in the next row
        b"\n0 1\n0 1\n1 0 1 0\n",  # a newline in place of a space
        b"\n0 1 0 1\n1  0 1\n",  # an empty token
    ])
    def test_chunks_off_the_writer_layout_are_left_to_the_row_scan(self, text):
        assert udisc_io._scan_chunk(text, 0, len(text) - 1, 2, 4) is None
        good = b"# label\n0 1 0 1\n1 0 1 0\n"
        tokens, values = udisc_io._scan_chunk(good, 7, len(good) - 1, 2, 4)
        out = np.zeros(8)
        out[tokens] = values
        assert np.array_equal(out.reshape(2, 4), [[0, 1, 0, 1], [1, 0, 1, 0]])
        assert tokens.tolist() == [1, 3, 4, 6]  # the "0" tokens are left out

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

    @pytest.mark.parametrize("chunk", [4 * 54, 1 << 16])  # 4 rows of 27 per chunk, or a whole block
    @pytest.mark.parametrize("edit", ["tabs", "double_spaces", "surrounding_whitespace",
                                      "comments_and_blank_lines", "spellings", "crlf"])
    def test_hand_edited_files_read_the_same_doubles(self, tmp_path, monkeypatch, chunk, edit):
        povm = build_universal(3, 2)
        path = tmp_path / "e.povm"
        write_povm(path, povm)
        lines = path.read_text().splitlines()
        if edit == "crlf":
            path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
        else:
            path.write_text("\n".join(self._edit(lines, edit)) + "\n")
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        for got, want in zip(read_povm(path).elements, povm.elements):
            assert same_bits(got, want)

    @pytest.mark.parametrize("chunk", [4 * 54, 1 << 16])
    @pytest.mark.parametrize("element,defect,message", [
        (2, "x", "element 2 row 11 contains a non-numeric token"),
        (2, "0-5", "element 2 row 11 contains a non-numeric token"),  # "-5" after its "0"
        (2, "nan", "element 2 row 11 holds a non-finite number"),
        (2, "inf", "element 2 row 11 holds a non-finite number"),
        (2, "-inf", "element 2 row 11 holds a non-finite number"),
        (2, "extra", r"element 2 row 11 needs 27 complex pairs \(54 numbers\), got 55"),
        (2, "gap", r"element 2 row 11 needs 27 complex pairs \(54 numbers\), got 53"),
        (2, "missing", r"element 2 row 27 needs 27 complex pairs \(54 numbers\), got 0"),
        (1, "missing", r"element 1 row 27 needs 27 complex pairs \(54 numbers\), got 2"),
    ])
    def test_errors_name_the_block_and_row(self, tmp_path, monkeypatch, chunk, element, defect, message):
        path = tmp_path / "bad.povm"
        write_povm(path, build_universal(3, 2))
        lines = path.read_text().splitlines()
        row = lines.index(f"element {element}") + 11
        if defect == "missing":
            del lines[row]
        elif defect == "extra":
            lines[row] += " 0"
        elif defect == "gap":  # a token gone and two spaces in its place: as many separators
            tokens = lines[row].split(" ")
            lines[row] = tokens[0] + "  " + " ".join(tokens[2:])
        else:
            lines[row] = lines[row].replace("0", defect, 1)
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        with pytest.raises(FormatError, match=message):
            read_povm(path)

    @pytest.mark.parametrize("chunk", [1 << 12, 1 << 16])
    def test_temporary_memory_is_set_by_the_chunk(self, tmp_path, monkeypatch, chunk):
        path = tmp_path / "u43.povm"
        write_povm(path, family_povm("universal", 4, 3))  # 1.1 MB, four blocks of 256 rows
        monkeypatch.setattr(udisc_io, "WRITE_CHUNK", chunk)
        read_povm(path)
        tracemalloc.start()
        try:
            povm = read_povm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not povm._explicit  # a built file keeps its sector entries only
        assert peak - sum(d.nbytes for d in povm._sectors) < 20 * chunk + (64 << 10)


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


class TestSectorRoute:
    """A built file is read as weight-sector entries; any off-sector mass sends it dense."""

    @pytest.mark.parametrize("family,m,n", CERTIFY + [("optimal", 2, 2), ("optimal", 4, 4)])
    def test_read_back_and_written_again_gives_the_same_bytes(self, tmp_path, family, m, n):
        path = tmp_path / "built.povm"
        write_povm(path, family_povm(family, m, n))
        povm = read_povm(path)
        assert not povm._explicit and povm._elements is None
        write_povm(tmp_path / "again.povm", povm)
        assert povm._elements is None
        assert (tmp_path / "again.povm").read_bytes() == path.read_bytes()
        assert oracle_povm_bytes(tmp_path / "oracle.povm", povm) == path.read_bytes()

    @pytest.mark.parametrize("family,m,n", CERTIFY)
    @pytest.mark.parametrize("element,row", [(0, 0), (-1, -1), (1, 5)])
    def test_both_reader_routes_match_loadtxt(self, tmp_path, family, m, n, element, row):
        path = tmp_path / "built.povm"
        write_povm(path, family_povm(family, m, n))
        sector = read_povm(path)
        for got, expected in zip(sector.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)
        element, row = element % (n + 1), row % m ** (n + 1)
        with_off_sector_token(path, element, row)
        dense = read_povm(path)
        assert dense._explicit
        for got, expected in zip(dense.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("value", ["-0", "-0.0", "0.0", "+0"])
    def test_signed_zero_off_the_sectors_goes_dense_and_plus_zero_does_not(self, tmp_path, value):
        path = tmp_path / "built.povm"
        write_povm(path, family_povm("universal", 3, 2))
        with_off_sector_token(path, 2, 26, value)
        povm = read_povm(path)
        assert povm._explicit == value.startswith("-")
        for got, expected in zip(povm.elements, loadtxt_elements(path), strict=True):
            assert same_bits(got, expected)

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
