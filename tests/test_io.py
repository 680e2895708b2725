import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from udisc.discriminator import (
    Povm,
    build_optimal_equal,
    build_trivial_antisym,
    build_universal,
    verify_unambiguous,
)
from udisc.errors import FormatError
from udisc.io import read_density, read_povm, read_states, write_density, write_povm, write_states
from udisc.random_states import rand_density, rand_states
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

    def test_spellings_only_float_accepts_still_parse(self, tmp_path):
        # np.loadtxt refuses digit separators; the row scan reads them as float() does
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
