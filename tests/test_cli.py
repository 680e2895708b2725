import argparse
import io
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROUND_TRIP, rand_independent_states, rand_states
from udisc.cli import _parser, main
from udisc.config import DEFAULT_ENTRY_CAP
from udisc.discriminator import FAMILIES, Povm
from udisc.io import read_povm, write_density, write_povm, write_states


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def orthonormal_pair_file(tmp_path, m=3):
    path = tmp_path / "pair.txt"
    write_states(path, np.eye(m, dtype=complex)[:2])
    return str(path)


def leaky_povm_file(tmp_path):
    dim = 8
    eye = np.eye(dim, dtype=complex)
    povm = Povm(m=2, n=2, elements=(eye / 2, eye / 2, np.zeros((dim, dim), dtype=complex)))
    path = tmp_path / "leaky.povm"
    write_povm(path, povm)
    return str(path)


class TestBuild:
    def test_universal_prints_c(self, tmp_path, capsys):
        out_file = str(tmp_path / "u.povm")
        code, out, _ = run(capsys, "build", "--m", "3", "--n", "2",
                           "--family", "universal", "--out", out_file)
        assert code == 0
        assert "c = 0.5" in out
        assert "elements = 3" in out and "dim = 27" in out

    def test_optimal_prints_c(self, tmp_path, capsys):
        out_file = str(tmp_path / "o.povm")
        code, out, _ = run(capsys, "build", "--m", "2", "--n", "2",
                           "--family", "optimal", "--out", out_file)
        assert code == 0
        assert "c = 0.666666666667" in out

    def test_out_to_a_device_is_written_and_not_truncated(self, capsys):
        code, out, err = run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal",
                             "--out", "/dev/null")
        assert code == 0 and err == ""
        assert "out = /dev/null" in out

    def test_wrong_regime_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "--m", "2", "--n", "3",
                           "--family", "universal", "--out", str(tmp_path / "x.povm"))
        assert code == 2
        assert "m > n" in err

    def test_cap_exceeded_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal",
                           "--out", str(tmp_path / "x.povm"), "--cap", "256")
        assert code == 2
        assert "exceeds" in err

    def test_cap_below_minimum_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "x.povm"
        code, out, err = run(capsys, "build", "--m", "2", "--n", "2", "--family", "optimal",
                             "--out", str(out_file), "--cap", "10")
        assert code == 2
        assert "at least 256" in err
        assert out == ""
        assert not out_file.exists()

    def test_oversized_size_refused_at_once(self, tmp_path, capsys):
        # 1000^1000 is a 3001-digit dimension, refused before it is formed
        out_file = tmp_path / "x.povm"
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "--m", "1000", "--n", "999", "--family", "universal",
                             "--out", str(out_file))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (f"error: 1000^1000x1000^1000 POVM element exceeds the cap of {DEFAULT_ENTRY_CAP} "
                       "complex entries\n")
        assert out == ""
        assert not out_file.exists()


class TestVerify:
    @pytest.mark.parametrize(
        "m,n,family",
        [(2, 2, "optimal"), (3, 3, "optimal"), (3, 2, "universal"),
         (4, 3, "universal"), (3, 2, "trivial")],
    )
    def test_round_trip_passes(self, tmp_path, capsys, m, n, family):
        povm_file = str(tmp_path / "p.povm")
        code, _, _ = run(capsys, "build", "--m", str(m), "--n", str(n),
                         "--family", family, "--out", povm_file)
        assert code == 0
        code, out, _ = run(capsys, "verify", povm_file)
        assert code == 0
        assert "verdict = pass" in out

    @pytest.mark.parametrize("family,m,n", ROUND_TRIP)
    def test_kv_output_is_the_same_on_both_layouts(self, tmp_path, capsys, family, m, n):
        """verify prints the same bytes and exit code on a built file and on its dense copy,
        which is read as an explicit POVM."""
        built, dense = tmp_path / "built.povm", tmp_path / "dense.povm"
        assert run(capsys, "build", "--m", str(m), "--n", str(n), "--family", family,
                   "--out", str(built))[0] == 0
        write_povm(dense, Povm(m, n, elements=read_povm(built).elements))
        assert read_povm(dense)._explicit and not read_povm(built)._explicit
        code, out, err = run(capsys, "verify", str(built), "--format", "kv")
        assert err == "" and parse_kv(out)["m"] == str(m)
        assert run(capsys, "verify", str(dense), "--format", "kv") == (code, out, err)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
    def test_hand_written_small_files(self, tmp_path, capsys, m, n):
        # n = 1: I/2 twice; m = n = 2: the optimal device from the two-register singlet
        dim = m ** (n + 1)
        if n == 1:
            elements = [np.eye(dim) / 2] * 2
        else:
            singlet = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2
            pi1 = np.kron(np.eye(2), singlet) * 2 / 3
            swap = np.eye(8)[[0, 1, 4, 5, 2, 3, 6, 7]]  # exchanges registers 1 and 2
            pi2 = swap @ pi1 @ swap
            elements = [np.eye(8) - pi1 - pi2, pi1, pi2]
        lines = [f"povm {m} {n} {n + 1}"]
        for k, e in enumerate(elements):
            lines.append(f"element {k}")
            lines += [" ".join(f"{float(x)!r} 0.0" for x in row) for row in e]
        povm_file = tmp_path / "small.povm"
        povm_file.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(povm_file), "--format", "kv")
        psd = ["0.5", "0.5"] if n == 1 else ["1.11022302463e-16", "0", "0"]
        expected = ([f"m={m}", f"n={n}", f"elements={n + 1}", "completeness_residual=0"]
                    + [f"psd_min_{k}={v}" for k, v in enumerate(psd)]
                    + [f"leakage_{i}=0" for i in range(1, n + 1)]
                    + ["unitary_residual=0", "permutation_residual=0", "reduction_residual=0",
                       "reduction_spread=0", "covariance=pass", "verdict=pass"])
        assert (code, err) == (0, "")
        assert out.splitlines() == expected

    def test_leaky_file_fails(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", leaky_povm_file(tmp_path))
        assert code == 1
        assert "verdict = fail" in out
        leakage = [line for line in out.splitlines() if line.startswith("leakage_1")]
        assert float(leakage[0].split("=")[1]) > 1e-3

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        povm_file = str(tmp_path / "p.povm")
        run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal", "--out", povm_file)
        content = Path(povm_file).read_text().splitlines()
        with open(povm_file, "w") as fh:
            fh.write("\n".join(content[:10]) + "\n")
        code, _, err = run(capsys, "verify", povm_file)
        assert code == 2
        assert "error:" in err

    def test_cap_checked_before_rows_are_read(self, tmp_path, capsys):
        povm_file = str(tmp_path / "u.povm")
        run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal", "--out", povm_file)
        # 27 x 27 = 729 entries per element
        code, out, err = run(capsys, "verify", povm_file, "--cap", "256")
        assert code == 2
        assert "exceeds the cap" in err
        assert "verdict" not in out

    def test_cap_refuses_the_header_before_undecodable_rows(self, tmp_path, capsys):
        # 27 x 27 elements; the rows run past several read buffers before a non-ASCII byte
        row = " ".join(["0 0"] * 27) + "\n"
        rows = row * (4 * io.DEFAULT_BUFFER_SIZE // len(row) + 1)
        povm_file = tmp_path / "big.povm"
        povm_file.write_bytes(b"povm 3 2 3\nelement 0\n" + rows.encode("ascii") + b"\xff\n")
        code, out, err = run(capsys, "verify", str(povm_file), "--cap", "256")
        assert code == 2
        assert "exceeds the cap" in err
        assert out == ""

    def test_oversized_header_refused_at_once(self, tmp_path, capsys):
        povm_file = tmp_path / "huge.povm"
        povm_file.write_text("povm 1000000 1000000 1000001\nelement 0\n0 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(povm_file))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (f"error: 1000000^1000001x1000000^1000001 POVM element exceeds the cap of "
                       f"{DEFAULT_ENTRY_CAP} complex entries\n")
        assert out == ""

    def test_oversized_sector_header_refused_at_once(self, tmp_path, capsys):
        povm_file = tmp_path / "huge.povm"
        povm_file.write_text("povm-sectors 1000000 1000000 1000001\nelement 0\n0 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(povm_file))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (f"error: 1000000^1000001x1000000^1000001 POVM element exceeds the cap of "
                       f"{DEFAULT_ENTRY_CAP} complex entries\n")
        assert out == ""

    def test_element_count_refused_from_the_header(self, tmp_path, capsys):
        # k = 6 elements for n = 1; comments run past several read buffers before a non-ASCII byte
        comments = "# padding\n" * (4 * io.DEFAULT_BUFFER_SIZE // 10 + 1)
        povm_file = tmp_path / "k6.povm"
        povm_file.write_bytes(b"povm 2 1 6\n" + comments.encode("ascii") + b"\xff\n")
        code, out, err = run(capsys, "verify", str(povm_file))
        assert code == 2
        assert "6 elements" in err
        assert "codec" not in err
        assert out == ""

    def test_seed_has_no_effect(self, tmp_path, capsys):
        povm_file = str(tmp_path / "u.povm")
        run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal", "--out", povm_file)
        code, first, _ = run(capsys, "verify", povm_file, "--seed", "1", "--format", "kv")
        assert code == 0
        assert run(capsys, "verify", povm_file, "--seed", "2", "--format", "kv")[1] == first

    def test_cap_flag_covers_the_checks_under_a_smaller_env_cap(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the projectors and the commutator buffer of the checks are as large as an element
        monkeypatch.setenv("UDISC_CAP", "256")
        povm_file = str(tmp_path / "u.povm")
        run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal",
            "--out", povm_file, "--cap", "1024")
        code, out, _ = run(capsys, "verify", povm_file, "--cap", "1024")
        assert code == 0
        assert "verdict = pass" in out


class TestProb:
    def test_zero_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("states 2 2\n1 0 0 0\n0 0 0 0\n")
        code, out, err = run(capsys, "prob", str(path))
        assert code == 2
        assert "state 2 has norm 0.0, too far from 1" in err
        assert out == ""

    def test_orthonormal_pair_universal(self, tmp_path, capsys):
        code, out, _ = run(capsys, "prob", orthonormal_pair_file(tmp_path),
                           "--family", "universal")
        assert code == 0
        assert "p_analytic = 0.25" in out
        assert "p_operational = 0.25" in out
        assert "p_s = 1" in out
        assert "bound_lower = 0.25" in out and "bound_upper = 0.25" in out

    def test_pair_with_overlap(self, tmp_path, capsys):
        states = np.array([[1, 0, 0], [0.6, 0.8, 0]], dtype=complex)
        path = tmp_path / "overlap.txt"
        write_states(path, states)
        code, out, _ = run(capsys, "prob", str(path), "--family", "universal")
        assert code == 0
        assert "p_analytic = 0.16" in out
        code, out, _ = run(capsys, "prob", str(path), "--family", "universal",
                           "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        # the n = 2 upper envelope p_s(2 - p_s)/4 equals the attained p = 0.16
        assert abs(float(kv["bound_upper"]) - float(kv["p_operational"])) < 1e-12
        assert abs(float(kv["bound_upper"]) - 0.16) < 1e-12

    def test_auto_optimal_bounds_match_family(self, tmp_path, capsys):
        # m = n = 2 picks the optimal device: p = n·det(X)/(n+1)! = 1/3, and the
        # universal envelope (both ends 1/4 at p_s = 1) scaled by c·n = 4/3
        path = tmp_path / "pair22.txt"
        write_states(path, np.eye(2, dtype=complex))
        code, out, _ = run(capsys, "prob", str(path), "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert kv["family"] == "optimal"
        for key in ("bound_lower", "bound_upper", "p_operational"):
            assert abs(float(kv[key]) - 1 / 3) < 1e-12

    def test_trivial_bounds_are_zero(self, tmp_path, capsys):
        states = np.array([[1, 0, 0], [0.6, 0.8, 0]], dtype=complex)
        path = tmp_path / "overlap.txt"
        write_states(path, states)
        code, out, _ = run(capsys, "prob", str(path), "--family", "trivial", "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["p_operational"]) == 0.0
        assert float(kv["bound_lower"]) == 0.0 and float(kv["bound_upper"]) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from([("optimal", 2, 2), ("optimal", 3, 3), ("universal", 3, 2),
                                 ("universal", 4, 3), ("trivial", 3, 2), ("trivial", 2, 2)]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bounds_bracket_p_operational(self, tmp_path_factory, case, seed, data):
        family, m, n = case
        which = data.draw(st.integers(1, n), label="which")
        path = tmp_path_factory.mktemp("prob") / "states.txt"
        write_states(path, rand_states(n, m, np.random.default_rng(seed)))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["prob", str(path), "--family", family, "--which", str(which),
                         "--format", "kv"])
        assert code == 0
        kv = parse_kv(out.getvalue())
        # compared as printed (12 significant digits), so no binary rounding enters
        lower, p, upper = (Decimal(kv[k]) for k in ("bound_lower", "p_operational", "bound_upper"))
        tol = Decimal("1e-12")
        assert lower - tol <= p <= upper + tol

    def test_optimal_family_needs_square_regime(self, tmp_path, capsys):
        code, _, err = run(capsys, "prob", orthonormal_pair_file(tmp_path),
                           "--family", "optimal")
        assert code == 2
        assert "m = n" in err

    def test_dependent_triple_warns(self, tmp_path, capsys):
        states = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0],
             [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0]], dtype=complex)
        path = tmp_path / "dep.txt"
        write_states(path, states)
        code, out, err = run(capsys, "prob", str(path), "--family", "universal")
        assert code == 0
        assert "linearly dependent" in err
        assert "p_analytic = 0" in out


class TestSample:
    def test_forbidden_outcome_never_fires(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sample", orthonormal_pair_file(tmp_path),
                           "--which", "1", "--shots", "20000", "--seed", "4")
        assert code == 0
        assert "count_2 = 0" in out
        freq = [line for line in out.splitlines() if line.startswith("freq_1")]
        assert abs(float(freq[0].split("=")[1]) - 0.25) < 0.01  # ~3 se at 20k shots

    def test_seed_repeatability(self, tmp_path, capsys):
        pair = orthonormal_pair_file(tmp_path)
        _, out1, _ = run(capsys, "sample", pair, "--which", "1", "--shots", "5000", "--seed", "7")
        _, out2, _ = run(capsys, "sample", pair, "--which", "1", "--shots", "5000", "--seed", "7")
        assert out1 == out2

    def test_auto_family_matches_regime(self, tmp_path, capsys):
        path = tmp_path / "pair22.txt"
        write_states(path, np.eye(2, dtype=complex))
        code, out, _ = run(capsys, "sample", str(path), "--which", "1", "--shots", "100")
        assert code == 0
        assert "family = optimal" in out


@pytest.mark.parametrize("command", [("prob",), ("sample", "--shots", "100")])
def test_near_unit_state_is_renormalized_with_a_warning(tmp_path, capsys, command):
    path = tmp_path / "near.txt"
    path.write_text("states 2 2\n1.0000001 0 0 0\n0 0 1 0\n")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 0
    assert err == "warning: state 1 renormalized (norm deviation 1.000e-07)\n"
    assert "family = optimal" in out


def test_negative_seed_is_refused_naming_the_seed(tmp_path, capsys):
    r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
    write_density(r1, np.diag([1.0, 0.0]).astype(complex))
    write_density(r2, np.diag([0.0, 1.0]).astype(complex))
    for argv in (("sample", orthonormal_pair_file(tmp_path), "--seed", "-1"),
                 ("mixed", r1, r2, "--data", "1", "--seed", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err == "error: seed must be non-negative, got -1\n", argv


def test_zero_shots_are_refused_before_any_file_is_read(tmp_path, capsys):
    r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
    write_density(r1, np.diag([1.0, 0.0]).astype(complex))
    write_density(r2, np.diag([0.0, 1.0]).astype(complex))
    missing = str(tmp_path / "missing.txt")
    for argv in (("sample", orthonormal_pair_file(tmp_path), "--shots", "0"),
                 ("mixed", r1, r2, "--data", "1", "--shots", "0"),
                 ("sample", missing, "--shots", "0"),
                 ("mixed", missing, missing, "--data", "1", "--shots", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err == "error: shots must be at least 1\n", argv


def test_out_of_range_index_is_refused_naming_the_option(tmp_path, capsys):
    pair = orthonormal_pair_file(tmp_path)
    r1, missing = str(tmp_path / "r1.txt"), str(tmp_path / "missing.txt")
    write_density(r1, np.diag([1.0, 0.0]).astype(complex))
    for argv, option, value in ((("prob", pair, "--which", "0"), "--which", 0),
                                (("prob", pair, "--which", "3"), "--which", 3),
                                (("sample", pair, "--which", "0", "--shots", "100"), "--which", 0),
                                (("sample", pair, "--which", "3", "--shots", "100"), "--which", 3),
                                # refused before any density file is read, the missing one included
                                (("mixed", r1, missing, "--data", "0"), "--data", 0),
                                (("mixed", r1, missing, "--data", "3"), "--data", 3)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err == f"error: {option} {value} outside 1..2\n", argv


class TestMixed:
    def test_orthogonal_pair(self, tmp_path, capsys):
        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        write_density(r1, np.diag([1.0, 0.0]).astype(complex))
        write_density(r2, np.diag([0.0, 1.0]).astype(complex))
        code, out, _ = run(capsys, "mixed", r1, r2, "--data", "1", "--shots", "2000")
        assert code == 0
        assert "discriminable = true" in out
        assert "part_prob_2 = 0" in out
        assert "bounds = pass" in out
        assert "count_part_2 = 0" in out

    def test_half_mixed_not_discriminable(self, tmp_path, capsys):
        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        write_density(r1, np.eye(2) / 2)
        write_density(r2, np.diag([1.0, 0.0]).astype(complex))
        code, out, _ = run(capsys, "mixed", r1, r2, "--data", "1", "--shots", "1000")
        assert code == 1
        assert "core_trace_2 = 0" in out
        assert "discriminable = false" in out

    def test_core_traces_of_nested_supports_are_never_negative(self, tmp_path, capsys):
        """ρ_1 = |v><v| inside supp ρ_2 leaves a core of trace 0, printed as 0 or a positive
        rounding, never negative."""
        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        v = np.array([0.6, 0.8j, 0.0])
        write_density(r1, np.outer(v, v.conj()))
        write_density(r2, np.diag([0.5, 0.5, 0.0]).astype(complex))
        code, out, _ = run(capsys, "mixed", r1, r2, "--data", "1", "--format", "kv")
        kv = parse_kv(out)
        assert code == 1 and kv["discriminable"] == "false"
        traces = {key: value for key, value in kv.items() if key.startswith("core_trace_")}
        assert len(traces) == 3 and not any(value.startswith("-") for value in traces.values())
        assert float(traces["core_trace_1"]) < 1e-15

    def test_identical_densities(self, tmp_path, capsys):
        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        write_density(r1, np.diag([1.0, 0.0]).astype(complex))
        write_density(r2, np.diag([1.0, 0.0]).astype(complex))
        code, out, err = run(capsys, "mixed", r1, r2, "--data", "1")
        assert code == 1
        assert "discriminable = false" in out
        assert "fewer than two" in err

    def test_near_degenerate_program(self, tmp_path, capsys):
        eps = 1e-7
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([np.cos(eps), np.sin(eps)], dtype=complex)
        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        write_density(r1, np.outer(a, a.conj()))
        write_density(r2, np.outer(b, b.conj()))
        code, out, err = run(capsys, "mixed", r1, r2, "--data", "1")
        assert code == 1
        assert "program = not_independent" in out
        assert "independent" in err

    def test_bad_data_index(self, tmp_path, capsys):
        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        write_density(r1, np.diag([1.0, 0.0]).astype(complex))
        write_density(r2, np.diag([0.0, 1.0]).astype(complex))
        code, _, err = run(capsys, "mixed", r1, r2, "--data", "5")
        assert code == 2

    def test_single_density_exits_2(self, tmp_path, capsys):
        r1 = str(tmp_path / "r1.txt")
        write_density(r1, np.diag([1.0, 0.0]).astype(complex))
        code, _, err = run(capsys, "mixed", r1, "--data", "1")
        assert code == 2
        assert err == "error: need at least two states to decompose\n"

    def test_densities_are_sized_against_the_cap(self, tmp_path, capsys):
        # 20 x 20 = 400 entries per density file
        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        write_density(r1, np.eye(20, dtype=complex) / 20)
        write_density(r2, np.diag([1.0] + [0.0] * 19).astype(complex))
        code, out, err = run(capsys, "mixed", r1, r2, "--data", "1", "--cap", "256",
                             "--format", "kv")
        assert code == 2
        assert "exceeds the cap" in err
        assert out == ""


class TestHugeHeaders:
    """A state or density header whose entry count has more digits than Python prints
    is refused as CapExceeded, naming the count's leading power of two and the cap."""

    BIG = int("9" * 2200)

    def expect_refusal(self, capsys, argv, what):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        count = self.BIG * self.BIG
        assert err == (f"error: {self.BIG}x{self.BIG} {what} with at least 2^{count.bit_length() - 1} "
                       f"complex entries exceeds the cap of {DEFAULT_ENTRY_CAP}\n")

    def test_mixed_density_header(self, tmp_path, capsys):
        rho = tmp_path / "huge.rho"
        rho.write_text(f"rho {self.BIG}\n")
        self.expect_refusal(capsys, ["mixed", str(rho), str(rho), "--data", "1"], "density matrix")

    def test_prob_state_header(self, tmp_path, capsys):
        states = tmp_path / "huge.states"
        states.write_text(f"states {self.BIG} {self.BIG}\n")
        self.expect_refusal(capsys, ["prob", str(states)], "state set")

    def test_printable_count_keeps_its_digits(self, tmp_path, capsys):
        states = tmp_path / "big.states"
        states.write_text(f"states 2 {self.BIG}\n")
        code, out, err = run(capsys, "prob", str(states))
        assert (code, out) == (2, "")
        assert err == (f"error: {self.BIG}x2 state set with {2 * self.BIG} complex entries exceeds "
                       f"the cap of {DEFAULT_ENTRY_CAP}\n")


class TestMachineMode:
    def test_kv_matches_text_numbers(self, tmp_path, capsys):
        pair = orthonormal_pair_file(tmp_path)
        _, text_out, _ = run(capsys, "prob", pair, "--family", "universal")
        _, kv_out, _ = run(capsys, "prob", pair, "--family", "universal", "--format", "kv")
        text_pairs = {}
        for line in text_out.strip().splitlines():
            key, _, value = line.partition(" = ")
            text_pairs[key] = value
        kv_pairs = parse_kv(kv_out)
        assert text_pairs == kv_pairs
        assert "=" in kv_out and " = " not in kv_out

    def test_kv_one_pair_per_line(self, tmp_path, capsys):
        out_file = str(tmp_path / "u.povm")
        _, out, _ = run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal",
                        "--out", out_file, "--format", "kv")
        for line in out.strip().splitlines():
            assert line.count("=") == 1

    def test_closed_stdout_exits_2(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        pair = orthonormal_pair_file(tmp_path)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["prob", pair])
        monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def readme_keys() -> dict[str, list[str]]:
    """Each subcommand's kv keys from README's command-line section, in its order, as
    regular expressions: <k> and <i> stand for a number."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^  - `(\w+)`: `([^`]+)`$", text, re.MULTILINE)
    return {command: [re.sub(r"<[ki]>", r"\\d+", key) for key in keys.split()]
            for command, keys in listed}


def test_every_printed_kv_key_is_listed_in_readme(tmp_path, capsys):
    """Each key a subcommand prints matches README's list for it, in the listed order, and
    each listed key is printed by one of these runs: verify passing and failing, and mixed
    on its normal, not-independent and fewer-than-two paths."""
    povm, pair = str(tmp_path / "u.povm"), orthonormal_pair_file(tmp_path)
    rho = {name: str(tmp_path / f"{name}.txt") for name in ("x", "y", "near_x")}
    write_density(rho["x"], np.diag([1.0, 0.0]).astype(complex))
    write_density(rho["y"], np.diag([0.0, 1.0]).astype(complex))
    b = np.array([np.cos(1e-7), np.sin(1e-7)], dtype=complex)
    write_density(rho["near_x"], np.outer(b, b.conj()))
    runs = [
        ("build", "--m", "3", "--n", "2", "--family", "universal", "--out", povm),
        ("verify", povm),
        ("verify", leaky_povm_file(tmp_path)),
        ("prob", pair),
        ("sample", pair, "--shots", "100"),
        ("mixed", rho["x"], rho["y"], "--data", "1", "--shots", "100"),
        ("mixed", rho["x"], rho["near_x"], "--data", "1"),
        ("mixed", rho["x"], rho["x"], "--data", "1"),
    ]
    listed = readme_keys()
    assert set(listed) == set(TestParserOptions.OPTIONS)
    unseen = {(command, key) for command, keys in listed.items() for key in keys}
    warnings = ""
    for argv in runs:
        code, out, err = run(capsys, *argv, "--format", "kv")
        assert code in (0, 1), err
        warnings += err
        positions = []
        for key in parse_kv(out):
            matches = [i for i, pattern in enumerate(listed[argv[0]]) if re.fullmatch(pattern, key)]
            assert matches, f"{argv[0]} prints {key}, which README does not list"
            positions.append(matches[0])
            unseen -= {(argv[0], listed[argv[0]][i]) for i in matches}
        assert positions == sorted(positions), argv
    assert not unseen
    assert "fewer than two pure states" in warnings


class TestEnvironmentCap:
    def test_env_cap_applies(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UDISC_CAP", "256")
        code, _, err = run(capsys, "build", "--m", "3", "--n", "2",
                           "--family", "universal", "--out", str(tmp_path / "x.povm"))
        assert code == 2
        assert "exceeds" in err

    def test_env_cap_invalid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UDISC_CAP", "many")
        code, _, err = run(capsys, "build", "--m", "3", "--n", "2",
                           "--family", "universal", "--out", str(tmp_path / "x.povm"))
        assert code == 2
        assert "UDISC_CAP" in err

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UDISC_CAP", "256")
        code, _, _ = run(capsys, "build", "--m", "3", "--n", "2", "--family", "universal",
                         "--out", str(tmp_path / "ok.povm"), "--cap", str(2**24))
        assert code == 0


class TestCapScope:
    """Only dense objects are capped; closed-form probabilities of built families are not."""

    def test_prob_and_sample_beyond_dense_cap(self, tmp_path, capsys):
        # 10 states in dimension 100: a dense device would need 100^11 x 100^11 entries
        path = tmp_path / "big.txt"
        write_states(path, rand_independent_states(10, 100, np.random.default_rng(81)))
        code, out, _ = run(capsys, "prob", str(path), "--which", "4", "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert kv["family"] == "universal"
        assert float(kv["p_analytic"]) > 0
        assert abs(float(kv["p_operational"]) - float(kv["p_analytic"])) <= 1e-12
        code, out, _ = run(capsys, "sample", str(path), "--which", "4", "--shots", "1000",
                           "--format", "kv")
        assert code == 0
        counts = [int(parse_kv(out)[f"count_{k}"]) for k in range(11)]
        assert sum(counts) == 1000
        assert all(c == 0 for k, c in enumerate(counts) if k not in (0, 4))

    def test_build_beyond_dense_cap_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "big.povm"
        code, _, err = run(capsys, "build", "--m", "100", "--n", "10", "--family", "universal",
                           "--out", str(out_file))
        assert code == 2
        assert "exceeds the cap" in err
        assert not out_file.exists()


class TestNonFiniteInput:
    """A NaN or an infinity is refused where it is read, before any tolerance check."""

    @staticmethod
    def _states(tmp_path, token):
        path = tmp_path / "states.txt"
        path.write_text(f"states 2 2\n1 0 0 0\n{token} 0 0 0\n")
        return ("prob", str(path)), path, "state set row 2"

    @staticmethod
    def _density(tmp_path, token):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        write_density(good, np.eye(2) / 2)
        bad.write_text(f"rho 2\n0.5 0 0 0\n0 0 {token} 0\n")
        return ("mixed", str(good), str(bad), "--data", "1"), bad, "density matrix row 2"

    @staticmethod
    def _povm(tmp_path, token):
        path = tmp_path / "bad.povm"
        write_povm(path, Povm(m=2, n=1, elements=(np.eye(4) / 2, np.eye(4) / 2)))
        lines = path.read_text().splitlines()
        row = lines.index("element 1") + 3
        lines[row] = f"{token} " + lines[row].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        return ("verify", str(path)), path, "element 1 row 3"

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would raise instead of printing
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["_states", "_density", "_povm"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, kind, token):
        argv, bad, where = getattr(self, kind)(tmp_path, token)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {bad}: {where} holds a non-finite number"]


class TestParserOptions:
    """Each subcommand's exact option set, so that a new flag fails a test."""

    COMMON = {"-h", "--help", "--format", "--cap"}
    OPTIONS = {
        "build": {"--m", "--n", "--family", "--out"},
        "verify": {"povm", "--seed"},  # --seed is a no-op kept for existing callers
        "prob": {"states", "--family", "--which"},
        "sample": {"states", "--family", "--which", "--shots", "--seed"},
        "mixed": {"rho", "--data", "--shots", "--seed"},
    }

    def test_each_subcommand_takes_exactly_its_options(self):
        parser = _parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help"}
        assert set(sub.choices) == set(self.OPTIONS)
        for name, command in sub.choices.items():
            taken = {s for a in command._actions for s in a.option_strings or [a.dest]}
            assert taken == self.COMMON | self.OPTIONS[name], name

    def test_family_choices_are_the_discriminator_table(self):
        (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for name in ("build", "prob", "sample"):
            (family,) = [a for a in sub.choices[name]._actions if "--family" in a.option_strings]
            assert list(family.choices) == ["optimal", "universal", "trivial"] == list(FAMILIES), name

    def test_verify_seed_is_documented_as_a_no_op(self):
        (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (seed,) = [a for a in sub.choices["verify"]._actions if "--seed" in a.option_strings]
        assert "no effect" in seed.help


class TestFreshProcess:
    def test_build_and_verify_leave_numpy_ma_unloaded(self, tmp_path):
        """numpy.ma costs about 13 ms to import; nothing build or verify calls needs it."""
        code = ("import contextlib, io, sys; from udisc.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main(['build', '--m', '4', '--n', '3', '--family', 'universal', "
                f"'--out', {str(tmp_path / 'u43.povm')!r}]) == 0\n"
                f"    assert main(['verify', {str(tmp_path / 'u43.povm')!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)")
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]


class TestParserReuse:
    def test_successive_calls_are_independent(self, tmp_path, capsys):
        from udisc.cli import _parser

        out_file = str(tmp_path / "t.povm")
        build = ("build", "--m", "3", "--n", "2", "--family", "trivial", "--out", out_file)
        code, _, err = run(capsys, *build, "--cap", "256")
        assert code == 2 and "exceeds" in err
        code, out, _ = run(capsys, *build, "--format", "kv")
        assert code == 0 and "family=trivial" in out.splitlines()
        code, out, _ = run(capsys, "verify", out_file)  # text format and the default budget again
        assert code == 0 and "verdict = pass" in out.splitlines()
        code, _, err = run(capsys, "verify", out_file, "--cap", "256")
        assert code == 2 and "exceeds" in err
        code, out, _ = run(capsys, "prob", orthonormal_pair_file(tmp_path), "--format", "kv")
        assert code == 0 and "family=universal" in out.splitlines()  # no family carried over
        assert _parser() is _parser()
