"""Tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Each workload runs briefly in a subprocess; the whole file takes a few
minutes and one run of the simulate workload peaks near 2.1 GiB.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import sleep

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.CYCLES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.PER_LAYER
    ]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for d in (a, b, c):
        d.mkdir()
    for workload in workloads.CYCLES:
        first = workloads.make_cycle(workload, 5, a)
        second = workloads.make_cycle(workload, 5, b)
        workloads.make_cycle(workload, 6, c)
        assert [j.argv for j in first] == [
            tuple(s.replace(str(b), str(a)) for s in j.argv) for j in second
        ]
    files = sorted(p.name for p in a.iterdir())
    assert files
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)


def test_mixed_structure_is_fixed_across_seeds(tmp_path):
    def structure(cycle):
        mixed = [j for j in cycle if j.command == "mixed"]
        assert mixed
        return [(j.size, len(j.argv), j.argv[j.argv.index("--data") + 1]) for j in mixed]

    assert structure(workloads.make_cycle("simulate", 1, tmp_path)) == structure(
        workloads.make_cycle("simulate", 2, tmp_path)
    )


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        sleep(0.01)
        with tracer.span("inner"):
            sleep(0.02)
    (outer, o_start, o_end, o_parent, _), (inner, i_start, i_end, i_parent, _) = tracer.spans
    assert (outer, inner, o_parent, i_parent) == ("outer", "inner", None, 0)
    assert tracer.self_s["outer"] == pytest.approx((o_end - o_start) - (i_end - i_start))
    assert tracer.self_s["inner"] == pytest.approx(i_end - i_start)
    assert tracer.calls == {"outer": 1, "inner": 1}


def test_wrapping_reaches_every_namespace_and_is_undone(capsys):
    run.import_udisc()
    import udisc.cli
    import udisc.discriminator
    import udisc.mixed_states

    original = udisc.discriminator.build_universal
    residuals = udisc.discriminator.Povm.residuals
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for module in (udisc.cli, udisc.discriminator, udisc.mixed_states):
            assert module.build_universal is not original
        povm = udisc.cli.build_universal(3, 2)
        povm.residuals()
    assert "not found" not in capsys.readouterr().err
    assert udisc.cli.build_universal is original
    assert udisc.discriminator.Povm.residuals is residuals
    assert tracer.calls["discriminator.build"] == 1
    assert tracer.calls["discriminator.Povm.residuals"] == 1
    assert tracer.counters["discriminator.build.bytes"] == sum(e.nbytes for e in povm.elements)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric_without_errors(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    result = _result(proc)
    specs = tracing.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: unit for name, unit, *_ in specs} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert "# error_rate = 0 " in proc.stdout
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["attempted"] >= run.MIN_JOBS
    else:
        assert (ROOT / ".bench_out" / f"trace-{workload}-seed3.jsonl").is_file()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
