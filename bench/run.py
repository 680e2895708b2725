"""Closed-loop benchmark of the udisc command line.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 45 --trace 0

One client in one process calls ``udisc.cli.main([...])`` with ``--format kv``
and captured output; each job starts when the previous one returns.  Whole
cycles of the workload's jobs run until ``--seconds`` have passed and, with
``--trace 0``, at least MIN_JOBS jobs have run, so that job_s_p90 has ten jobs
beyond it.  Every job's output is checked.

``--trace 0`` prints the end-to-end metrics.  Set-up (``import udisc`` plus
one untimed warm-up job per distinct (subcommand, size)) is measured in this
process and in SETUP_PROBES fresh processes, and setup_s is their median.

``--trace 1`` prints the per-layer metrics: half of ``--seconds`` runs
untraced (per-subcommand medians), half with spans around udisc's layers
(see tracing.py); the spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it,
starting with ``#``, give the run's environment and every metric with its
unit.  Input files live in ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

MIN_JOBS = 100  # job_s_p90 needs ten jobs beyond it
MAX_LOOP_S = 120.0  # bounds a run on a slow machine to about three minutes
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60.0
MAX_REPORTED_FAILURES = 5

# (metric, unit, better, bound); BENCHMARK.json repeats these.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_s_p50", "s", "lower", 0.25),
    ("job_s_p90", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)


@dataclass
class Phase:
    """Measured jobs of one loop: per-job command, seconds and kv output facts."""

    commands: list[str] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    program_states: list[int] = field(default_factory=list)
    discriminable: list[bool] = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0

    @property
    def jobs(self) -> int:
        return len(self.seconds)

    @property
    def jobs_per_s(self) -> float:
        return self.jobs / self.wall_s


def import_udisc():
    """Import udisc from this checkout's src/ and return the CLI entry point."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import udisc.cli

    if Path(udisc.cli.__file__).resolve().parent != (src / "udisc").resolve():
        raise SystemExit(f"error: imported udisc from {udisc.cli.__file__}, not from {src}")
    return udisc.cli.main


def run_job(main, job: workloads.Job, tracer: tracing.Tracer | None = None):
    """Run one job; return (seconds, failure message or None, parsed kv output)."""
    out, err = StringIO(), StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                rc = main(list(job.argv))
            else:
                with tracer.span(f"cli.{job.command}"):
                    rc = main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            traceback.print_exc()
    seconds = perf_counter() - start
    kv = workloads.parse_kv(out.getvalue())
    if rc is None:
        return seconds, f"raised:\n{err.getvalue()}", kv
    try:
        failure = job.check(rc, kv)
    except (KeyError, ValueError) as exc:
        failure = f"output lacks or garbles {exc}; output {kv}"
    return seconds, failure, kv


def report_failure(job: workloads.Job, failure: str, count: int) -> None:
    if count <= MAX_REPORTED_FAILURES:
        print(f"check failed: udisc {' '.join(job.argv)}: {failure}", file=sys.stderr)


def setup(cycle: list[workloads.Job]):
    """Import udisc and run the warm-up jobs; return (main, seconds, jobs, failed)."""
    start = perf_counter()
    main = import_udisc()
    warmups = workloads.warmup_jobs(cycle)
    failed = 0
    for job in warmups:
        _, failure, _ = run_job(main, job)
        if failure is not None:
            failed += 1
            report_failure(job, failure, failed)
    return main, perf_counter() - start, len(warmups), failed


def run_loop(main, cycle, seconds: float, min_jobs: int, tracer=None) -> Phase:
    """Closed loop over whole cycles until `seconds` and `min_jobs` are both reached."""
    phase = Phase()
    start = perf_counter()
    while True:
        for job in cycle:
            if tracer is not None:
                tracer.job += 1
            dt, failure, kv = run_job(main, job, tracer)
            phase.commands.append(job.command)
            phase.seconds.append(dt)
            if "N" in kv:
                phase.program_states.append(int(kv["N"]))
            if "discriminable" in kv:
                phase.discriminable.append(kv["discriminable"] == "true")
            if failure is not None:
                phase.failed += 1
                report_failure(job, failure, phase.failed)
        elapsed = perf_counter() - start
        if (elapsed >= seconds and phase.jobs >= min_jobs) or elapsed >= MAX_LOOP_S:
            break
    phase.wall_s = perf_counter() - start
    return phase


def probe_setup(workload: str, seed: int, work: Path) -> tuple[float, int, int]:
    """Measure set-up in a fresh process; return (seconds, jobs, failed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["jobs"], result["failed"]


def blas_info() -> dict:
    """BLAS library name and the thread count it runs with."""
    info = {"name": "unknown", "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def git_sha() -> str:
    """HEAD commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(setup_samples: list[float], phase: Phase) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": phase.jobs_per_s,
        "job_s_p50": statistics.median(phase.seconds),
        "job_s_p90": p90(phase.seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: Phase, traced: Phase, tracer: tracing.Tracer) -> dict[str, float]:
    jobs = traced.jobs
    self_s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    out = {}
    for cmd in ("build", "verify", "prob", "sample", "mixed"):
        times = [t for c, t in zip(untraced.commands, untraced.seconds) if c == cmd]
        out[f"cli.{cmd}.s_p50"] = statistics.median(times) if times else 0.0
    out["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli.")) / jobs
    for name in list(tracing.TARGETS) + list(tracing.METHOD_TARGETS):
        out[f"{name}.self_s"] = self_s[name] / jobs
        out[f"{name}.calls"] = calls[name] / jobs

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    written, read = counters["io.write_povm.bytes"], counters["io.read_povm.bytes"]
    out["io.povm_bytes"] = (written + read) / jobs
    out["io.write_povm.MBps"] = rate(written / 1e6, self_s["io.write_povm"])
    out["io.read_povm.MBps"] = rate(read / 1e6, self_s["io.read_povm"])
    out["discriminator.build.bytes"] = counters["discriminator.build.bytes"] / jobs
    out["sampler.shots_per_s"] = rate(counters["sampler.sample.shots"], self_s["sampler.sample"])
    states = untraced.program_states + traced.program_states
    out["mixed_states.program_states_mean"] = statistics.fmean(states) if states else 0.0
    verdicts = untraced.discriminable + traced.discriminable
    out["mixed_states.discriminable_ratio"] = sum(verdicts) / len(verdicts) if verdicts else 0.0
    out["trace_overhead"] = untraced.jobs_per_s / traced.jobs_per_s
    return out


def emit(env: dict, specs, values: dict[str, float], attempted: int, failed: int) -> None:
    print("# env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for name, unit, *_ in specs:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(f"# error_rate = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.CYCLES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        cycle = workloads.make_cycle(args.workload, args.seed, Path(args.setup_probe))
        _, seconds, jobs, failed = setup(cycle)
        print(json.dumps({"setup_s": seconds, "jobs": jobs, "failed": failed}))
        return 0

    if not (ROOT / "src" / "udisc" / "__init__.py").is_file():
        raise SystemExit(f"error: no udisc package under {ROOT / 'src'}")
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cycle = workloads.make_cycle(args.workload, args.seed, work)
        attempted = failed = 0
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                seconds, jobs, bad = probe_setup(args.workload, args.seed, work)
                setup_samples.append(seconds)
                attempted, failed = attempted + jobs, failed + bad
        main_fn, seconds, jobs, bad = setup(cycle)
        setup_samples.append(seconds)
        attempted, failed = attempted + jobs, failed + bad
        env = environment(args)

        if not args.trace:
            phase = run_loop(main_fn, cycle, args.seconds, MIN_JOBS)
            attempted, failed = attempted + phase.jobs, failed + phase.failed
            if phase.jobs < MIN_JOBS:
                print(f"warning: {phase.jobs} jobs, fewer than the {MIN_JOBS} job_s_p90 needs",
                      file=sys.stderr)
            emit(env, END_TO_END, end_to_end(setup_samples, phase), attempted, failed)
            return 0

        untraced = run_loop(main_fn, cycle, args.seconds / 2, 0)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run_loop(main_fn, cycle, args.seconds / 2, 0, tracer)
        attempted += untraced.jobs + traced.jobs
        failed += untraced.failed + traced.failed
        OUT_DIR.mkdir(exist_ok=True)
        meta = dict(env, cycle=[" ".join(job.argv) for job in cycle])  # job id % len(cycle)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", meta)
        emit(env, tracing.PER_LAYER, per_layer(untraced, traced, tracer), attempted, failed)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
