"""Seeded inputs, job cycles and output checks for the benchmark workloads.

Inputs are drawn with the benchmark's own numpy code and written in udisc's
text formats; udisc itself only ever sees the written files.  A workload is a
fixed cycle of jobs, each one ``udisc`` subcommand given as an argv list for
``udisc.cli.main``.  The cycle's structure is fixed by the workload; the
``--seed`` argument draws its random content.

``certify`` runs build and verify: POVM text I/O and the verification and
covariance checks.  ``simulate`` runs prob, sample and mixed: dense POVM
assembly, quadratic forms, the mixed-state pipeline and sampling.  Neither
touches the other's heavy layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# (family, m, n) pairs of the certify cycle.  (trivial, 4, 3) has no exact
# zeros in its elements, so its POVM text is denser than (universal, 4, 3).
CERTIFY_CYCLE = (
    ("universal", 3, 2),
    ("optimal", 3, 3),
    ("universal", 5, 2),
    ("universal", 4, 3),
    ("trivial", 4, 3),
)

# (m, n) sizes of the state sets that simulate runs prob and sample on.
STATE_SET_SIZES = ((4, 4), (6, 3), (8, 3))
SIMULATE_SHOTS = 100_000
GRAM_DET_FLOOR = 1e-2

# The structure of the mixed jobs (dimension, number of states, ranks, data
# index) is drawn once from this constant seed, with the semantics of
# tests/conftest.py::random_ensemble, so the share of jobs that build a
# dense N = 4 device is the same for every workload seed.
MIXED_TEMPLATE_SEED = 20060606
MIXED_CYCLE_LEN = 64
MIXED_SHOTS = 1_000_000

PROB_TOL = 1e-9
C_TOL = 1e-11
SAMPLE_SIGMAS = 6.0


@dataclass(frozen=True)
class Job:
    """One udisc subcommand and the check its output must pass."""

    command: str
    size: str  # warm-up key: one untimed job per distinct (command, size)
    argv: tuple[str, ...]
    check: Callable[[int | None, dict[str, str]], str | None]


def parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _format_row(row) -> str:
    return " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row)


def _write(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "\n".join(_format_row(r) for r in rows) + "\n", encoding="ascii")


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _gram_det(states: np.ndarray) -> float:
    return float(np.linalg.det(states.conj() @ states.T).real)


def haar_states(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n Haar-random unit vectors in dimension m, redrawn until det(Gram) clears the floor."""
    while True:
        s = _ginibre(rng, n, m)
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        if _gram_det(s) > GRAM_DET_FLOOR:
            return s


def random_density(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = _ginibre(rng, d, rank)
    rho = g @ g.conj().T
    return rho / float(np.trace(rho).real)


def _fail(reason: str, kv: dict[str, str]) -> str:
    return f"{reason}; output {kv}"


# ---------------------------------------------------------------------------
# certify: build then verify, the text I/O and verification path


def _check_build(family: str, m: int, n: int):
    c_expected = n / (n + 1) if family == "optimal" else 1.0 / n

    def check(rc, kv):
        if rc != 0:
            return _fail(f"build exited {rc}", kv)
        if abs(float(kv["c"]) - c_expected) > C_TOL:
            return _fail(f"c is {kv['c']}, expected {c_expected!r}", kv)
        if int(kv["elements"]) != n + 1 or int(kv["dim"]) != m ** (n + 1):
            return _fail("wrong element count or dimension", kv)
        return None

    return check


def _check_verify(rc, kv):
    if rc != 0:
        return _fail(f"verify exited {rc}", kv)
    if kv.get("verdict") != "pass" or kv.get("covariance") != "pass":
        return _fail("verdict or covariance is not pass", kv)
    return None


def certify_cycle(rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for family, m, n in CERTIFY_CYCLE:
        path = str(work / f"povm_{family}_{m}_{n}.txt")
        size = f"{family},{m},{n}"
        verify_seed = int(rng.integers(0, 2**31))
        jobs.append(Job("build", size, (
            "build", "--m", str(m), "--n", str(n), "--family", family, "--out", path, "--format", "kv",
        ), _check_build(family, m, n)))
        jobs.append(Job("verify", size, (
            "verify", path, "--seed", str(verify_seed), "--format", "kv",
        ), _check_verify))
    return jobs


# ---------------------------------------------------------------------------
# simulate, prob then sample: dense assembly and quadratic forms


def expected_success(states: np.ndarray) -> float:
    """Closed-form success probability of the default family for this state set."""
    n, m = states.shape
    det = _gram_det(states)
    if m == n:
        return n * det / math.factorial(n + 1)
    return det / (n * math.factorial(n))


def _check_prob(p_expected: float):
    def check(rc, kv):
        if rc != 0:
            return _fail(f"prob exited {rc}", kv)
        p_op, p_an = float(kv["p_operational"]), float(kv["p_analytic"])
        if abs(p_op - p_an) > PROB_TOL:
            return _fail("p_operational differs from p_analytic", kv)
        if abs(p_an - p_expected) > PROB_TOL:
            return _fail(f"p_analytic differs from the Gram-determinant value {p_expected!r}", kv)
        return None

    return check


def _check_sample(n: int, which: int, shots: int, p_expected: float):
    def check(rc, kv):
        if rc != 0:
            return _fail(f"sample exited {rc}", kv)
        counts = [int(kv[f"count_{k}"]) for k in range(n + 1)]
        if sum(counts) != shots:
            return _fail("counts do not sum to the shots", kv)
        if any(counts[k] for k in range(1, n + 1) if k != which):
            return _fail("a conclusive outcome other than --which was counted", kv)
        se = math.sqrt(p_expected * (1 - p_expected) / shots)
        if abs(float(kv[f"freq_{which}"]) - p_expected) > SAMPLE_SIGMAS * se:
            return _fail(f"freq_{which} is more than {SAMPLE_SIGMAS} standard errors from {p_expected!r}", kv)
        return None

    return check


def _state_set_jobs(rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for k, (m, n) in enumerate(STATE_SET_SIZES):
        states = haar_states(rng, n, m)
        path = work / f"states_{k}_{m}_{n}.txt"
        _write(path, f"states {m} {n}", states)
        which = int(rng.integers(1, n + 1))
        seed = int(rng.integers(0, 2**31))
        p = expected_success(states)
        size = f"{m},{n}"
        jobs.append(Job("prob", size, (
            "prob", str(path), "--which", str(which), "--format", "kv",
        ), _check_prob(p)))
        jobs.append(Job("sample", size, (
            "sample", str(path), "--which", str(which), "--shots", str(SIMULATE_SHOTS),
            "--seed", str(seed), "--format", "kv",
        ), _check_sample(n, which, SIMULATE_SHOTS, p)))
    return jobs


# ---------------------------------------------------------------------------
# simulate, mixed: the mixed-state pipeline and million-shot sampling


def mixed_template() -> list[tuple[int, tuple[int, ...], int]]:
    """(dimension, ranks, data index) per ensemble; the same for every workload seed."""
    rng = np.random.default_rng(MIXED_TEMPLATE_SEED)
    template = []
    for _ in range(MIXED_CYCLE_LEN):
        d = int(rng.choice((2, 3, 4)))
        n = int(rng.integers(2, 4))
        ranks = tuple(int(rng.integers(1, d + 1)) for _ in range(n))
        data = int(rng.integers(1, n + 1))
        template.append((d, ranks, data))
    return template


def _check_mixed(data: int, shots: int):
    def check(rc, kv):
        if rc not in (0, 1):
            return _fail(f"mixed exited {rc}", kv)
        if rc == 1 and kv.get("discriminable") != "false" and kv.get("program") != "not_independent":
            return _fail("exit 1 without discriminable=false or program=not_independent", kv)
        if "part_prob_0" not in kv:
            return None
        if kv.get("bounds") != "pass":
            return _fail("bounds check did not pass", kv)
        parts = [float(v) for k, v in kv.items() if k.startswith("part_prob_")]
        if abs(sum(parts) + float(kv["inconclusive"]) - 1.0) > PROB_TOL:
            return _fail("parts and inconclusive do not sum to 1", kv)
        if any(abs(p) > PROB_TOL for i, p in enumerate(parts) if i not in (0, data)):
            return _fail(f"a part other than 0 and --data {data} has weight", kv)
        counts = [int(v) for k, v in kv.items() if k.startswith("count_")]
        if sum(counts) != shots:
            return _fail("counts do not sum to the shots", kv)
        return None

    return check


def _mixed_jobs(rng: np.random.Generator, work: Path) -> list[Job]:
    jobs = []
    for k, (d, ranks, data) in enumerate(mixed_template()):
        paths = []
        for j, rank in enumerate(ranks):
            path = work / f"rho_{k}_{j}.txt"
            _write(path, f"rho {d}", random_density(rng, d, rank))
            paths.append(str(path))
        seed = int(rng.integers(0, 2**31))
        jobs.append(Job("mixed", f"{d},{len(ranks)}", (
            "mixed", *paths, "--data", str(data), "--shots", str(MIXED_SHOTS),
            "--seed", str(seed), "--format", "kv",
        ), _check_mixed(data, MIXED_SHOTS)))
    return jobs


def simulate_cycle(rng: np.random.Generator, work: Path) -> list[Job]:
    return _state_set_jobs(rng, work) + _mixed_jobs(rng, work)


CYCLES = {"certify": certify_cycle, "simulate": simulate_cycle}


def make_cycle(workload: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's input files under ``work`` and return its job cycle."""
    return CYCLES[workload](np.random.default_rng(seed), work)


def warmup_jobs(cycle: list[Job]) -> list[Job]:
    """The first job of each distinct (command, size) in the cycle."""
    seen, out = set(), []
    for job in cycle:
        if (job.command, job.size) not in seen:
            seen.add((job.command, job.size))
            out.append(job)
    return out
