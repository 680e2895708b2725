"""Spans around udisc's layers, recorded from outside the package.

The udisc modules import each other's functions with ``from .x import y``, so
a function is wrapped in every ``udisc.*`` namespace that binds it.  Spans are
kept in memory as (name, start, end, parent, job) and written out when the
run ends.  A span's self time is its duration minus that of its children.

``PER_LAYER`` lists every per-layer metric with the end-to-end metric it
should move and the workload it should move on; BENCHMARK.json repeats the
names, units and directions.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric, unit, better, end-to-end metric it should move, workload it moves on)
PER_LAYER = (
    ("cli.build.s_p50", "s", "lower", "job_s_p50, job_s_p90", "certify"),
    ("cli.verify.s_p50", "s", "lower", "job_s_p50, job_s_p90", "certify"),
    ("cli.prob.s_p50", "s", "lower", "job_s_p50, job_s_p90", "simulate"),
    ("cli.sample.s_p50", "s", "lower", "job_s_p50, job_s_p90", "simulate"),
    ("cli.mixed.s_p50", "s", "lower", "job_s_p50, job_s_p90", "simulate"),
    ("cli.self_s", "s", "lower", "jobs_per_s", "all (CLI time outside wrapped layers)"),
    ("io.write_povm.self_s", "s", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("io.read_povm.self_s", "s", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("io.povm_bytes", "bytes", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("io.write_povm.MBps", "MB/s", "higher", "jobs_per_s, job_s_p90", "certify"),
    ("io.read_povm.MBps", "MB/s", "higher", "jobs_per_s, job_s_p90", "certify"),
    ("io.read_states.self_s", "s", "lower", "jobs_per_s", "simulate"),
    ("io.read_density.self_s", "s", "lower", "jobs_per_s", "simulate (mixed jobs)"),
    ("discriminator.check_covariance.self_s", "s", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("antisym.permutation_operator.self_s", "s", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("antisym.permutation_operator.calls", "count", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("tensor_algebra.kron_chain.self_s", "s", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("tensor_algebra.kron_chain.calls", "count", "lower", "jobs_per_s, job_s_p90", "certify"),
    ("discriminator.verify_unambiguous.self_s", "s", "lower", "jobs_per_s", "certify"),
    ("discriminator.Povm.residuals.self_s", "s", "lower", "jobs_per_s", "certify"),
    ("tensor_algebra.partial_trace.self_s", "s", "lower", "jobs_per_s", "certify"),
    ("tensor_algebra.partial_trace.calls", "count", "lower", "jobs_per_s", "certify"),
    ("tensor_algebra.require_hermitian.self_s", "s", "lower", "jobs_per_s", "certify"),
    ("tensor_algebra.require_hermitian.calls", "count", "lower", "jobs_per_s", "certify"),
    ("discriminator.build.self_s", "s", "lower", "jobs_per_s, job_s_p90, peak_rss_mb", "simulate (prob, sample; mixed N = 4)"),
    ("discriminator.build.bytes", "bytes", "lower", "jobs_per_s, job_s_p90, peak_rss_mb", "simulate (prob, sample; mixed N = 4)"),
    ("antisym.antisym_projector.self_s", "s", "lower", "jobs_per_s, job_s_p90, peak_rss_mb", "simulate (prob, sample; mixed N = 4)"),
    ("antisym.antisym_projector.calls", "count", "lower", "jobs_per_s, job_s_p90, peak_rss_mb", "simulate (prob, sample; mixed N = 4)"),
    ("tensor_algebra.reorder_factors.self_s", "s", "lower", "jobs_per_s, job_s_p90, peak_rss_mb", "simulate (prob, sample; mixed N = 4)"),
    ("tensor_algebra.reorder_factors.calls", "count", "lower", "jobs_per_s, job_s_p90, peak_rss_mb", "simulate (prob, sample; mixed N = 4)"),
    ("sampler.outcome_distribution.self_s", "s", "lower", "jobs_per_s", "simulate"),
    ("discriminator.success_prob_operational.self_s", "s", "lower", "jobs_per_s", "simulate"),
    ("discriminator.program_input.self_s", "s", "lower", "jobs_per_s", "simulate"),
    ("sampler.sample.self_s", "s", "lower", "job_s_p50", "simulate (mixed jobs)"),
    ("sampler.sample.calls", "count", "lower", "job_s_p50", "simulate (mixed jobs)"),
    ("sampler.shots_per_s", "1/s", "higher", "job_s_p50", "simulate (mixed jobs)"),
    ("mixed_states.core_decompose.self_s", "s", "lower", "job_s_p50", "simulate (mixed jobs)"),
    ("mixed_states.build_program.self_s", "s", "lower", "job_s_p50", "simulate (mixed jobs)"),
    ("mixed_states.part_probabilities.self_s", "s", "lower", "job_s_p90", "simulate (mixed jobs)"),
    ("mixed_states.bounds_check.self_s", "s", "lower", "job_s_p50", "simulate (mixed jobs)"),
    ("tensor_algebra.subspace.self_s", "s", "lower", "job_s_p50", "simulate (mixed jobs)"),
    ("tensor_algebra.psd_sqrt.self_s", "s", "lower", "job_s_p50", "simulate (mixed jobs)"),
    ("mixed_states.program_states_mean", "count", "lower", "nothing (input mix)", "simulate (mixed jobs)"),
    ("mixed_states.discriminable_ratio", "ratio", "higher", "nothing (input mix)", "simulate (mixed jobs)"),
    ("trace_overhead", "ratio", "lower", "nothing (untraced / traced jobs_per_s)", "all"),
)

# span name -> (module, attribute) of each wrapped function.  Several
# functions may share one span name.
TARGETS = {
    "io.write_povm": [("io", "write_povm")],
    "io.read_povm": [("io", "read_povm")],
    "io.read_states": [("io", "read_states")],
    "io.read_density": [("io", "read_density")],
    "discriminator.check_covariance": [("discriminator", "check_covariance")],
    "discriminator.verify_unambiguous": [("discriminator", "verify_unambiguous")],
    "discriminator.build": [
        ("discriminator", "build_optimal_equal"),
        ("discriminator", "build_universal"),
        ("discriminator", "build_trivial_antisym"),
    ],
    "discriminator.success_prob_operational": [("discriminator", "success_prob_operational")],
    "discriminator.program_input": [("discriminator", "program_input")],
    "antisym.permutation_operator": [("antisym", "permutation_operator")],
    "antisym.antisym_projector": [("antisym", "antisym_projector")],
    "tensor_algebra.kron_chain": [("tensor_algebra", "kron_chain")],
    "tensor_algebra.partial_trace": [("tensor_algebra", "partial_trace")],
    "tensor_algebra.require_hermitian": [("tensor_algebra", "require_hermitian")],
    "tensor_algebra.reorder_factors": [("tensor_algebra", "reorder_factors")],
    "tensor_algebra.subspace": [
        ("tensor_algebra", "support_projector"),
        ("tensor_algebra", "subspace_sum"),
        ("tensor_algebra", "subspace_intersection"),
        ("tensor_algebra", "subspace_preimage"),
    ],
    "tensor_algebra.psd_sqrt": [("tensor_algebra", "psd_sqrt")],
    "sampler.outcome_distribution": [("sampler", "outcome_distribution")],
    "sampler.sample": [("sampler", "sample")],
    "mixed_states.core_decompose": [("mixed_states", "core_decompose")],
    "mixed_states.build_program": [("mixed_states", "build_program")],
    "mixed_states.part_probabilities": [("mixed_states", "part_probabilities")],
    "mixed_states.bounds_check": [("mixed_states", "bounds_check")],
}

# Methods wrapped on their class: span name -> (module, class, method).
METHOD_TARGETS = {"discriminator.Povm.residuals": ("discriminator", "Povm", "residuals")}


def _povm_file_bytes(tracer, name, args, kwargs, result):
    size = os.path.getsize(args[0] if args else kwargs["path"])
    tracer.counters[f"{name}.bytes"] += size


def _element_bytes(tracer, name, args, kwargs, result):
    tracer.counters[f"{name}.bytes"] += sum(e.nbytes for e in result.elements)


def _shots(tracer, name, args, kwargs, result):
    tracer.counters[f"{name}.shots"] += result.shots


# Counts recorded at the same boundaries as the spans, outside their timing.
COUNTERS = {
    "io.write_povm": _povm_file_bytes,
    "io.read_povm": _povm_file_bytes,
    "discriminator.build": _element_bytes,
    "sampler.sample": _shots,
}


class Tracer:
    """In-memory span recorder; one job at a time, single thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.job = -1
        self._open: list[int] = []
        self._child_s: list[float] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        idx = len(self.spans) - 1
        self._open.append(idx)
        self._child_s.append(0.0)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._open.pop()
        children = self._child_s.pop()
        duration = end - span[1]
        self.self_s[span[0]] += duration - children
        self.calls[span[0]] += 1
        if self._child_s:
            self._child_s[-1] += duration

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, name, args, kwargs, result)
            return result

        return wrapper

    def write(self, path, meta: dict) -> None:
        """Write the spans as JSON lines after one header line of run metadata."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target in every loaded udisc module that binds it; undo on exit."""
    modules = [mod for key, mod in list(sys.modules.items()) if key == "udisc" or key.startswith("udisc.")]
    patches = []  # (owner, attribute, original)
    for name, refs in TARGETS.items():
        for module, attr in refs:
            original = getattr(importlib.import_module(f"udisc.{module}"), attr, None)
            if original is None:
                print(f"warning: udisc.{module}.{attr} not found; span {name} stays empty", file=sys.stderr)
                continue
            wrapper = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
    for name, (module, cls_name, method) in METHOD_TARGETS.items():
        cls = getattr(importlib.import_module(f"udisc.{module}"), cls_name)
        original = cls.__dict__[method]
        patches.append((cls, method, original))
        setattr(cls, method, tracer.wrap(name, original))
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
