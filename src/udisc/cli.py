"""Command-line interface.

Subcommands: build, verify, prob, sample, mixed.  Exit status is 0 for
success/pass, 1 for a semantic failure (verification fail, not
discriminable), 2 for input errors.  ``--format kv`` switches to
machine-readable ``key=value`` lines carrying the same numbers as the text
mode.  ``main`` enters config.entry_cap(--cap) once.  The budget bounds
every block an input file declares and the elements ``build`` writes.
``build`` and ``verify`` form no dense element for a built family or a
sector-row file (they work on weight-sector entries, and ``build`` writes
them in io's sector-row layout); ``verify`` reads a dense file as its
dense elements and checks them on the sector route when they are zero
outside their weight sectors, with the same output.  prob, sample and
mixed use the closed-form outcome probabilities of the built families and
form no dense operator.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import io
from .config import DEFAULT_ENTRY_CAP, entry_cap
from .discriminator import (
    auto_family,
    check_covariance,
    efficiency_bounds,
    family_povm,
    known_state_optimum,
    program_input,
    success_factor,
    success_prob_analytic,
    success_prob_operational,
    verify_unambiguous,
)
from .errors import FormatError, ProgramNotIndependent, UdiscError
from .mixed_states import bounds_check, build_program, core_decompose, part_probabilities
from .sampler import _check_run, distribution_from_probs, outcome_distribution, sample
from .tensor_algebra import gram_det

DEPENDENCE_WARN_TOL = 1e-12


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class Emitter:
    """Uniform printing for text ('key = value') and kv ('key=value') modes."""

    def __init__(self, fmt: str):
        self.kv = fmt == "kv"

    def value(self, key: str, value) -> None:
        sep = "=" if self.kv else " = "
        print(f"{key}{sep}{_fmt(value)}")

    def warn(self, message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)


def _check_index(option: str, value: int, n: int) -> None:
    """Refuse a 1-based option value outside 1..n, naming the option."""
    if not 1 <= value <= n:
        raise FormatError(f"{option} {value} outside 1..{n}")


def cmd_build(args, emit: Emitter) -> int:
    povm = family_povm(args.family, args.m, args.n)
    io.write_povm(args.out, povm)
    emit.value("family", args.family)
    emit.value("m", args.m)
    emit.value("n", args.n)
    emit.value("c", float(povm.c))
    emit.value("elements", povm.n + 1)
    emit.value("dim", povm.dim)
    emit.value("out", args.out)
    return 0


def cmd_verify(args, emit: Emitter) -> int:
    povm = io.read_povm(args.povm)
    report = verify_unambiguous(povm)
    cov = check_covariance(povm)
    emit.value("m", povm.m)
    emit.value("n", povm.n)
    emit.value("elements", povm.n + 1)
    emit.value("completeness_residual", report.completeness_residual)
    for idx, val in enumerate(report.psd_mins):
        emit.value(f"psd_min_{idx}", val)
    for i, val in enumerate(report.leakages, start=1):
        emit.value(f"leakage_{i}", val)
    emit.value("unitary_residual", cov.unitary_residual)
    emit.value("permutation_residual", cov.permutation_residual)
    emit.value("reduction_residual", cov.reduction_residual)
    emit.value("reduction_spread", cov.reduction_spread)
    emit.value("covariance", "pass" if cov.passed else "fail")
    emit.value("verdict", "pass" if report.passed else "fail")
    return 0 if report.passed else 1


def cmd_prob(args, emit: Emitter) -> int:
    states, warnings = io.read_states(args.states)
    _check_index("--which", args.which, len(states))
    for w in warnings:
        emit.warn(w)
    n, m = states.shape
    family = args.family or auto_family(m, n)
    det = gram_det(states)
    if det <= DEPENDENCE_WARN_TOL:
        emit.warn("states are numerically linearly dependent; success probability is 0")
    povm = family_povm(family, m, n)
    p_analytic = success_prob_analytic(states, family)
    p_operational = success_prob_operational(povm, states, args.which)
    p_s = known_state_optimum(states)
    # efficiency_bounds brackets the universal value det(X)/(n·n!); rescale to this family
    scale = success_factor(family, n) * n * math.factorial(n)
    lower, upper = (scale * b for b in efficiency_bounds(p_s, n))
    emit.value("m", m)
    emit.value("n", n)
    emit.value("family", family)
    emit.value("which", args.which)
    emit.value("det_gram", det)
    emit.value("p_analytic", p_analytic)
    emit.value("p_operational", p_operational)
    emit.value("p_s", p_s)
    emit.value("bound_lower", lower)
    emit.value("bound_upper", upper)
    return 0


def cmd_sample(args, emit: Emitter) -> int:
    _check_run(args.shots, args.seed)
    states, warnings = io.read_states(args.states)
    _check_index("--which", args.which, len(states))
    for w in warnings:
        emit.warn(w)
    n, m = states.shape
    family = args.family or auto_family(m, n)
    povm = family_povm(family, m, n)
    dist = outcome_distribution(povm, program_input(states, args.which))
    record = sample(dist, args.shots, args.seed)
    errors = record.standard_errors(dist)
    emit.value("m", m)
    emit.value("n", n)
    emit.value("family", family)
    emit.value("which", args.which)
    emit.value("shots", args.shots)
    emit.value("seed", args.seed)
    for k in range(dist.size):
        emit.value(f"p_{k}", float(dist.probabilities[k]))
    for k in range(dist.size):
        emit.value(f"count_{k}", record.counts[k])
    for k in range(dist.size):
        emit.value(f"freq_{k}", record.frequencies[k])
    for k in range(dist.size):
        emit.value(f"se_{k}", errors[k])
    return 0


def cmd_mixed(args, emit: Emitter) -> int:
    _check_run(args.shots, args.seed)
    _check_index("--data", args.data, len(args.rho))
    rhos = [io.read_density(path) for path in args.rho]
    n = len(rhos)
    cores = core_decompose(rhos)
    emit.value("n", n)
    emit.value("dim", cores.dim)
    for i, tr in enumerate(cores.tilde_traces(), start=1):
        emit.value(f"core_trace_{i}", tr)
    emit.value("core_trace_0", cores.tilde0_trace())
    verdict = cores.discriminable
    emit.value("discriminable", verdict)

    try:
        program = build_program(cores)
    except ProgramNotIndependent as exc:
        emit.warn(f"program construction failed: {exc}")
        emit.value("program", "not_independent")
        return 1
    emit.value("N", program.total)
    emit.value("det_program_gram", program.det_gram)

    if program.total < 2:
        emit.warn("program holds fewer than two pure states; no discriminator to run")
        return 0 if verdict else 1

    probs = part_probabilities(program, rhos[args.data - 1])
    emit.value("family", probs.family)
    for i, p in enumerate(probs.parts):
        emit.value(f"part_prob_{i}", p)
    emit.value("inconclusive", probs.inconclusive)

    report = bounds_check(program, args.data, probs)
    emit.value("bound_lower", report.lower_bound)
    for i, u in enumerate(report.upper_bounds):
        emit.value(f"bound_upper_{i}", u)
    emit.value("bounds", "pass" if report.passed else "fail")

    labels = [f"part_{i}" for i in range(len(probs.parts))] + ["inconclusive"]
    dist = distribution_from_probs(list(probs.parts) + [probs.inconclusive], labels)
    record = sample(dist, args.shots, args.seed)
    for label, count in zip(labels, record.counts):
        emit.value(f"count_{label}", count)

    if not verdict or not report.passed:
        return 1
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "kv"), default="text",
        help="output style: human text or machine key=value lines",
    )
    common.add_argument(
        "--cap", type=int, default=None,
        help=f"dense entry budget (default: UDISC_CAP or {DEFAULT_ENTRY_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="udisc",
        description="Build, verify and exercise programmable unambiguous discriminators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="construct a POVM and write it to a file")
    p.add_argument("--m", type=int, required=True, help="single-system dimension")
    p.add_argument("--n", type=int, required=True, help="number of states")
    p.add_argument("--family", choices=("optimal", "universal", "trivial"), required=True)
    p.add_argument("--out", required=True, help="output POVM file")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("verify", parents=[common], help="verify a serialized POVM")
    p.add_argument("povm", help="POVM file to verify")
    p.add_argument("--seed", type=int, default=7,
                   help="accepted for compatibility; no effect, the covariance check is exact")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("prob", parents=[common], help="success probability for a state file")
    p.add_argument("states", help="state file")
    p.add_argument("--family", choices=("optimal", "universal", "trivial"), default=None,
                   help="default: optimal when m = n, else universal")
    p.add_argument("--which", type=int, default=1, help="1-based index of the data state")
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("sample", parents=[common], help="simulate measurement shots")
    p.add_argument("states", help="state file")
    p.add_argument("--family", choices=("optimal", "universal", "trivial"), default=None,
                   help="default: optimal when m = n, else universal")
    p.add_argument("--which", type=int, default=1, help="1-based index of the data state")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("mixed", parents=[common], help="mixed-state discrimination pipeline")
    p.add_argument("rho", nargs="+", help="density operator files (at least two)")
    p.add_argument("--data", type=int, required=True, help="1-based index of the data state")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_mixed)

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    emit = Emitter(args.format)
    try:
        with entry_cap(args.cap):
            return args.handler(args, emit)
    except (UdiscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
