"""Command-line interface.

Subcommands: build, verify, prob, sample, mixed.  Each handler ``cmd_*``
returns ``(exit status, [(key, value), ...])``, and ``main`` prints those
lines in one place, as ``key = value`` or, with ``--format kv``, as
machine-readable ``key=value`` lines carrying the same numbers.  Warnings
go to stderr as they arise.  Exit status is 0 for success/pass, 1 for a
semantic failure (verification fail, not discriminable), 2 for input
errors, which print nothing to stdout.  ``main`` enters
config.entry_cap(--cap) once.  The budget bounds
every block an input file declares and the elements ``build`` writes.
``build`` and ``verify`` form no dense element for a built family, a
commutant file or a sector-row file (``build`` writes the permutation
coefficients in io's commutant layout, and ``verify`` works on
weight-sector entries); ``verify`` reads a dense file as its
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
    FAMILIES,
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


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _numbered(key: str, values, start: int = 0) -> list:
    """The lines key_k = value for k = start, start + 1, ..."""
    return [(f"{key}_{k}", value) for k, value in enumerate(values, start)]


def _check_index(option: str, value: int, n: int) -> None:
    """Refuse a 1-based option value outside 1..n, naming the option."""
    if not 1 <= value <= n:
        raise FormatError(f"{option} {value} outside 1..{n}")


def _state_set(args):
    """Read prob's or sample's state file, check --which, warn, and pick the family.

    Returns (states, family, the m n family which lines both commands print first).
    """
    states, warnings = io.read_states(args.states)
    _check_index("--which", args.which, len(states))
    for w in warnings:
        _warn(w)
    n, m = states.shape
    family = args.family or auto_family(m, n)
    return states, family, [("m", m), ("n", n), ("family", family), ("which", args.which)]


def cmd_build(args):
    povm = family_povm(args.family, args.m, args.n)
    io.write_povm(args.out, povm)
    return 0, [("family", args.family), ("m", args.m), ("n", args.n), ("c", float(povm.c)),
               ("elements", povm.n + 1), ("dim", povm.dim), ("out", args.out)]


def cmd_verify(args):
    povm = io.read_povm(args.povm)
    report = verify_unambiguous(povm)
    cov = check_covariance(povm)
    return (0 if report.passed else 1), [
        ("m", povm.m), ("n", povm.n), ("elements", povm.n + 1),
        ("completeness_residual", report.completeness_residual),
        *_numbered("psd_min", report.psd_mins),
        *_numbered("leakage", report.leakages, 1),
        ("unitary_residual", cov.unitary_residual),
        ("permutation_residual", cov.permutation_residual),
        ("reduction_residual", cov.reduction_residual),
        ("reduction_spread", cov.reduction_spread),
        ("covariance", "pass" if cov.passed else "fail"),
        ("verdict", "pass" if report.passed else "fail"),
    ]


def cmd_prob(args):
    states, family, lines = _state_set(args)
    n, m = states.shape
    det = gram_det(states)
    if det <= DEPENDENCE_WARN_TOL:
        _warn("states are numerically linearly dependent; success probability is 0")
    povm = family_povm(family, m, n)
    p_analytic = success_prob_analytic(states, family)
    p_operational = success_prob_operational(povm, states, args.which)
    p_s = known_state_optimum(states)
    # efficiency_bounds brackets the universal value det(X)/(n·n!); rescale to this family
    scale = success_factor(family, n) * n * math.factorial(n)
    lower, upper = (scale * b for b in efficiency_bounds(p_s, n))
    return 0, lines + [("det_gram", det), ("p_analytic", p_analytic), ("p_operational", p_operational),
                       ("p_s", p_s), ("bound_lower", lower), ("bound_upper", upper)]


def cmd_sample(args):
    _check_run(args.shots, args.seed)
    states, family, lines = _state_set(args)
    n, m = states.shape
    dist = outcome_distribution(family_povm(family, m, n), program_input(states, args.which))
    record = sample(dist, args.shots, args.seed)
    return 0, lines + [
        ("shots", args.shots), ("seed", args.seed),
        *_numbered("p", dist.probabilities),
        *_numbered("count", record.counts),
        *_numbered("freq", record.frequencies),
        *_numbered("se", record.standard_errors(dist)),
    ]


def cmd_mixed(args):
    _check_run(args.shots, args.seed)
    _check_index("--data", args.data, len(args.rho))
    rhos = [io.read_density(path) for path in args.rho]
    cores = core_decompose(rhos)
    verdict = cores.discriminable
    lines = [("n", len(rhos)), ("dim", cores.dim), *_numbered("core_trace", cores.tilde_traces(), 1),
             ("core_trace_0", cores.tilde0_trace()), ("discriminable", verdict)]
    try:
        program = build_program(cores)
    except ProgramNotIndependent as exc:
        _warn(f"program construction failed: {exc}")
        return 1, lines + [("program", "not_independent")]
    lines += [("N", program.total), ("det_program_gram", program.det_gram)]
    if program.total < 2:
        _warn("program holds fewer than two pure states; no discriminator to run")
        return (0 if verdict else 1), lines

    probs = part_probabilities(program, rhos[args.data - 1])
    report = bounds_check(program, args.data, probs)
    labels = [f"part_{i}" for i in range(len(probs.parts))] + ["inconclusive"]
    dist = distribution_from_probs(list(probs.parts) + [probs.inconclusive], labels)
    record = sample(dist, args.shots, args.seed)
    return (0 if verdict and report.passed else 1), lines + [
        ("family", probs.family), *_numbered("part_prob", probs.parts), ("inconclusive", probs.inconclusive),
        ("bound_lower", report.lower_bound), *_numbered("bound_upper", report.upper_bounds),
        ("bounds", "pass" if report.passed else "fail"),
        *((f"count_{label}", count) for label, count in zip(labels, record.counts)),
    ]


def _state_set_options(p) -> None:
    """The state file, --family and --which, shared by prob and sample."""
    p.add_argument("states", help="state file")
    p.add_argument("--family", choices=FAMILIES, default=None,
                   help="default: optimal when m = n, else universal")
    p.add_argument("--which", type=int, default=1, help="1-based index of the data state")


def _run_options(p) -> None:
    """--shots and --seed, shared by sample and mixed."""
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)


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
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--out", required=True, help="output POVM file")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("verify", parents=[common], help="verify a serialized POVM")
    p.add_argument("povm", help="POVM file to verify")
    p.add_argument("--seed", type=int, default=7,
                   help="accepted for compatibility; no effect, the covariance check is exact")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("prob", parents=[common], help="success probability for a state file")
    _state_set_options(p)
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("sample", parents=[common], help="simulate measurement shots")
    _state_set_options(p)
    _run_options(p)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("mixed", parents=[common], help="mixed-state discrimination pipeline")
    p.add_argument("rho", nargs="+", help="density operator files (at least two)")
    p.add_argument("--data", type=int, required=True, help="1-based index of the data state")
    _run_options(p)
    p.set_defaults(handler=cmd_mixed)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    sep = "=" if args.format == "kv" else " = "
    try:
        with entry_cap(args.cap):
            status, lines = args.handler(args)
        # inside the try: a closed stdout (BrokenPipeError) exits 2 like any OSError
        for key, value in lines:
            print(f"{key}{sep}{_fmt(value)}")
        return status
    except (UdiscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
