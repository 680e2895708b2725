"""Mixed-state discrimination: cores, programs, part probabilities, bounds.

Run with: python3 demos/05_mixed_states.py
"""

import numpy as np

from udisc import (
    bounds_check,
    build_program,
    core_decompose,
    part_probabilities,
)


def show_ensemble(name, rhos, data_index):
    print(f"== {name} ==")
    cores = core_decompose(rhos)
    for i, tr in enumerate(cores.tilde_traces(), start=1):
        print(f"  Tr(core_{i}) = {tr:.6f}")
    print(f"  Tr(pooled remainder) = {np.trace(cores.tilde0).real:.6f}")
    print("  discriminable:", cores.discriminable)
    program = build_program(cores)
    print(f"  program: N = {program.total} pure states, registers by part:",
          program.part_registers)
    probs = part_probabilities(program, rhos[data_index - 1])
    print(f"  data = state {data_index} ({probs.family} device):")
    for i, p in enumerate(probs.parts):
        print(f"    part {i}: {p:.6f}")
    print(f"    inconclusive: {probs.inconclusive:.6f}")
    report = bounds_check(program, data_index, probs)
    print(f"  envelope: own part >= {report.lower_bound:.6f}, "
          f"uppers = {[round(u, 6) for u in report.upper_bounds]} "
          f"-> {'pass' if report.passed else 'fail'}")
    print()


# Orthogonal pure states: the cores are the states themselves.
show_ensemble(
    "orthogonal pure pair (dim 2)",
    [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    data_index=1,
)

# One state hides inside the other's support: its core vanishes.
print("== maximally mixed vs pure (dim 2) ==")
rhos = [np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)]
cores = core_decompose(rhos)
print("  split of state 1: core = diag", np.round(np.diag(cores.tildes[0]).real, 3),
      ", remainder = diag", np.round(np.diag(cores.hats[0]).real, 3))
print("  core of state 2 vanishes -> discriminable:", cores.discriminable)
print()

# A qutrit ensemble where the pooled part stays empty.
show_ensemble(
    "rank-2 vs pure (dim 3, disjoint supports)",
    [np.diag([0.5, 0.5, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)],
    data_index=1,
)

# Overlapping supports: remainders pool into part 0, outcomes may land there.
rho1 = np.diag([0.6, 0.4, 0.0]).astype(complex)
rho2 = np.diag([0.0, 0.3, 0.7]).astype(complex)
show_ensemble("overlapping diagonal supports (dim 3)", [rho1, rho2], data_index=1)

print("Outcomes can only land in the data state's own part or in part 0;")
print("all other parts stay at zero probability.")
