"""Success probabilities: analytic formulas, the measurement itself, and the
comparison against the known-state optimum.

Run with: python3 demos/04_success_probabilities.py
"""

import numpy as np

from udisc import (
    build_optimal_equal,
    build_universal,
    cross_term,
    efficiency_bounds,
    known_state_optimum,
    success_prob_analytic,
    success_prob_operational,
)


def pair(s, m=3):
    states = np.zeros((2, m), dtype=complex)
    states[0, 0] = 1.0
    states[1, 0] = s
    states[1, 1] = np.sqrt(1 - s * s)
    return states


print("== Orthonormal pairs ==")
print("optimal (m=n=2):         p =",
      success_prob_operational(build_optimal_equal(2), np.eye(2, dtype=complex), 1),
      " (n det(X)/(n+1)! = 1/3)")
print("universal (m=3, n=2):    p =",
      success_prob_operational(build_universal(3, 2), np.eye(3, dtype=complex)[:2], 1),
      " (det(X)/(n n!) = 1/4)")
print("universal (m=4, n=2):    p =",
      success_prob_operational(build_universal(4, 2), np.eye(4, dtype=complex)[:2], 1),
      " (independent of the dimension)")

print("\n== Sweep over the overlap (universal, n=2) ==")
povm = build_universal(3, 2)
print(f"{'|<a|b>|':>8s} {'p device':>10s} {'p formula':>10s} {'p_s known':>10s} "
      f"{'envelope low':>12s} {'envelope high':>13s}")
for s in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
    states = pair(s)
    p = success_prob_operational(povm, states, 1)
    p_formula = success_prob_analytic(states, "universal")
    p_s = known_state_optimum(states)
    lo, hi = efficiency_bounds(p_s, 2)
    print(f"{s:8.2f} {p:10.6f} {p_formula:10.6f} {p_s:10.6f} {lo:12.6f} {hi:13.6f}")

print("\nBoth envelope ends are proven: det(X) >= p_s^n, and AM-GM on the other")
print("n-1 Gram eigenvalues (which sum to n - p_s) gives the upper end")
print("p_s ((n-p_s)/(n-1))^(n-1)/(n n!).  For n = 2 that upper end equals the")
print("attained p at every overlap, since det(X) = p_s (2 - p_s).  The device")
print("never misidentifies, whatever the overlap:")
for s in (0.3, 0.7):
    states = pair(s)
    print(f"  overlap {s}: wrong-state outcome probability = "
          f"{cross_term(povm, states, 1, 2):.2e}")

print("\n== Optimal family sweep (m = n = 2) ==")
povm22 = build_optimal_equal(2)
for s in (0.0, 0.4, 0.8):
    states = pair(s, m=2)
    print(f"  overlap {s:.1f}: p = {success_prob_operational(povm22, states, 1):.6f}"
          f"   (n det(X)/(n+1)! = {success_prob_analytic(states, 'optimal'):.6f})")
