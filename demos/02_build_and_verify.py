"""Constructing the three measurement families and verifying them.

Run with: python3 demos/02_build_and_verify.py
"""

import tempfile

import numpy as np

from udisc import (
    build_optimal_equal,
    build_trivial_antisym,
    build_universal,
    check_covariance,
    verify_unambiguous,
)
from udisc.io import read_povm, write_povm

print("== Building the families ==")
povms = {
    "optimal (m=n=2)": build_optimal_equal(2),
    "optimal (m=n=3)": build_optimal_equal(3),
    "universal (m=3, n=2)": build_universal(3, 2),
    "trivial (m=3, n=2)": build_trivial_antisym(3, 2),
}
for name, povm in povms.items():
    mins, completeness = povm.residuals()
    print(f"{name:22s} c = {povm.c:.6f}  dim = {povm.dim:3d}  "
          f"min eig = {min(mins):+.1e}  completeness = {completeness:.1e}")

print("\n== Unambiguity verification ==")
print("Each element i >= 1, traced over its own register, must be supported")
print("inside the antisymmetric subspace of the remaining registers.")
for name, povm in povms.items():
    report = verify_unambiguous(povm)
    print(f"{name:22s} max leakage = {report.max_leakage():.2e}  "
          f"-> {'pass' if report.passed else 'fail'}")

print("\nA counterexample: an element that ignores the program registers.")
from udisc import Povm  # noqa: E402

# an explicit POVM on registers of dims (2, 2, 2): two programs and the data
eye = np.eye(8, dtype=complex)
leaky = Povm(m=2, n=2, elements=(eye / 2, eye / 2, np.zeros((8, 8), dtype=complex)))
report = verify_unambiguous(leaky)
print(f"valid POVM, but leakage = {report.max_leakage():.3f} -> "
      f"{'pass' if report.passed else 'fail'}")

print("\n== Symmetry properties ==")
cov = check_covariance(povms["universal (m=3, n=2)"])
print("collective-unitary residual :", f"{cov.unitary_residual:.2e}")
print("register-permutation residual:", f"{cov.permutation_residual:.2e}")
print("reduction to own register   :", f"{cov.reduction_residual:.2e}",
      " constants:", [round(c, 12) for c in cov.reduction_constants])

print("\n== Serialization round-trip ==")
with tempfile.NamedTemporaryFile(suffix=".povm", mode="w", delete=False) as fh:
    path = fh.name
write_povm(path, povms["universal (m=3, n=2)"])
loaded = read_povm(path)
exact = all(np.array_equal(a, b)
            for a, b in zip(loaded.elements, povms["universal (m=3, n=2)"].elements))
print("text file at 17 significant digits reproduces the POVM exactly:", exact)
