"""Wedge products, permutation signs and the antisymmetric projector.

Run with: python3 demos/01_antisymmetric_machinery.py
"""

import numpy as np

from udisc import (
    Permutation,
    antisym_projector,
    antisym_projector_from_basis,
    gram,
    gram_det,
    kron_chain,
    wedge,
)

print("== Wedge products ==")
v = wedge(np.eye(2))
print("wedge of |0>, |1> :", np.round(v.real, 6), " (the singlet, up to sign)")
print("wedge of |0>, |0> :", wedge(np.array([[1, 0], [1, 0]], dtype=complex)))

rng = np.random.default_rng(1)
states = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
states /= np.linalg.norm(states, axis=1, keepdims=True)
w = wedge(states)
print("\nThree random states in dimension 4:")
print("  |wedge|^2      =", round(float(np.vdot(w, w).real), 12))
print("  det(Gram)      =", round(gram_det(states), 12))
print("  (equal: the squared norm of a wedge is the Gram determinant)")

print("\n== Permutation signs ==")
print("sign of (2,3,1):", Permutation((2, 3, 1)).sign)
print("sign of (2,1)  :", Permutation((2, 1)).sign)
singlet = antisym_projector(2, 2).matrix.real
print("<01|P|01> =", singlet[1, 1], " <10|P|01> =", singlet[2, 1],
      " (sign of the swap taking |01> to |10>, over 2!)")

print("\n== The antisymmetric projector ==")
for m, n in ((2, 2), (3, 2), (4, 2), (4, 3)):
    proj = antisym_projector(m, n)
    print(f"m={m}, n={n}: trace = {np.trace(proj.matrix).real:.6f}"
          f"  (binomial C({m},{n}) = {proj.rank})")

delta = np.max(np.abs(antisym_projector(3, 2).matrix
                      - antisym_projector_from_basis(3, 2).matrix))
print("sign-identity route vs basis route (m=3, n=2):", f"{delta:.2e}")

print("\n== Overlap identity ==")
pair = np.array([[1, 0, 0], [0.6, 0.8, 0]], dtype=complex)
print("pair with overlap 0.6:")
phi = kron_chain(pair)
overlap = float((phi.conj() @ antisym_projector(3, 2).matrix @ phi).real)
print("  <phi| P |phi>  =", round(overlap, 12))
print("  det(X)/2!      =", round(gram_det(pair) / 2, 12))
print("  Gram matrix    =\n", np.round(gram(pair).real, 6))
