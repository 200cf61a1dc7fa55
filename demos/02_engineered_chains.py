"""Engineered chains: mirror-symmetric and asymmetric coupling patterns.

The classic chain J_k = sqrt(k (N - k)) has eigenvalues spaced by exactly 2,
so it transfers end to end at t0 = pi/2 for every length.  Mirror symmetry
is sufficient but not necessary: a one-parameter family of
5-site chains moves the excitation between the 2nd and 4th sites without
any mirror symmetry, as long as J1^2 + J2^2 = J3^2 + J4^2.
"""

import math

import numpy as np

from pstlab import (
    asymmetric_5chain_couplings,
    chain_hamiltonian,
    check_coupling_identity_5chain,
    check_transfer,
    decompose,
    standard_pst_chain_couplings,
    symmetry_operator,
)

print("= mirror-symmetric chains =")
for n in (2, 3, 5, 8):
    j = standard_pst_chain_couplings(n)
    h = chain_hamiltonian(j)
    v = check_transfer(h, 0, n - 1)
    print(f"  N={n}: couplings {np.round(j, 4)} -> {v.status}, "
          f"t0 = {v.t0:.6f} (pi = {math.pi:.6f})")

print()
print("= asymmetric 5-site family, transfer 2nd <-> 4th site =")
for j2 in (0.95, 1.0, 1.2, 1.5):
    j = asymmetric_5chain_couplings(j2)
    assert check_coupling_identity_5chain(j)
    h = chain_hamiltonian(j)
    v = check_transfer(h, 1, 3)
    print(f"  J2={j2}: couplings {np.round(j, 4)} -> {v.status}, "
          f"t0 = {v.t0:.6f}")

# The hidden symmetry is an involution built from eigenspace projectors:
# S is unitary, commutes with H, squares to the identity, and swaps the
# two transfer sites -- but it is not a vertex permutation.
j = asymmetric_5chain_couplings(1.2)
h = chain_hamiltonian(j)
s = symmetry_operator(decompose(h), 1, 3)
print()
print("symmetry operator for J2=1.2 (rounded):")
print(np.round(np.real_if_close(s), 3))
print("S^2 deviation from identity:",
      f"{np.linalg.norm(s @ s - np.eye(5)):.2e}")
print("[S, H] norm:", f"{np.linalg.norm(s @ h - h @ s):.2e}")
