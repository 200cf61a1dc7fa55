"""Deciding perfect state transfer on small examples.

A single excitation hopping on a coupling graph transfers perfectly from
vertex A to vertex B when every eigenvector pair of amplitudes at A and B
matches in magnitude (weight condition) and the eigenvalue gaps line up so
all phases rendezvous at one time (phase condition).  check_transfer tests
both and, when they hold, confirms the verdict by direct evolution.
"""

import math

import numpy as np

from pstlab import (
    adjacency_hamiltonian,
    check_transfer,
    complete_graph,
    evolve,
    fidelity,
    path_graph,
)


def show(name, h, a, b):
    v = check_transfer(h, a, b)
    print(f"{name}: {a} -> {b}: {v.status}")
    if v.is_perfect:
        print(f"  t0 = {v.t0:.10f}, phase = {v.transfer_phase:.6f}")
        print(f"  gap gcd chi = {v.gap_structure.chi:.10f}, "
              f"integer gaps {list(v.gap_structure.integers)}, r = {v.r}")
    else:
        print(f"  reason: {v.reason}")
    print()
    return v


# The 3-site uniform chain transfers end to end even though its spectrum
# {0, +-sqrt(2)} is irrational: only the gap *ratios* must be rational.
p3 = adjacency_hamiltonian(path_graph(3))
v = show("uniform 3-chain", p3, 0, 2)
assert math.isclose(v.t0, math.pi / math.sqrt(2))

# The complete graph K3 fails the weight condition: the degenerate
# eigenspace projects unequally onto any two vertices.
k3 = adjacency_hamiltonian(complete_graph(3))
show("complete graph K3", k3, 0, 1)

# The 4-site uniform chain has commensurable gaps but the integer gaps
# disagree with the sign pattern required at B: a parity obstruction.
p4 = adjacency_hamiltonian(path_graph(4))
show("uniform 4-chain", p4, 0, 3)

# Every Perfect verdict can be replayed by direct evolution.
state = np.zeros(3, dtype=complex)
state[0] = 1.0
arrived = evolve(p3, state, v.t0)
print("evolved 3-chain state at t0:", np.round(arrived, 6))
amp, mag = fidelity(p3, 0, 2, v.t0)
print(f"arrival amplitude {amp:.6f}, magnitude {mag:.12f}")
