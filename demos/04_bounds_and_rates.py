"""How fast, and to how many places, can an excitation travel?

Three quantitative limits:
  * rate bound 2l + D <= M: the transfer distance D and the number l of
    autocorrelation zeros before arrival are jointly limited by the number
    M of distinct eigenvalues;
  * a Margolus-Levitin-style time floor from the couplings at the source;
  * routing impossibility: a real Hamiltonian never transfers perfectly
    from one source to two different targets.
"""

import numpy as np

from pstlab import (
    adjacency_hamiltonian,
    chain_hamiltonian,
    cycle_graph,
    hypercube_graph,
    laplacian_diameter_bounds,
    path_graph,
    rate_report,
    routing_impossibility_scan,
    standard_pst_chain_couplings,
)

print("= rate bound on the standard 5-chain, source = 2nd site =")
h = chain_hamiltonian(standard_pst_chain_couplings(5))
r = rate_report(h, 1, 3)
print(f"  distance D = {r.D}, distinct eigenvalues M = {r.M}, "
      f"autocorrelation zeros l = {r.l} at {np.round(r.zero_times, 6)}")
print(f"  2l + D = {2 * r.l + r.D} <= {r.M}: {r.bound_satisfied}")
print(f"  time floor: t0 >= {r.ml_lower_bound:.6f}")

print()
print("= routing impossibility =")
for name, mat, src in (
    ("standard 5-chain", h, 0),
    ("cycle C4", adjacency_hamiltonian(cycle_graph(4)), 0),
    ("path P4", adjacency_hamiltonian(path_graph(4)), 0),
):
    found = routing_impossibility_scan(mat, src)
    print(f"  {name}, source {src}: perfect targets {found or 'none'}")

print()
print("= Laplacian diameter bounds =")
for name, g in (("Q_3", hypercube_graph(3)), ("P5", path_graph(5))):
    rep = laplacian_diameter_bounds(g)
    print(f"  {name}: D = {rep.D}, 2d = {rep.two_d}, k - 1 = {rep.k_minus_1}, "
          f"mohar = { {round(a, 3): m for a, m in rep.mohar.items()} }, "
          f"all satisfied: {rep.all_satisfied}")
