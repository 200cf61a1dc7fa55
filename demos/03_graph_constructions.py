"""Building bigger transfer graphs out of smaller ones.

The Cartesian product of two graphs adds their Hamiltonians on the tensor
product, so transfer times survive products: hypercubes Q_d = K2 x ... x K2
all transfer antipodally at t0 = pi/2, with the arrival phase (-i)^d.
Complements of regular graphs transfer at the same t0 exactly when
exp(-i t0 N) = 1.
"""

from pstlab import (
    adjacency_hamiltonian,
    cartesian_product,
    check_transfer,
    complement,
    complement_pst_condition,
    complete_graph,
    cycle_graph,
    encode_graph6,
    hypercube_graph,
)

print("= hypercubes by iterated Cartesian product =")
g = complete_graph(2)
for d in range(1, 5):
    if d > 1:
        g = cartesian_product(g, complete_graph(2))
    assert g == hypercube_graph(d)
    v = check_transfer(adjacency_hamiltonian(g), 0, 2**d - 1)
    print(f"  Q_{d} ({g.n} vertices, graph6 {encode_graph6(g)!r}): "
          f"t0 = {v.t0:.6f}, phase = {v.transfer_phase:.4f}")

print()
print("= complement rule =")
c4 = cycle_graph(4)
v = check_transfer(adjacency_hamiltonian(c4), 0, 2)
ok = complement_pst_condition(v.t0, c4.n)
print(f"  C4 transfers 0 -> 2 at t0 = {v.t0:.6f}; "
      f"exp(-i t0 N) = 1? {ok}")
comp = complement(c4)
vc = check_transfer(adjacency_hamiltonian(comp), 0, 2)
print(f"  complement (edges {comp.sorted_edges()}) over the same pair: "
      f"{vc.status} at t0 = {vc.t0:.6f}")

k2 = complete_graph(2)
v = check_transfer(adjacency_hamiltonian(k2), 0, 1)
print(f"  K2 transfers at t0 = {v.t0:.6f}; "
      f"exp(-i t0 N) = 1? {complement_pst_condition(v.t0, 2)} "
      "(and indeed its complement is edgeless)")
