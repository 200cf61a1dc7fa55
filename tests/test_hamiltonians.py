import math

import numpy as np
import pytest

from pstlab import (
    EdgeNotInGraph,
    Graph,
    NonPositiveCoupling,
    adjacency_hamiltonian,
    asymmetric_5chain_couplings,
    chain_hamiltonian,
    check_coupling_identity_5chain,
    complete_graph,
    cycle_graph,
    laplacian_hamiltonian,
    model_hamiltonian,
    path_graph,
    standard_pst_chain_couplings,
    support_graph,
    weighted_hamiltonian,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)


class TestUniformModels:
    def test_adjacency_k2(self):
        assert np.array_equal(adjacency_hamiltonian(K2), [[0, 1], [1, 0]])

    def test_adjacency_p3_tridiagonal(self):
        assert np.array_equal(
            adjacency_hamiltonian(P3), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_adjacency_c4_circulant(self):
        a = adjacency_hamiltonian(cycle_graph(4))
        assert np.array_equal(a[0], [0, 1, 0, 1])
        assert np.array_equal(a, np.roll(np.roll(a, 1, 0), 1, 1))

    def test_laplacian_k2(self):
        assert np.array_equal(laplacian_hamiltonian(K2), [[1, -1], [-1, 1]])

    def test_laplacian_k3_row_sums(self):
        lap = laplacian_hamiltonian(K3)
        assert np.array_equal(np.diag(lap), [2, 2, 2])
        assert np.array_equal(lap.sum(axis=1), [0, 0, 0])

    def test_laplacian_edgeless(self):
        assert not laplacian_hamiltonian(Graph(3)).any()

    def test_trace_identity_small_graphs(self, small_connected_graphs):
        # trace(L) equals the degree sum, exactly, for every enumerated graph
        for n in range(1, 7):
            for g in small_connected_graphs[n]:
                lap = laplacian_hamiltonian(g)
                assert int(np.trace(lap)) == sum(g.degrees())
                assert int(np.trace(adjacency_hamiltonian(g))) == 0


class TestModelHamiltonian:
    def test_names(self):
        g = cycle_graph(5)
        assert np.array_equal(model_hamiltonian(g, "adjacency"), adjacency_hamiltonian(g))
        assert np.array_equal(model_hamiltonian(g, "laplacian"), laplacian_hamiltonian(g))

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            model_hamiltonian(P3, "weighted")


class TestWeighted:
    def test_matches_paper_5chain_at_unit_j2(self):
        j = asymmetric_5chain_couplings(1.0)
        assert j == pytest.approx((math.sqrt(1.5), 1.0, 1.5, 0.5), abs=1e-15)
        h = chain_hamiltonian(j)
        assert np.array_equal(h, h.conj().T)

    def test_uniform_couplings_match_adjacency(self):
        g = cycle_graph(5)
        h = weighted_hamiltonian(g, {e: 1.0 for e in g.edges})
        assert np.array_equal(h, adjacency_hamiltonian(g).astype(complex))

    def test_imaginary_coupling_hermitian(self):
        h = weighted_hamiltonian(K2, {(0, 1): 1j})
        assert np.array_equal(h, [[0, 1j], [-1j, 0]])

    def test_coupling_key_orientation(self):
        # value keyed (v, u) lands conjugated in the (u, v) slot
        h = weighted_hamiltonian(K2, {(1, 0): 1j})
        assert h[0, 1] == -1j

    def test_non_integer_coupling_key(self):
        with pytest.raises(TypeError):
            weighted_hamiltonian(P3, {(0, 1.0): 1.0})

    def test_bool_coupling_key(self):
        with pytest.raises(TypeError):
            weighted_hamiltonian(K2, {(False, True): 1.0})

    def test_edge_not_in_graph(self):
        with pytest.raises(EdgeNotInGraph):
            weighted_hamiltonian(P3, {(0, 2): 1.0})

    def test_fields_on_diagonal(self):
        h = weighted_hamiltonian(P3, {(0, 1): 1.0, (1, 2): 1.0}, [0.5, -1.0, 0.0])
        assert np.array_equal(np.diag(h), [0.5, -1.0, 0.0])
        assert np.array_equal(h, h.conj().T)

    @pytest.mark.parametrize("fields", [{-1: 2.0}, {3: 2.0}, {"0": 1.0}, [0.0, 0.0, 0.0, 5.0],
                                        {True: 2.0}],
                             ids=["vertex-minus-1", "vertex-3", "string-key", "list-too-long",
                                  "vertex-true"])
    def test_field_vertex_out_of_range(self, fields):
        with pytest.raises(ValueError, match="field vertex"):
            weighted_hamiltonian(P3, {(0, 1): 1.0}, fields)

    def test_support_graph_recovers_edges(self):
        g = cycle_graph(5)
        h = weighted_hamiltonian(g, {e: 0.3 for e in g.edges})
        assert support_graph(h) == g
        # against the pair scan over the strict upper triangle: the diagonal
        # and the lower triangle are not read
        rng = np.random.default_rng(0)
        m = rng.integers(-1, 2, (9, 9)) * (1 + 1j * rng.integers(0, 2, (9, 9)))
        edges = {(u, v) for u in range(9) for v in range(u + 1, 9) if m[u, v] != 0}
        assert support_graph(m) == Graph(9, edges)


class TestCouplingFixtures:
    def test_asymmetric_range(self):
        with pytest.raises(NonPositiveCoupling):
            asymmetric_5chain_couplings(0.8)  # J4^2 < 0
        with pytest.raises(NonPositiveCoupling):
            asymmetric_5chain_couplings(1.6)  # J1^2 < 0
        with pytest.raises(NonPositiveCoupling):
            asymmetric_5chain_couplings(-1.0)

    def test_standard_chain(self):
        assert standard_pst_chain_couplings(5) == pytest.approx(
            (2.0, math.sqrt(6), math.sqrt(6), 2.0)
        )

    @pytest.mark.parametrize(
        "j,expected",
        [
            ((math.sqrt(1.5), 1.0, 1.5, 0.5), True),  # both sides 5/2
            ((1.0, 1.0, 1.0, 1.0), True),
            ((2.0, 1.0, 1.0, 1.0), False),
        ],
    )
    def test_identity(self, j, expected):
        assert check_coupling_identity_5chain(j) == expected

    def test_identity_rejects_nonpositive(self):
        with pytest.raises(NonPositiveCoupling):
            check_coupling_identity_5chain((1.0, -1.0, 1.0, 1.0))
