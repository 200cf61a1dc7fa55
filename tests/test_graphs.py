import itertools
import json

import networkx as nx
import pstlab.graphs
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstlab import (
    Graph,
    MalformedGraph6,
    bipartite_coloring,
    cartesian_product,
    complement,
    complete_graph,
    conjunction,
    cycle_graph,
    diameter,
    distance,
    encode_graph6,
    hypercube_graph,
    join,
    parse_graph6,
    path_graph,
    strong_product,
)

K1 = complete_graph(1)
K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
P4 = path_graph(4)
C4 = cycle_graph(4)
Q3 = hypercube_graph(3)


def graphs_strategy(max_n=8):
    def build(n, pairs):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, frozenset(p for p, keep in zip(all_pairs, pairs) if keep))

    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2),
        ).map(lambda t: build(*t))
    )


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 2)}))

    def test_edge_normalization(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert (0, 2) in g.edges and (2, 0) not in g.edges
        assert g.sorted_edges() == [(0, 2)]

    def test_json_round_trip(self):
        g = Graph(4, frozenset({(0, 1), (2, 3)}))
        assert Graph.from_json(g.to_json()) == g

    def test_numpy_labels_are_stored_as_ints(self):
        g = Graph(np.int64(3), [(0, np.int64(1)), (np.uint8(2), 1)])
        assert type(g.n) is int
        assert all(type(x) is int for e in g.edges for x in e)
        assert Graph.from_json(g.to_json()) == P3

    @pytest.mark.parametrize("n,edges", [(2.5, [(0, 1)]), (2, [(0, 1.0)]), (3, [(0, 1.5)])],
                             ids=["n-2.5", "edge-1.0", "edge-1.5"])
    def test_non_integer_labels_are_rejected(self, n, edges):
        with pytest.raises(TypeError):
            Graph(n, edges)
        with pytest.raises(TypeError):
            Graph.from_json(json.dumps({"n": n, "edges": edges}))

    @pytest.mark.parametrize("n,edges",
                             [(True, []), (2, [(False, True)]), (3, [(0, 1), (True, 2)])],
                             ids=["n-true", "edge-false-true", "edge-true-2"])
    def test_bool_labels_are_rejected(self, n, edges):
        Graph(3, [(0, 1), (1, 2)])  # the same labels as ints are accepted, and stay apart
        with pytest.raises(TypeError, match="'bool' object"):
            Graph(n, edges)
        with pytest.raises(TypeError, match="'bool' object"):
            Graph.from_json(json.dumps({"n": n, "edges": edges}))


    def test_graphs_share_edge_tuples(self):
        # a census keeps every graph it reads, so an edge is stored once
        a, b = Graph(2, [(0, 1)]), Graph(3, [(0, 1), (1, 2)])
        assert next(iter(a.edges)) is next(e for e in b.edges if e == (0, 1))


class TestDistance:
    def test_p3_ends(self):
        assert distance(P3, 0, 2) == 2

    def test_identity(self):
        for g in (K3, P4, Q3):
            for v in range(g.n):
                assert distance(g, v, v) == 0

    def test_q3_antipodal(self):
        # BFS oracle on the cube: distance equals Hamming distance
        for u in range(8):
            for v in range(8):
                assert distance(Q3, u, v) == bin(u ^ v).count("1")

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            distance(P3, 0, 3)

    @pytest.mark.parametrize("u,v", [(False, True), (0, 1.0), (-1, 0), (0, True), (True, 2),
                                     (0, np.True_)])
    def test_vertex_that_is_not_a_label(self, u, v):
        # the one vertex check of the decision path; (False, True) was read as
        # (0, 1), and a bool among ints as 0 or 1
        with pytest.raises(IndexError):
            distance(P3, u, v)

    def test_disconnected(self):
        g = Graph(4, frozenset({(0, 1), (2, 3)}))
        assert distance(g, 0, 2) is None


class TestDiameter:
    def test_k2(self):
        assert diameter(K2) == 1

    def test_c4(self):
        assert diameter(C4) == 2

    def test_disconnected(self):
        assert diameter(Graph(4, frozenset({(0, 1), (2, 3)}))) is None

    def test_against_networkx(self, small_connected_graphs):
        for g in small_connected_graphs[5]:
            ng = nx.Graph(list(g.edges))
            ng.add_nodes_from(range(g.n))
            assert diameter(g) == nx.diameter(ng)


class TestBreadthFirstSearches:
    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        calls = [0]
        bfs = pstlab.graphs._bfs

        def counted(g, u):
            calls[0] += 1
            return bfs(g, u)

        monkeypatch.setattr(pstlab.graphs, "_bfs", counted)
        return calls

    def test_diameter_runs_one_search_per_vertex(self, bfs_calls):
        assert diameter(path_graph(7)) == 6
        assert bfs_calls == [7]

    def test_is_connected_runs_one_search(self, bfs_calls):
        assert path_graph(7).is_connected()
        assert not Graph(4, frozenset({(0, 1), (2, 3)})).is_connected()
        assert bfs_calls == [2]


class TestBipartite:
    def test_p3(self):
        col = bipartite_coloring(P3)
        assert col.valid and col.colors == ("R", "B", "R")

    def test_k3_invalid(self):
        assert not bipartite_coloring(K3).valid

    def test_q3_popcount_parity(self):
        col = bipartite_coloring(Q3)
        assert col.valid
        parity = [bin(v).count("1") % 2 for v in range(8)]
        for u, v in Q3.edges:
            assert parity[u] != parity[v]
        # the witness agrees with popcount parity up to global swap
        assert all(
            (col.colors[v] == col.colors[0]) == (parity[v] == parity[0])
            for v in range(8)
        )

    def test_odd_cycle_brute_force(self, small_connected_graphs):
        # odd cycle exists iff not 2-colorable
        for n in range(1, 7):
            for g in small_connected_graphs[n]:
                ng = nx.Graph(list(g.edges))
                ng.add_nodes_from(range(g.n))
                assert bipartite_coloring(g).valid == nx.is_bipartite(ng)


PRODUCT_POOL = [K1, K2, P3, K3, Graph(3), path_graph(4)]


class TestProducts:
    def test_k2_square_is_c4(self):
        g = cartesian_product(K2, K2)
        assert g.n == 4 and len(g.edges) == 4
        assert all(d == 2 for d in g.degrees())
        assert diameter(g) == 2

    def test_hypercube_edge_count(self):
        for d in range(1, 5):
            q = hypercube_graph(d)
            assert q.n == 2**d
            assert len(q.edges) == d * 2 ** (d - 1)

    def test_hypercube_from_k1(self):
        assert hypercube_graph(0) == K1
        with pytest.raises(ValueError, match="nonnegative"):
            hypercube_graph(-1)

    def test_product_with_k1_is_identity(self):
        for g in PRODUCT_POOL:
            assert cartesian_product(g, K1) == g
            assert strong_product(g, K1) == g

    def test_conjunction_k2_k2(self):
        g = conjunction(K2, K2)
        assert g.sorted_edges() == [(0, 3), (1, 2)]

    def test_conjunction_with_edgeless(self):
        g = conjunction(K3, Graph(2))
        assert len(g.edges) == 0

    def test_conjunction_k2_p3(self):
        # two disjoint copies of P3
        g = conjunction(K2, P3)
        assert g.n == 6 and len(g.edges) == 4
        assert diameter(g) is None
        ng = nx.Graph(list(g.edges))
        ng.add_nodes_from(range(6))
        comps = [ng.subgraph(c) for c in nx.connected_components(ng)]
        assert sorted(len(c) for c in comps) == [3, 3]
        for c in comps:
            assert sorted(d for _, d in c.degree()) == [1, 1, 2]

    def test_strong_k2_k2_is_k4(self):
        assert strong_product(K2, K2) == complete_graph(4)

    def test_strong_k2_p3_counts(self):
        g = strong_product(K2, P3)
        assert g.n == 6 and len(g.edges) == 11

    def test_kronecker_identities(self):
        # against the vertex-pair rules, not against the np.kron calls that
        # build the products
        for g1, g2 in itertools.product(PRODUCT_POOL, repeat=2):
            _assert_constructions_by_definition(g1, g2)

    @given(graphs_strategy(max_n=4), graphs_strategy(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_constructions_by_definition(self, g1, g2):
        _assert_constructions_by_definition(g1, g2)


def _assert_constructions_by_definition(g1, g2):
    """Each construction against the rule that defines its edges; product
    vertex (i, j) is i * g2.n + j, and the join puts g2 after g1."""
    def adjacent(g, u, v):
        return (min(u, v), max(u, v)) in g.edges

    cart, tensor = set(), set()
    # lexicographic pairs of product vertices, so u < v
    pairs = itertools.combinations(itertools.product(range(g1.n), range(g2.n)), 2)
    for (i, j), (k, l) in pairs:
        u, v = i * g2.n + j, k * g2.n + l
        a1, a2 = adjacent(g1, i, k), adjacent(g2, j, l)
        if (i == k and a2) or (j == l and a1):  # equal in one, adjacent in the other
            cart.add((u, v))
        if a1 and a2:
            tensor.add((u, v))
    joined = (g1.edges | {(u + g1.n, v + g1.n) for u, v in g2.edges}
              | {(u, g1.n + v) for u in range(g1.n) for v in range(g2.n)})
    non_edges = {e for e in itertools.combinations(range(g1.n), 2) if e not in g1.edges}
    expected = [
        (cartesian_product(g1, g2), g1.n * g2.n, cart),
        (conjunction(g1, g2), g1.n * g2.n, tensor),
        (strong_product(g1, g2), g1.n * g2.n, cart | tensor),
        (join(g1, g2)[0], g1.n + g2.n, joined),
        (complement(g1), g1.n, non_edges),
    ]
    for g, n, edges in expected:
        assert (g.n, g.edges) == (n, edges)
        assert type(g.n) is int and all(type(x) is int for e in g.edges for x in e)
        assert Graph.from_json(g.to_json()) == g


class TestJoinComplement:
    @pytest.mark.parametrize(
        "g1,g2,expect_square",
        [(K1, K1, True), (K2, K2, True), (K1, K2, True)],
    )
    def test_join_square_flag(self, g1, g2, expect_square):
        g, square_ok = join(g1, g2)
        assert square_ok == expect_square
        assert g.n == g1.n + g2.n

    def test_join_structure(self):
        g, _ = join(K2, K2)
        assert g == complete_graph(4)
        g, _ = join(K1, K1)
        assert g == K2
        g, _ = join(K1, K2)
        assert g == K3

    def test_join_cross_edge_count(self):
        g1, g2 = P3, path_graph(4)
        g, _ = join(g1, g2)
        cross = [e for e in g.edges if (e[0] < g1.n) != (e[1] < g1.n)]
        assert len(cross) == g1.n * g2.n

    def test_join_irregular_reports_false(self):
        _, square_ok = join(P3, K2)
        assert not square_ok

    def test_complement_k2(self):
        assert complement(K2) == Graph(2)

    def test_complement_c4(self):
        assert complement(C4).sorted_edges() == [(0, 2), (1, 3)]

    @given(graphs_strategy())
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g


class TestGraph6:
    @pytest.mark.parametrize(
        "text,graph",
        [("A_", K2), ("Bw", K3), ("A?", Graph(2))],
    )
    def test_known_decodings(self, text, graph):
        assert parse_graph6(text) == graph
        assert encode_graph6(graph) == text

    def test_round_trip_enumerated(self, small_connected_graphs):
        for n in range(1, 7):
            for g in small_connected_graphs[n]:
                s = encode_graph6(g)
                assert parse_graph6(s) == g
                # cross-check against networkx's encoder (node order matters)
                ng = nx.Graph()
                ng.add_nodes_from(range(g.n))
                ng.add_edges_from(g.edges)
                ref = nx.to_graph6_bytes(ng, header=False).decode().strip()
                assert s == ref

    @given(graphs_strategy(max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    def test_malformed_length(self):
        with pytest.raises(MalformedGraph6):
            parse_graph6("B")  # K3-sized header with no data byte

    def test_malformed_byte(self):
        with pytest.raises(MalformedGraph6):
            parse_graph6("A" + chr(20))

    def test_nonzero_padding(self):
        # n=2 has one pair bit; the remaining 5 bits must be zero
        with pytest.raises(MalformedGraph6):
            parse_graph6("A" + chr(63 + 1))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            encode_graph6(Graph(63))
