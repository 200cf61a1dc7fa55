import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstlab import (
    DegenerateInput,
    adjacency_hamiltonian,
    cartesian_product,
    complete_graph,
    decompose,
    integer_char_poly,
    is_integral_spectrum,
    laplacian_hamiltonian,
    path_graph,
    real_gcd,
    support_components,
)
from pstlab.graphs import bipartite_coloring

from conftest import projectors

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)


class TestDecompose:
    def test_p3_spectrum(self):
        dec = decompose(adjacency_hamiltonian(P3).astype(float))
        assert dec.num_eigenspaces == 3
        assert dec.eigenvalues == pytest.approx(
            (-math.sqrt(2), 0.0, math.sqrt(2)), abs=1e-12
        )
        assert list(dec.multiplicities) == [1, 1, 1]
        assert not dec.degenerate

    def test_k3_degenerate(self):
        dec = decompose(adjacency_hamiltonian(K3).astype(float))
        assert dec.eigenvalues == pytest.approx((-1.0, 2.0), abs=1e-12)
        assert list(dec.multiplicities) == [2, 1]

    def test_eigenspaces_are_column_runs_of_vectors(self):
        dec = decompose(adjacency_hamiltonian(complete_graph(4)).astype(float))
        assert dec.vectors.shape == (4, 4)
        assert dec.vectors.flags.c_contiguous
        assert list(dec.starts) == [0, 3]
        assert list(dec.multiplicities) == [3, 1]
        assert list(dec.column_space) == [0, 0, 0, 1]
        assert dec.degenerate

    def test_zero_matrix(self):
        dec = decompose(np.zeros((3, 3)))
        assert dec.num_eigenspaces == 1
        assert list(dec.starts) == [0]
        assert list(dec.multiplicities) == [3]

    def test_projector_invariants(self, small_connected_graphs):
        for n in range(2, 6):
            for g in small_connected_graphs[n]:
                for mat in (adjacency_hamiltonian(g), laplacian_hamiltonian(g)):
                    dec = decompose(mat.astype(float))
                    v = dec.vectors
                    lams = np.asarray(dec.eigenvalues)[dec.column_space]
                    # V diag(lambda) V^dag = H
                    assert np.abs((v * lams) @ v.conj().T - mat).max() <= 1e-8
                    ps = projectors(dec)
                    assert len(ps) == dec.num_eigenspaces
                    for k, p in enumerate(ps):
                        assert np.linalg.norm(p @ p - p) <= 1e-9
                        assert np.trace(p).real == pytest.approx(dec.multiplicities[k], abs=1e-9)
                        for p2 in ps[k + 1:]:
                            assert np.linalg.norm(p @ p2) <= 1e-9
                    assert np.linalg.norm(sum(ps) - np.eye(g.n)) <= 1e-9
                    assert dec.multiplicities.sum() == g.n

    def test_grouping_tol_positive(self):
        with pytest.raises(ValueError):
            decompose(np.eye(2), grouping_tol=0)


class TestSupportComponents:
    def test_p3_end_vertex(self):
        dec = decompose(adjacency_hamiltonian(P3).astype(float))
        norms_sq = [nrm**2 for _, _, nrm in support_components(dec, 0)]
        assert norms_sq == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_k3_vertex(self):
        dec = decompose(adjacency_hamiltonian(K3).astype(float))
        norms_sq = [nrm**2 for _, _, nrm in support_components(dec, 0)]
        assert norms_sq == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_completeness(self, small_connected_graphs):
        for g in small_connected_graphs[5]:
            dec = decompose(adjacency_hamiltonian(g).astype(float))
            for v in range(g.n):
                total = sum(nrm**2 for _, _, nrm in support_components(dec, v))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_projections_match_projectors(self):
        for mat in (adjacency_hamiltonian(K3), adjacency_hamiltonian(complete_graph(4)),
                    laplacian_hamiltonian(cartesian_product(P3, P3))):
            dec = decompose(mat.astype(float))
            ps = projectors(dec)
            for v in range(dec.n):
                comps = support_components(dec, v)
                assert [k for k, _, _ in comps] == list(range(dec.num_eigenspaces))
                for k, proj, nrm in comps:
                    assert proj.shape == (dec.n,)
                    assert np.abs(proj - ps[k][:, v]).max() <= 1e-12
                    assert nrm == pytest.approx(np.linalg.norm(ps[k][:, v]), abs=1e-12)

    def test_vertex_range(self):
        dec = decompose(np.eye(2))
        for v in (2, -1):
            with pytest.raises(IndexError):
                support_components(dec, v)


def reference_char_poly(h):
    """Faddeev-LeVerrier over nested lists of Python ints."""
    m = [[int(x) for x in row] for row in np.asarray(h)]
    n = len(m)
    coeffs, mk, c = [0] * n + [1], [[0] * n for _ in range(n)], 1
    for k in range(1, n + 1):
        t = [[mk[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        mk = [[sum(m[i][l] * t[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(mk[i][i] for i in range(n)) // k
        coeffs[n - k] = c
    return coeffs


class TestCharPoly:
    def test_matches_reference(self, small_connected_graphs):
        mats = [100 * adjacency_hamiltonian(complete_graph(9)),
                laplacian_hamiltonian(cartesian_product(path_graph(3), path_graph(4)))]
        for g in small_connected_graphs[6][::7]:
            mats += [adjacency_hamiltonian(g), laplacian_hamiltonian(g)]
        for mat in mats:
            assert integer_char_poly(mat) == reference_char_poly(mat)

    def test_k3(self):
        assert integer_char_poly(adjacency_hamiltonian(K3)) == [-2, -3, 0, 1]

    def test_integer_valued_floats_accepted(self):
        a = adjacency_hamiltonian(K3)
        assert integer_char_poly(a.astype(float)) == [-2, -3, 0, 1]
        assert is_integral_spectrum(a.astype(float)) == (True, [-1, -1, 2])

    @pytest.mark.parametrize("x", [1.9, 0.5, -1e-9, math.nan, math.inf, -math.inf])
    def test_non_integer_entries_rejected(self, x):
        # [[0, 1.9], [1.9, 0]] has eigenvalues +-1.9, not the +-1 of [[0, 1], [1, 0]]
        mat = np.array([[0.0, x], [x, 0.0]])
        with pytest.raises(ValueError):
            integer_char_poly(mat)
        with pytest.raises(ValueError):
            is_integral_spectrum(mat)

    def test_p3(self):
        assert integer_char_poly(adjacency_hamiltonian(P3)) == [0, -2, 0, 1]

    def test_laplacian_k2(self):
        assert integer_char_poly(laplacian_hamiltonian(K2)) == [0, -2, 1]

    def test_coefficients_beyond_int64(self):
        # 100 A(K20) has eigenvalues 1900 and -100 (19 times)
        expected = [1]  # ascending coefficients of (x + 100)^19 (x - 1900)
        for root in [-100] * 19 + [1900]:
            shifted = [0, *expected]
            expected = [hi - root * lo for hi, lo in zip(shifted, [*expected, 0])]
        coeffs = integer_char_poly(100 * adjacency_hamiltonian(complete_graph(20)))
        assert coeffs == expected
        assert max(abs(c) for c in coeffs) > 2**63
        assert all(type(c) is int for c in coeffs)

    def test_evaluates_to_zero_at_eigenvalues(self, small_connected_graphs):
        for n in range(2, 7):
            for g in small_connected_graphs[n]:
                for mat in (adjacency_hamiltonian(g), laplacian_hamiltonian(g)):
                    coeffs = integer_char_poly(mat)
                    scale = max(abs(c) for c in coeffs)
                    vals = np.linalg.eigvalsh(mat.astype(float))
                    for lam in vals:
                        p = sum(c * lam**k for k, c in enumerate(coeffs))
                        assert abs(p) <= 1e-6 * scale

    def test_trailing_coefficient_structure(self, small_connected_graphs):
        # a_{N-2} = -|E| never vanishes for connected n >= 2, and some odd
        # power coefficient is nonzero whenever the graph is not bipartite
        for n in range(2, 7):
            for g in small_connected_graphs[n]:
                coeffs = integer_char_poly(adjacency_hamiltonian(g))
                assert coeffs[g.n - 2] == -len(g.edges) != 0
                if not bipartite_coloring(g).valid:
                    odd = [coeffs[g.n - 2 * k - 1]
                           for k in range(1, (g.n + 1) // 2)]
                    assert any(c != 0 for c in odd)


class TestIntegrality:
    def test_k3_integral(self):
        ok, roots = is_integral_spectrum(adjacency_hamiltonian(K3))
        assert ok and roots == [-1, -1, 2]

    def test_p3_not_integral(self):
        ok, roots = is_integral_spectrum(adjacency_hamiltonian(P3))
        assert not ok and roots is None

    def test_laplacian_k2(self):
        ok, roots = is_integral_spectrum(laplacian_hamiltonian(K2))
        assert ok and roots == [0, 2]

    def test_matches_floating_spectrum(self, small_connected_graphs):
        for n in range(2, 7):
            for g in small_connected_graphs[n]:
                for mat in (adjacency_hamiltonian(g), laplacian_hamiltonian(g)):
                    ok, roots = is_integral_spectrum(mat)
                    vals = np.sort(np.linalg.eigvalsh(mat.astype(float)))
                    if ok:
                        assert np.abs(vals - np.array(roots)).max() <= 1e-9
                    else:
                        assert np.abs(vals - np.round(vals)).max() > 1e-6


class TestRealGcd:
    def test_exact_double(self):
        res = real_gcd([math.sqrt(2), 2 * math.sqrt(2)])
        assert res.commensurable
        assert res.chi == pytest.approx(math.sqrt(2), abs=1e-12)
        assert res.integers == (1, 2)

    def test_half_integer(self):
        res = real_gcd([1.0, 1.5])
        assert res.commensurable and res.chi == pytest.approx(0.5)
        assert res.integers == (2, 3)

    def test_pi_incommensurable(self):
        res = real_gcd([1.0, math.pi], max_denominator=10**6, residual_tol=1e-9)
        assert not res.commensurable

    def test_golden_ratio_incommensurable(self):
        phi = (1 + math.sqrt(5)) / 2
        assert not real_gcd([1.0, phi]).commensurable

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            real_gcd([1.0, 1e-12])
        with pytest.raises(DegenerateInput):
            real_gcd([])

    def test_single_value(self):
        res = real_gcd([2.75])
        assert res.commensurable and res.integers == (1,)
        assert res.chi == pytest.approx(2.75)

    @given(
        chi=st.floats(0.1, 10.0),
        z=st.lists(st.integers(1, 60), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_reconstruction_property(self, chi, z):
        g = math.gcd(*z)
        z = [x // g for x in z]
        values = [chi * x for x in z]
        res = real_gcd(values)
        assert res.commensurable
        for v, zi in zip(values, res.integers):
            assert abs(v - res.chi * zi) <= 1e-9
        assert math.gcd(*res.integers) == 1
