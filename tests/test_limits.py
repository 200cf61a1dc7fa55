import math
import tracemalloc

import numpy as np
import pytest

from pstlab import limits
from pstlab import (
    VertexCoincide,
    adjacency_hamiltonian,
    asymmetric_5chain_couplings,
    autocorrelation_zeros,
    cartesian_product,
    chain_hamiltonian,
    check_transfer,
    complement,
    complement_pst_condition,
    complete_graph,
    cycle_graph,
    decompose,
    enumerate_connected_graphs,
    hypercube_graph,
    is_integral_spectrum,
    laplacian_diameter_bounds,
    laplacian_hamiltonian,
    model_hamiltonian,
    path_graph,
    rate_report,
    routing_bound_check,
    routing_impossibility_scan,
    standard_pst_chain_couplings,
    weighted_hamiltonian,
)
from pstlab.hamiltonians import MODELS
from pstlab.limits import ZERO_GRID, Disconnected
from pstlab.transfer import NonRealHamiltonian, NotPerfect
from pstlab.graphs import Graph

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
C4 = cycle_graph(4)

A_K2 = adjacency_hamiltonian(K2).astype(float)
A_P3 = adjacency_hamiltonian(P3).astype(float)
STD5 = chain_hamiltonian(standard_pst_chain_couplings(5))
NON_HERMITIAN = np.array([[0, 1, 0], [5, 0, 1], [0, 1, 0]], dtype=float)


class TestAutocorrelationZeros:
    def test_standard_5chain_second_site(self):
        zeros = autocorrelation_zeros(STD5, 1, math.pi / 2)
        assert len(zeros) == 1
        assert 0 < zeros[0] < math.pi / 2

    def test_p3_no_zeros(self):
        # f(t) = (cos(sqrt(2) t) + 1)/2 > 0 on the open interval
        assert autocorrelation_zeros(A_P3, 0, math.pi / math.sqrt(2)) == []

    def test_k2_no_zeros(self):
        assert autocorrelation_zeros(A_K2, 0, math.pi / 2) == []

    def test_input_validation(self):
        with pytest.raises(ValueError):
            autocorrelation_zeros(A_K2, 0, -1.0)

    @pytest.mark.parametrize("t0", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_t0(self, t0):
        with pytest.raises(ValueError, match="t0 must be finite and positive"):
            autocorrelation_zeros(A_K2, 0, t0)

    def test_rejects_a_grid_too_coarse_for_the_spectrum(self):
        # eigenvalues 0, +-2, +-4: six zeros per period 2 pi from site 1.  At
        # t0 = 2000 pi + 0.1 the grid once found 2,000 of the 6,000
        dec = decompose(STD5)
        assert len(autocorrelation_zeros(dec, 1, 200 * math.pi)) == 600
        # at the limit (lambda_max - lambda_min) t0 = ZERO_GRID the grid still
        # finds every zero (1,194, as a 2e7-point scan counts); past it, none
        longest = ZERO_GRID / (dec.eigenvalues[-1] - dec.eigenvalues[0])
        assert len(autocorrelation_zeros(dec, 1, longest)) == 1194
        for t0 in (math.nextafter(longest, math.inf), 2000 * math.pi + 0.1):
            with pytest.raises(ValueError, match="too long for the zero grid"):
                autocorrelation_zeros(STD5, 1, t0)

    @pytest.mark.parametrize("k", [-20, -10, 10, 20, 30, 40, 50])
    def test_zeros_scale_with_time(self, k):
        # H -> 2^k H maps the zeros t to t / 2^k; at 2^40 the grid spacing is
        # below 1e-14, so refine_extrema's stop rule must not be absolute
        h = chain_hamiltonian(asymmetric_5chain_couplings(1.2))
        c = 2.0 ** k
        expected = autocorrelation_zeros(h, 1, math.pi)
        assert len(expected) == 1
        scaled = [t * c for t in autocorrelation_zeros(c * h, 1, math.pi / c)]
        assert scaled == pytest.approx(expected, rel=1e-15, abs=0)


class TestAutocorrelationValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            autocorrelation_zeros(NON_HERMITIAN, 0, 1.0)

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(IndexError):
            autocorrelation_zeros(A_K2, 2, 1.0)

    @pytest.mark.parametrize("a", [-1, 2])
    def test_rejects_vertex_out_of_range_with_decomposition(self, a):
        # a = -1 would otherwise be vertex 1
        with pytest.raises(IndexError):
            autocorrelation_zeros(decompose(A_K2), a, 1.0)

    def test_shared_decomposition(self, eigh_calls):
        dec = decompose(STD5)
        assert autocorrelation_zeros(dec, 1, math.pi / 2) == (
            autocorrelation_zeros(STD5, 1, math.pi / 2))
        assert eigh_calls == [2]


def _direct_grid(lams, weights, t0):
    """Reference for limits._autocorrelation_grid: one cos and one sin per
    (time, eigenvalue) on the same ZERO_GRID + 1 times."""
    x = np.outer(np.linspace(0.0, t0, ZERO_GRID + 1), lams)
    return np.hypot(np.cos(x) @ weights, np.sin(x) @ weights)


def _candidates(monkeypatch, dec, a, t0, grid):
    """The grid minima autocorrelation_zeros hands to refine_extrema when its
    grid comes from grid; refinement is skipped."""
    seen = []

    def record(lams, coeffs, lo, hi, t):
        seen.append(np.asarray(t))
        return seen[-1], np.ones(len(t))

    with monkeypatch.context() as m:
        m.setattr(limits, "refine_extrema", record)
        m.setattr(limits, "_autocorrelation_grid", grid)
        assert autocorrelation_zeros(dec, a, t0) == []
    return seen[0]


def _random_hermitian(rng, n, complex_entries):
    h = rng.normal(size=(n, n))
    if complex_entries:
        h = h + 1j * rng.normal(size=(n, n))
    return (h + h.conj().T) / 2


def _zero_grid_cases():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for model in MODELS:
                dec = decompose(model_hamiltonian(g, model))
                for a in range(n):
                    for t0 in (1.0, math.pi / 2, 3.0, 10.0, 100.0):
                        yield dec, a, t0
    rng = np.random.default_rng(24)
    for i in range(100):
        n = int(rng.integers(2, 41))
        yield (decompose(_random_hermitian(rng, n, i % 2 == 1)), int(rng.integers(n)),
               (1.0, math.pi / 2, 3.0, 10.0, 100.0)[i % 5])


class TestZeroGrid:
    """The blocked phase product gives the direct formula's candidates."""

    def test_candidates_equal_the_direct_grid(self, monkeypatch):
        blocked = limits._autocorrelation_grid
        cases = candidates = 0
        for dec, a, t0 in _zero_grid_cases():
            found = _candidates(monkeypatch, dec, a, t0, blocked)
            reference = _candidates(monkeypatch, dec, a, t0, _direct_grid)
            assert np.array_equal(found, reference), (dec.eigenvalues, a, t0)
            cases += 1
            candidates += len(found)
        assert cases == 1470 and candidates > 0

    def test_chain_400_memory(self):
        dec = decompose(_pst_chain(400))
        tracemalloc.start()
        try:
            autocorrelation_zeros(dec, 0, math.pi / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestRateReport:
    def test_standard_5chain(self):
        r = rate_report(STD5, 1, 3)
        assert (r.D, r.M, r.l) == (2, 5, 1)
        assert r.bound_satisfied  # 2*1 + 2 = 4 <= 5

    def test_p3(self):
        r = rate_report(A_P3, 0, 2)
        assert (r.D, r.M, r.l) == (2, 3, 0)
        assert r.bound_satisfied

    def test_k2_margolus_levitin(self):
        r = rate_report(A_K2, 0, 1)
        assert (r.D, r.M, r.l) == (1, 2, 0)
        assert r.ml_lower_bound == pytest.approx(math.pi / 4)

    def test_requires_perfect(self):
        h = adjacency_hamiltonian(K3).astype(float)
        with pytest.raises(NotPerfect) as info:
            rate_report(h, 0, 1)
        assert info.value.verdict == check_transfer(h, 0, 1)
        assert info.value.verdict.status == "no-transfer"

    def test_one_eigendecomposition(self, eigh_calls):
        assert rate_report(STD5, 1, 3).l == 1
        assert eigh_calls == [1]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            rate_report(NON_HERMITIAN, 0, 2)

    def test_takes_check_transfer_arguments(self):
        # (h, a, b), validated as check_transfer validates them
        with pytest.raises(VertexCoincide):
            rate_report(STD5, 1, 1)


def _pst_chain(n):
    return chain_hamiltonian(standard_pst_chain_couplings(n))


def _adjacency(g):
    return adjacency_hamiltonian(g).astype(float)


def _chain_square(n):
    h = _pst_chain(n).real
    return np.kron(h, np.eye(n)) + np.kron(np.eye(n), h)


P3_CUBED = cartesian_product(cartesian_product(P3, P3), P3)
NO_ZERO_FAMILIES = (
    [(f"chain-{n}", _pst_chain(n), 0, n - 1) for n in (6, 8, 10, 16, 32)]
    + [(f"Q{d}", _adjacency(hypercube_graph(d)), 0, 2 ** d - 1) for d in (5, 6, 7)]
    + [("P3xP3xP3", _adjacency(P3_CUBED), 0, 26), ("chain-5xchain-5", _chain_square(5), 0, 24)]
)


class TestZeroSearchNoise:
    """The autocorrelation of these sources, cos^(N-1) t and its products,
    has no zero before t0; near t0 it is below rounding for a long stretch,
    and the minima of its rounding noise are not zeros."""

    @pytest.mark.parametrize("label,h,a,b", NO_ZERO_FAMILIES, ids=[f[0] for f in NO_ZERO_FAMILIES])
    def test_no_zeros_before_t0(self, label, h, a, b):
        r = rate_report(h, a, b)
        assert r.l == 0 and r.zero_times == ()
        assert r.bound_satisfied

    def test_asymmetric_chain_zero_at_pi_over_3(self):
        r = rate_report(chain_hamiltonian(asymmetric_5chain_couplings(1.2)), 1, 3)
        assert r.l == 1
        assert abs(r.zero_times[0] - math.pi / 3) <= 1e-12


class TestRoutingBound:
    @pytest.mark.parametrize(
        "d,j,m,n,expected",
        [
            (1, 5, 6, 6, True),  # complete routing: distance 1
            (2, 2, 4, 6, False),
            (3, 1, 5, 8, True),
        ],
    )
    def test_examples(self, d, j, m, n, expected):
        assert routing_bound_check(d, j, m, n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            routing_bound_check(0, 1, 1, 1)


class TestRoutingScan:
    def test_c4_antipodal_only(self):
        targets = routing_impossibility_scan(
            adjacency_hamiltonian(C4).astype(float), 0
        )
        assert set(targets) == {2}
        assert targets[2] == pytest.approx(math.pi / 2)

    def test_k3_empty(self):
        assert routing_impossibility_scan(
            adjacency_hamiltonian(K3).astype(float), 0
        ) == {}

    def test_standard_5chain_mirror(self):
        assert set(routing_impossibility_scan(STD5, 0)) == {4}

    def test_rejects_complex(self):
        h = weighted_hamiltonian(K2, {(0, 1): 1j})
        with pytest.raises(NonRealHamiltonian):
            routing_impossibility_scan(h, 0)

    def test_one_eigendecomposition(self, eigh_calls):
        h = adjacency_hamiltonian(hypercube_graph(3)).astype(float)
        assert set(routing_impossibility_scan(h, 0)) == {7}
        assert eigh_calls == [1]

    def test_agrees_with_check_transfer(self):
        for h in (STD5, adjacency_hamiltonian(C4).astype(float),
                  adjacency_hamiltonian(hypercube_graph(3)).astype(float)):
            for a in range(h.shape[0]):
                expected = {}
                for b in range(h.shape[0]):
                    if b != a:
                        v = check_transfer(h, a, b)
                        if v.is_perfect:
                            expected[b] = v.t0
                assert routing_impossibility_scan(h, a) == expected

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            routing_impossibility_scan(NON_HERMITIAN, 0)


class TestDiameterBounds:
    def test_q3(self):
        rep = laplacian_diameter_bounds(hypercube_graph(3))
        assert rep.D == 3 and rep.max_degree == 3 and rep.two_d == 6
        assert rep.k == 4 and rep.k_minus_1 == 3
        assert rep.mohar[2.0] == 12
        assert rep.all_satisfied

    def test_k2(self):
        rep = laplacian_diameter_bounds(K2)
        assert rep.D == 1 and rep.two_d == 2 and rep.k == 2
        assert rep.all_satisfied

    def test_p3_tight(self):
        rep = laplacian_diameter_bounds(P3)
        assert rep.k == 3 and rep.D == 2
        assert rep.D + 1 == rep.k  # tight
        assert rep.all_satisfied

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            laplacian_diameter_bounds(Graph(4, frozenset({(0, 1), (2, 3)})))

    def test_k_counts_the_distinct_exact_roots(self):
        # the exact integer roots are the reference: distinct integer
        # eigenvalues lie at least 1 apart, and decompose merges only gaps
        # below GROUPING_TOL * max(1, spectral radius)
        integral = 0
        for n in range(1, 8):
            for g in enumerate_connected_graphs(n):
                ok, roots = is_integral_spectrum(laplacian_hamiltonian(g))
                if ok:
                    integral += 1
                    assert laplacian_diameter_bounds(g).k == len(set(roots)), g
        assert integral == 152

    @pytest.mark.parametrize("alpha", [1.0, 0.0, 0.5, -2.0, math.nan, math.inf])
    def test_rejects_alpha_not_above_1(self, alpha):
        # the Mohar bound divides by log(alpha) and takes sqrt(alpha^2 - 1)
        with pytest.raises(ValueError, match="finite and greater than 1"):
            laplacian_diameter_bounds(P3, (2.0, alpha))


class TestComplementRule:
    def test_k2_fails(self):
        assert not complement_pst_condition(math.pi / 2, 2)

    def test_c4_holds_and_complement_transfers(self):
        assert complement_pst_condition(math.pi / 2, 4)
        comp = complement(C4)
        assert comp.sorted_edges() == [(0, 2), (1, 3)]
        v = check_transfer(adjacency_hamiltonian(comp).astype(float), 0, 2)
        assert v.is_perfect and v.t0 == pytest.approx(math.pi / 2)

    def test_full_revolution(self):
        assert complement_pst_condition(2 * math.pi, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            complement_pst_condition(-1.0, 4)
        with pytest.raises(ValueError):
            complement_pst_condition(1.0, 1)

    @pytest.mark.parametrize("t0", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_t0(self, t0):
        with pytest.raises(ValueError, match="t0 must be finite and positive"):
            complement_pst_condition(t0, 4)
