import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstlab import (
    NO_TRANSFER,
    CommensurabilityResult,
    TransferVerdict,
    VertexCoincide,
    adjacency_hamiltonian,
    asymmetric_5chain_couplings,
    bipartite_coloring,
    cartesian_product,
    chain_hamiltonian,
    check_transfer,
    complete_graph,
    decide,
    decompose,
    enumerate_connected_graphs,
    evolve,
    fidelity,
    fidelity_curve,
    laplacian_hamiltonian,
    model_hamiltonian,
    path_graph,
    standard_pst_chain_couplings,
    symmetry_operator,
    weighted_hamiltonian,
)
from pstlab import transfer
from pstlab.spectral import _decompose_stack
from pstlab.transfer import (
    PhaseUndefined,
    _bezout,
    _decide,
    weight_test,
)
from pstlab.limits import refine_extrema

from pstlab.hamiltonians import MODELS

from conftest import projectors, scan_max_fidelity

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
P4 = path_graph(4)

A_K2 = adjacency_hamiltonian(K2).astype(float)
A_P3 = adjacency_hamiltonian(P3).astype(float)
A_K3 = adjacency_hamiltonian(K3).astype(float)
L_K2 = laplacian_hamiltonian(K2).astype(float)

NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_IDS = ["nan", "inf", "-inf"]


def basis_state(n, v):
    e = np.zeros(n, dtype=complex)
    e[v] = 1.0
    return e


class TestEvolve:
    def test_k2_quarter_period(self):
        out = evolve(A_K2, basis_state(2, 0), math.pi / 2)
        assert np.abs(out - [0, -1j]).max() <= 1e-10

    def test_time_zero_identity(self):
        state = np.array([0.6, 0.8j])
        assert np.abs(evolve(A_K2, state, 0.0) - state).max() <= 1e-12

    def test_laplacian_k2_plus_phase(self):
        out = evolve(L_K2, basis_state(2, 0), math.pi / 2)
        assert np.abs(out - [0, 1]).max() <= 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(5, 5))
        h = h + h.T
        state = rng.normal(size=5) + 1j * rng.normal(size=5)
        state /= np.linalg.norm(state)
        for t in (0.3, 2.7, 11.0):
            assert abs(np.linalg.norm(evolve(h, state, t)) - 1) <= 1e-9

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            evolve(A_K2, np.array([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize("t", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_time(self, t):
        # once a state of NaNs
        with pytest.raises(ValueError, match="time must be finite"):
            evolve(A_K2, basis_state(2, 0), t)

    def test_matches_eigh_exponential(self):
        # against e^{-iHt} built from single eigenvectors, on degenerate and
        # complex spectra
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        for h in (adjacency_hamiltonian(complete_graph(4)).astype(float),
                  adjacency_hamiltonian(cartesian_product(P3, P3)).astype(float),
                  z + z.conj().T):
            lams, vecs = np.linalg.eigh(h)
            state = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
            state /= np.linalg.norm(state)
            for t in (0.4, 1.9, 7.3):
                u = (vecs * np.exp(-1j * lams * t)) @ vecs.conj().T
                assert np.abs(evolve(h, state, t) - u @ state).max() <= 1e-12


class TestFidelity:
    def test_p3_transfer_time(self):
        amp, mag = fidelity(A_P3, 0, 2, math.pi / math.sqrt(2))
        assert amp == pytest.approx(-1.0, abs=1e-10)
        assert mag == pytest.approx(1.0, abs=1e-10)

    def test_p3_half_way(self):
        _, mag = fidelity(A_P3, 0, 2, math.pi / (2 * math.sqrt(2)))
        assert mag == pytest.approx(0.5, abs=1e-10)

    def test_self_at_zero(self):
        amp, mag = fidelity(A_K3, 1, 1, 0.0)
        assert amp == pytest.approx(1.0) and mag == pytest.approx(1.0)

    def test_agrees_with_fidelity_curve(self):
        h = adjacency_hamiltonian(cartesian_product(P3, P3)).astype(float)
        dec = decompose(h)
        times = np.array([0.0, 0.8, math.pi / math.sqrt(2), 5.1])
        for a, b in ((0, 8), (0, 4), (2, 2)):
            curve = fidelity_curve(dec, a, b, times)
            for t, want in zip(times, curve):
                amp, mag = fidelity(dec, a, b, t)
                assert abs(amp - want) <= 1e-14 and mag == pytest.approx(abs(want), abs=1e-14)

    def test_curves_of_many_targets_keep_their_bits(self, small_connected_graphs, monkeypatch):
        # one call over a sequence of targets: column j is, bit for bit, the
        # curve of target j alone, and the phase matrix is formed once
        exp = np.exp
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return exp(*args, **kwargs)

        n = 40
        d = np.exp(2j * math.pi * np.random.default_rng(7).random(n))
        hs = [model_hamiltonian(g, model) for graphs in small_connected_graphs.values()
              for g in graphs for model in MODELS]
        hs.append(d[:, None] * chain_hamiltonian(standard_pst_chain_couplings(n)) * d.conj()[None, :])
        times = np.linspace(0.0, 4.0, 33)
        monkeypatch.setattr(np, "exp", counted)
        for h in hs:
            dec = decompose(h)
            for a in range(dec.n):
                targets = [*range(dec.n - 1, -1, -1), a]
                calls[0] = 0
                got = fidelity_curve(dec, a, targets, times)
                assert calls == [1]
                want = np.stack([fidelity_curve(dec, a, b, times) for b in targets], axis=1)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_one_target_curve_is_one_product(self):
        dec = decompose(adjacency_hamiltonian(cartesian_product(P3, P4)).astype(float))
        times = np.linspace(-1.0, 7.0, 50)
        for a, b in ((0, 11), (5, 5), (3, 8)):
            phases = np.exp(-1j * np.outer(times, np.asarray(dec.eigenvalues)))
            want = phases @ dec.pair_coefficients(a, b)
            assert fidelity_curve(dec, a, b, times).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_time(self, t):
        # once (nan, nan), with RuntimeWarnings
        with pytest.raises(ValueError, match="time must be finite"):
            fidelity(A_P3, 0, 2, t)

    @pytest.mark.parametrize("t", NON_FINITE, ids=NON_FINITE_IDS)
    def test_curve_rejects_non_finite_time(self, t):
        # once a NaN row among finite ones
        with pytest.raises(ValueError, match="time must be finite"):
            fidelity_curve(decompose(A_P3), 0, [1, 2], np.array([0.0, t, 1.0]))

    @pytest.mark.parametrize("a,b", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_vertex_out_of_range(self, a, b):
        # a negative index would otherwise read vertex n - 1
        with pytest.raises(IndexError):
            fidelity(A_P3, a, b, 1.0)
        with pytest.raises(IndexError):
            fidelity_curve(decompose(A_P3), a, b, np.array([1.0]))


class TestCheckTransfer:
    def test_p3_perfect(self):
        v = check_transfer(A_P3, 0, 2)
        assert v.is_perfect
        assert v.t0 == pytest.approx(math.pi / math.sqrt(2), abs=1e-10)
        assert v.transfer_phase == pytest.approx(-1.0, abs=1e-9)
        assert v.eigenphases == pytest.approx((0.0, math.pi, 0.0), abs=1e-9)
        assert v.gap_structure.chi == pytest.approx(math.sqrt(2), abs=1e-9)
        assert v.gap_structure.integers == (1, 2)
        assert v.r == 1
        assert v.fidelity_at_t0 >= 1 - 1e-9

    def test_asymmetric_5chain(self):
        h = chain_hamiltonian(asymmetric_5chain_couplings(1.0))
        v = check_transfer(h, 1, 3)
        assert v.is_perfect
        assert v.t0 == pytest.approx(math.pi, abs=1e-10)

    def test_k3_weight_mismatch(self):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            v = check_transfer(A_K3, a, b)
            assert v.status == "no-transfer"
            assert "weight mismatch" in v.reason

    def test_p4_parity_obstruction(self):
        h = adjacency_hamiltonian(P4).astype(float)
        v = check_transfer(h, 0, 3)
        assert v.status == "no-transfer"
        assert "parity obstruction" in v.reason
        _, mag = scan_max_fidelity(h, 0, 3, 50.0)
        assert mag < 1 - 1e-7

    def test_vertex_coincide(self):
        with pytest.raises(VertexCoincide):
            check_transfer(A_P3, 1, 1)

    def test_complex_hamiltonian_numeric_path(self):
        # gauge-rotated K2 still transfers; the gauge leaves its phase difference
        # at pi, as for the real K2, so the parity test decides it
        h = weighted_hamiltonian(K2, {(0, 1): 1j})
        v = check_transfer(h, 0, 1)
        assert v.is_perfect
        assert v.fidelity_at_t0 >= 1 - 1e-9


def test_real_and_complex_arithmetic_agree(small_connected_graphs):
    # H goes to the real symmetric solver and a seeded diagonal gauge D H D^dag
    # to the complex Hermitian one.  The gauge multiplies <b|e^{-iHt}|a> by
    # d_b conj(d_a) and changes nothing else, so every verdict must match.
    rng = np.random.default_rng(12)
    for n in range(2, 7):
        for g in small_connected_graphs[n]:
            d = np.exp(2j * math.pi * rng.random(n))
            for model in MODELS:
                h = model_hamiltonian(g, model).astype(float)
                real = decompose(h)
                gauged = decompose(d[:, None] * h * d.conj()[None, :])
                assert real.real and not gauged.real
                pairs = [(a, b) for a in range(n) for b in range(n) if b != a]
                for (a, b), v, w in zip(pairs, decide(real, pairs), decide(gauged, pairs)):
                    assert w.status == v.status, (g.edges, model, a, b)
                    if v.is_perfect:
                        assert w.t0 == pytest.approx(v.t0, abs=1e-12)
                        assert w.transfer_phase / (d[b] * d[a].conj()) == pytest.approx(
                            v.transfer_phase, abs=1e-12)


class TestMinimalTransferTime:
    def test_p3(self):
        v = check_transfer(A_P3, 0, 2)
        assert v.t0 == pytest.approx(math.pi / math.sqrt(2))

    def test_k2_adjacency(self):
        v = check_transfer(A_K2, 0, 1)
        assert v.gap_structure.integers == (1,) and v.r == 1
        assert v.t0 == pytest.approx(math.pi / 2)

    def test_k2_laplacian(self):
        v = check_transfer(L_K2, 0, 1)
        assert v.t0 == pytest.approx(math.pi / 2)


class TestSymmetryOperator:
    def _assert_invariants(self, s, h, a, b, real):
        n = h.shape[0]
        assert np.linalg.norm(s @ s.conj().T - np.eye(n)) <= 1e-9
        assert np.linalg.norm(s @ h @ s.conj().T - h) <= 1e-8
        assert np.abs(s @ basis_state(n, a) - basis_state(n, b)).max() <= 1e-8
        if real:
            assert np.linalg.norm(s @ s - np.eye(n)) <= 1e-8

    def test_p3(self):
        dec = decompose(A_P3)
        s = symmetry_operator(dec, 0, 2)
        self._assert_invariants(s, A_P3, 0, 2, real=True)

    def test_k2_swap(self):
        dec = decompose(A_K2)
        s = symmetry_operator(dec, 0, 1)
        assert np.abs(s - [[0, 1], [1, 0]]).max() <= 1e-10

    def test_asymmetric_5chain_not_permutation(self):
        h = chain_hamiltonian(asymmetric_5chain_couplings(1.0))
        dec = decompose(h)
        s = symmetry_operator(dec, 1, 3)
        self._assert_invariants(s, h, 1, 3, real=True)
        entries = np.abs(np.real_if_close(s))
        assert not np.allclose(entries * (1 - entries), 0, atol=1e-8)

    @pytest.mark.parametrize("a,b", [(0, -1), (-3, 2), (0, 3)])
    def test_vertex_out_of_range(self, a, b):
        # (0, -1) would otherwise be the valid pair (0, 2) of P3
        with pytest.raises(IndexError):
            symmetry_operator(decompose(A_P3), a, b)


# the connected bipartite graphs on 2..6 vertices, one per isomorphism class
BIPARTITE_CLASSES = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)
                     if bipartite_coloring(g).valid]


class TestBipartitePhaseClass:
    # A real H with zero diagonal on a bipartite coupling graph anticommutes
    # with the colour sign S = diag(+-1), so S e^{-iHt} S = e^{iHt} = conj(e^{-iHt}):
    # <m|e^{-iHt}|a> is real when a and m share a colour, and imaginary otherwise.
    def test_p3_same_color_real(self):
        for t in (0.3, 1.0, math.pi / math.sqrt(2)):
            amp, _ = fidelity(A_P3, 0, 2, t)
            assert abs(amp.imag) <= 1e-10
            assert amp == pytest.approx((math.cos(math.sqrt(2) * t) - 1) / 2,
                                        abs=1e-10)

    def test_p3_opposite_color_imaginary(self):
        for t in (0.3, 1.0, 2.5):
            amp, _ = fidelity(A_P3, 0, 1, t)
            assert abs(amp.real) <= 1e-10
            assert amp == pytest.approx(-1j * math.sin(math.sqrt(2) * t) / math.sqrt(2),
                                        abs=1e-10)

    def test_k2(self):
        amp, _ = fidelity(A_K2, 0, 1, math.pi / 2)
        assert abs(amp.real) <= 1e-10
        assert amp == pytest.approx(-1j, abs=1e-10)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_real_weights(self, data):
        g = data.draw(st.sampled_from(BIPARTITE_CLASSES))
        edges = g.sorted_edges()
        weights = data.draw(st.lists(
            st.floats(0.1, 5.0) | st.floats(-5.0, -0.1),
            min_size=len(edges), max_size=len(edges)))
        h = weighted_hamiltonian(g, dict(zip(edges, weights))).real
        a = data.draw(st.integers(0, g.n - 1))
        t = data.draw(st.floats(0.0, 10.0))
        amps = evolve(h, basis_state(g.n, a), t)
        colors = bipartite_coloring(g).colors
        for m, amp in enumerate(amps):
            vanishing = amp.imag if colors[m] == colors[a] else amp.real
            assert abs(vanishing) <= 1e-9, (m, amp)


def perfect_instances(small_connected_graphs, max_n=5):
    out = []
    for n in range(2, max_n + 1):
        for g in small_connected_graphs[n]:
            for model in ("adjacency", "laplacian"):
                h = (adjacency_hamiltonian(g) if model == "adjacency"
                     else laplacian_hamiltonian(g)).astype(float)
                for a in range(n):
                    for b in range(a + 1, n):
                        v = check_transfer(h, a, b)
                        if v.is_perfect:
                            out.append((g, model, h, a, b, v))
    return out


@pytest.fixture(scope="module")
def instances(small_connected_graphs):
    inst = perfect_instances(small_connected_graphs)
    assert inst, "expected perfect instances at n <= 5"
    return inst


class TestPerfectInstanceProperties:
    def test_periodicity(self, instances):
        for _, _, h, a, _, v in instances:
            state = basis_state(h.shape[0], a)
            out = evolve(h, state, 2 * v.t0)
            phase2 = v.transfer_phase**2
            assert np.abs(out - phase2 * state).max() <= 1e-8

    def test_reverse_transfer(self, instances):
        for _, _, h, a, b, v in instances:
            out = evolve(h, basis_state(h.shape[0], b), v.t0)
            assert np.abs(out - v.transfer_phase * basis_state(h.shape[0], a)).max() <= 1e-8

    def test_scale_covariance(self, instances):
        for _, _, h, a, b, v in instances:
            for c in (0.5, 2.0, math.pi):
                vc = check_transfer(c * h, a, b)
                assert vc.is_perfect
                assert vc.t0 == pytest.approx(v.t0 / c, rel=1e-8)

    def test_uniform_diagonal_shift(self, instances):
        for _, _, h, a, b, v in instances:
            for delta in (1.0, -2.5):
                vs = check_transfer(h + delta * np.eye(h.shape[0]), a, b)
                assert vs.is_perfect
                assert vs.t0 == pytest.approx(v.t0, rel=1e-8)

    def test_oracle_agreement(self, instances):
        for _, _, h, a, b, v in instances:
            _, mag = scan_max_fidelity(h, a, b, 4 * v.t0)
            assert mag >= 1 - 1e-7


class TestCartesianProductTransfer:
    def test_products_of_k2(self):
        g = K2
        expect_phase = -1j
        for d in range(2, 4):
            g = cartesian_product(g, K2)
            expect_phase *= -1j
            h = adjacency_hamiltonian(g).astype(float)
            v = check_transfer(h, 0, 2**d - 1)
            assert v.is_perfect
            assert v.t0 == pytest.approx(math.pi / 2, abs=1e-9)
            assert v.transfer_phase == pytest.approx(expect_phase, abs=1e-8)


class TestOracleEquivalenceSmallGraphs:
    def test_all_graphs_up_to_six(self, small_connected_graphs):
        # Perfect <=> brute-force scan reaches 1 - 1e-7
        for n in range(2, 7):
            for g in small_connected_graphs[n]:
                for mat in (adjacency_hamiltonian(g), laplacian_hamiltonian(g)):
                    h = mat.astype(float)
                    for a in range(n):
                        for b in range(a + 1, n):
                            v = check_transfer(h, a, b)
                            t_hi = 4 * v.t0 if v.is_perfect else 50.0
                            _, mag = scan_max_fidelity(h, a, b, t_hi)
                            assert v.is_perfect == (mag >= 1 - 1e-7), (
                                f"disagreement on n={n} {sorted(g.edges)} "
                                f"pair ({a},{b}): {v.status} vs scan {mag}"
                            )


NON_HERMITIAN = np.array([[0, 1, 0], [5, 0, 1], [0, 1, 0]], dtype=float)


def gauged_pst_chain(n, seed):
    """D H D^dag for the PST chain, D a diagonal of seeded phases."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * math.pi, n))
    h = chain_hamiltonian([math.sqrt(k * (n - k)) for k in range(1, n)])
    return d[:, None] * h * d.conj()[None, :]


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_transfer(NON_HERMITIAN, 0, 2)

    def test_evolve_and_fidelity_reject_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve(NON_HERMITIAN, basis_state(3, 0), 1.0)
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity(NON_HERMITIAN, 0, 2, 1.0)

    @pytest.mark.parametrize("h", [
        np.ones((2, 3)),
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
        np.array([[0.0, 1j], [1j, 0.0]]),
    ])
    def test_malformed_rejected(self, h):
        with pytest.raises(ValueError):
            check_transfer(h, 0, 1)

    def test_one_matrix_functions_reject_a_stack(self):
        # only the census stacks; every public function answers for one H
        from pstlab import rate_report, routing_impossibility_scan

        stack = np.stack([A_P3, A_P3])
        for call in (lambda: check_transfer(stack, 0, 2),
                     lambda: evolve(stack, basis_state(3, 0), 1.0),
                     lambda: fidelity(stack, 0, 2, 1.0),
                     lambda: rate_report(stack, 0, 2),
                     lambda: routing_impossibility_scan(stack, 0)):
            with pytest.raises(ValueError, match="nonempty square matrix"):
                call()

    # at N = 80 and 200, ||H|| > 64: t0 must come from the gaps, not from a search in time
    @pytest.mark.parametrize("n,seed", [(4, 1), (8, 2), (16, 3), (80, 0), (200, 0), (200, 1),
                                        (200, 2)])
    def test_gauged_chain_still_perfect(self, n, seed):
        h = gauged_pst_chain(n, seed)
        assert np.abs(h - h.conj().T).max() > 0  # rounding breaks exact symmetry
        v = check_transfer(h, 0, n - 1)
        assert v.is_perfect
        # the gauge leaves the phase differences integral: the parity test's t0 = pi/chi
        assert v.r == 1
        assert v.t0 == pytest.approx(math.pi / 2, abs=1e-12)


def gauged_p4(seed):
    """P4 with seeded unit-modulus couplings: a path carries no flux, so a
    diagonal gauge makes it the real P4."""
    h = adjacency_hamiltonian(P4).astype(complex)
    for i, z in enumerate(np.exp(2j * math.pi * np.random.default_rng(seed).random(3))):
        h[i, i + 1], h[i + 1, i] = z, z.conjugate()
    return h


def flux_triangle(flux):
    """K3 with coupling e^{i flux} on the edge 0-1: the flux through its one cycle."""
    h = A_K3.astype(complex)
    h[0, 1], h[1, 0] = np.exp(1j * flux), np.exp(-1j * flux)
    return h


class TestPhaseStage:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gauged_p4_is_exactly_no_transfer(self, seed):
        v = check_transfer(gauged_p4(seed), 0, 3)
        assert v.status == "no-transfer"
        assert "parity obstruction" in v.reason
        assert v == replace(check_transfer(adjacency_hamiltonian(P4).astype(float), 0, 3),
                            eigenphases=v.eigenphases)

    def test_incommensurable_non_integral_is_undecided(self):
        v = check_transfer(flux_triangle(0.3), 0, 1)
        assert v.status == "undecided"
        assert v.reason == "incommensurable gaps with non-integral phase differences"
        assert not v.gap_structure.commensurable

    def test_bezout_coefficients(self):
        for z in ((1,), (1, 2), (3, 5), (6, 10, 15), (4, 9, 25, 49)):
            c = _bezout(z)
            assert sum(ci * zi for ci, zi in zip(c, z)) == 1


@lru_cache(maxsize=None)
def census_matrices() -> dict:
    """{n: int64 stack of both models of every connected graph on n vertices}, 2 <= n <= 7."""
    return {n: np.array([model_hamiltonian(g, model) for g in enumerate_connected_graphs(n)
                         for model in MODELS]) for n in range(2, 8)}


def stack_verdicts(stack, pairs) -> list:
    """The verdicts of every matrix of a census stack on pairs, from _decide,
    each made on its matrix's own decomposition, as the census makes them."""
    verdict = _decide(stack, np.array(pairs))[1]
    return [[verdict(i, j, stack._matrix(i)) for j in range(len(pairs))]
            for i in range(len(stack.offsets))]


class TestIntegerGapCap:
    """An integer H caps real_gcd's denominators at 4R; no verdict may move."""

    @staticmethod
    def _assert_same_perfect(exact, floats):
        for v, w in zip(exact, floats, strict=True):
            assert v.is_perfect == w.is_perfect
            if v.is_perfect:
                assert repr((v.t0, v.transfer_phase)) == repr((w.t0, w.transfer_phase))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_perfect_on_int64_exactly_when_on_float64(self, data):
        n = data.draw(st.integers(2, 7))
        if data.draw(st.booleans()):  # a census Laplacian
            h = data.draw(st.sampled_from(list(census_matrices()[n][1::2])))
        else:
            upper = data.draw(st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                                       max_size=n * (n + 1) // 2))
            h = np.zeros((n, n), dtype=np.int64)
            h[np.triu_indices(n)] = upper
            h = h + np.triu(h, 1).T
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        self._assert_same_perfect(decide(decompose(h), pairs),
                                  decide(decompose(h.astype(float)), pairs))

    def test_census_statuses_agree(self):
        for n, hams in census_matrices().items():
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            exact = stack_verdicts(_decompose_stack(hams, True, True), pairs)
            floats = stack_verdicts(_decompose_stack(hams.astype(float), True, False), pairs)
            for v, w in zip(exact, floats, strict=True):
                assert [x.status for x in v] == [x.status for x in w]
                self._assert_same_perfect(v, w)


def reference_weight_test(dec, a, b, support_tol=1e-9, weight_tol=1e-8):
    """The per-eigenspace loop the vectorized weight test replaced:
    (first failing eigenspace or None, supported eigenspaces, phases)."""
    supported, phases = [], []
    for k, p in enumerate(projectors(dec)):
        v, w = p[:, a], p[:, b]
        nv, nw = np.linalg.norm(v), np.linalg.norm(w)
        if nv <= support_tol and nw <= support_tol:
            continue
        if nv <= support_tol or nw <= support_tol:
            return k, supported, phases
        s = np.vdot(v, w) / (nv * nv)
        if abs(abs(s) - 1.0) > weight_tol or np.linalg.norm(w - s * v) > weight_tol:
            return k, supported, phases
        supported.append(k)
        phases.append(float(np.angle(s)))
    return None, supported, phases


class TestWeightTest:
    def _hamiltonians(self, small_connected_graphs):
        for g in small_connected_graphs[5]:
            yield adjacency_hamiltonian(g).astype(float)
            yield laplacian_hamiltonian(g).astype(float)
        yield chain_hamiltonian(asymmetric_5chain_couplings(1.2))
        yield gauged_pst_chain(6, 4)
        yield adjacency_hamiltonian(cartesian_product(P3, P3)).astype(float)

    def test_matches_reference_loop(self, small_connected_graphs):
        for h in self._hamiltonians(small_connected_graphs):
            dec = decompose(h)
            for a in range(dec.n):
                targets = [b for b in range(dec.n) if b != a]
                supported, ratios, failed = weight_test(dec, [a] * len(targets), targets)
                verdicts = decide(dec, [(a, b) for b in targets])
                for j, b in enumerate(targets):
                    k, sup, phases = reference_weight_test(dec, a, b)
                    bad = np.flatnonzero(failed[j])
                    assert (int(bad[0]) if len(bad) else None) == k
                    if k is None:
                        assert list(np.flatnonzero(supported[j])) == sup
                        unit = ratios[j, sup] / np.abs(ratios[j, sup])
                        assert unit == pytest.approx(np.exp(1j * np.array(phases)), abs=1e-12)
                        # a pair that passes has two or more supported eigenspaces
                        assert len(sup) >= 2
                        assert not verdicts[j].reason.startswith("weight mismatch")
                    else:
                        assert verdicts[j].reason == (
                            f"weight mismatch at eigenvalue {dec.eigenvalues[k]:.6g}")

    def test_first_mismatch_names_the_eigenvalue(self):
        # K3, eigenvalue -1: P[0,0] = P[1,1] = 2/3 but |P[0,1]| = 1/3
        dec = decompose(A_K3)
        _, _, failed = weight_test(dec, [0, 0], [1, 2])
        assert failed.any(axis=1).all()
        assert failed.argmax(axis=1).tolist() == [0, 0]
        assert check_transfer(A_K3, 0, 1).reason == "weight mismatch at eigenvalue -1"
        # the two targets failing at one eigenspace share one verdict
        v1, v2 = decide(dec, [(0, 1), (0, 2)])
        assert v1 is v2 and v1.reason == "weight mismatch at eigenvalue -1"

    def test_symmetry_operator_rejects_failing_pair(self):
        h = adjacency_hamiltonian(P4).astype(float)
        with pytest.raises(PhaseUndefined):
            symmetry_operator(decompose(h), 0, 1)


class TestDecide:
    def test_matches_check_transfer(self, small_connected_graphs):
        hamiltonians = [model_hamiltonian(g, model).astype(float)
                        for n in range(2, 6) for g in small_connected_graphs[n]
                        for model in MODELS]
        hamiltonians.append(gauged_pst_chain(6, 4))  # complex, integral phase differences
        hamiltonians.append(flux_triangle(math.pi / 2))  # complex, the Bezout branch
        for h in hamiltonians:
            dec = decompose(h)
            for a in range(dec.n):
                targets = [b for b in range(dec.n) if b != a]
                assert (decide(dec, [(a, b) for b in targets])
                        == [check_transfer(h, a, b) for b in targets])
        assert decide(decompose(gauged_pst_chain(6, 4)), [(0, 5)])[0].is_perfect
        # the flux triangle's spectrum is -sqrt3, 0, sqrt3: chi = sqrt3, z = (1, 2),
        # and its phase differences are non-integral.  Transfer runs around the
        # triangle at 2 pi / (3 sqrt3) (r = 2/3) and against it at twice that;
        # the brute-force scan agrees on every pair
        triangle = flux_triangle(math.pi / 2)
        for a in range(3):
            for b in set(range(3)) - {a}:
                v = check_transfer(triangle, a, b)
                assert v.is_perfect and v.gap_structure.integers == (1, 2)
                r = 2 / 3 if b == (a + 1) % 3 else 4 / 3
                assert v.r == pytest.approx(r, abs=1e-12)
                assert v.t0 == pytest.approx(r * math.pi / math.sqrt(3), abs=1e-12)
                t, mag = scan_max_fidelity(triangle, a, b, 1.01 * v.t0)
                assert mag >= 1 - 1e-7 and t == pytest.approx(v.t0, abs=1e-6)

    def test_bad_vertices(self):
        dec = decompose(A_P3)
        with pytest.raises(VertexCoincide):
            decide(dec, [(0, 2), (0, 0)])
        for a, targets in ((0, [3]), (0, [-1]), (3, [0])):
            with pytest.raises(IndexError):
                decide(dec, [(a, b) for b in targets])

    def test_no_targets(self):
        assert decide(decompose(A_P3), []) == []

    def test_one_call_equals_one_call_per_pair(self, small_connected_graphs):
        # one batched weight test changes no bit of any verdict (repr prints
        # every float exactly), and the verdicts follow the order of the pairs
        rng = np.random.default_rng(14)
        for n in range(2, 7):
            for g in small_connected_graphs[n]:
                pairs = [(a, b) for a in range(n) for b in range(n) if b != a]
                for model in MODELS:
                    dec = decompose(model_hamiltonian(g, model))
                    batched = decide(dec, pairs)
                    single = [decide(dec, [p])[0] for p in pairs]
                    assert batched == single
                    assert list(map(repr, batched)) == list(map(repr, single))
                    assert list(map(repr, decide(dec, np.array(pairs)))) == list(map(repr, single))
                    order = rng.permutation(len(pairs))
                    shuffled = decide(dec, [pairs[i] for i in order])
                    assert list(map(repr, shuffled)) == [repr(single[i]) for i in order]

    @staticmethod
    def _stacks(small_connected_graphs):
        """(matrices, their census stack): every graph of a size under both
        models, as the census stacks them, degenerate or not."""
        for n in range(2, 7):
            mats = [model_hamiltonian(g, model) for model in MODELS
                    for g in small_connected_graphs[n]]
            yield mats, _decompose_stack(np.stack(mats), True, True)

    def test_several_decompositions_equal_one_at_a_time(self, small_connected_graphs):
        for mats, stack in self._stacks(small_connected_graphs):
            n = stack.n
            pairs = [(a, b) for a in range(n) for b in range(n) if b != a]
            joint = stack_verdicts(stack, pairs)
            assert len(joint) == len(mats)
            for mat, verdicts in zip(mats, joint):
                assert list(map(repr, verdicts)) == list(map(repr, decide(decompose(mat), pairs)))

    def test_joint_weight_test_sums_are_each_decompositions_own(self, small_connected_graphs):
        for mats, stack in self._stacks(small_connected_graphs):
            n = stack.n
            sources, targets = np.array([(a, b) for a in range(n) for b in range(n) if b != a]).T
            joint = weight_test(stack, sources, targets)
            offset = 0
            for mat in mats:
                dec = decompose(mat)
                columns = slice(offset, offset + dec.num_eigenspaces)
                for together, alone in zip(joint, weight_test(dec, sources, targets)):
                    assert together[:, columns].tobytes() == alone.tobytes()
                offset += dec.num_eigenspaces
            assert offset == joint[0].shape[1]

    def test_incommensurable_pair_keeps_its_full_verdict(self):
        # P4's end-to-end pair passes the weight test, on its four eigenspaces
        # 2cos(k pi / 5) with alternating signs, and its gaps are
        # incommensurable: the census settles it without a verdict, decide
        # and the census stack's verdict still give the phase stage's
        path = model_hamiltonian(path_graph(4), "adjacency")
        stack = _decompose_stack(np.stack([path, path]), True, True)
        assert _decide(stack, np.array([(0, 3)]))[0] == []
        for verdict in (decide(decompose(path), [(0, 3)])[0],
                        stack_verdicts(stack, [(0, 3)])[1][0]):
            assert verdict == TransferVerdict(
                NO_TRANSFER, reason="parity obstruction (no commensurable gap structure)",
                eigenphases=(math.pi, 0.0, math.pi, 0.0),
                gap_structure=CommensurabilityResult(False, 0.0, ()))
            assert all(type(phi) is float for phi in verdict.eigenphases)

    def test_weight_test_reads_the_decomposition_itself(self, monkeypatch):
        # one matrix is the stack of one: decide restacks nothing
        seen = []

        def spy(dec, sources, targets):
            seen.append(dec)
            return weight_test(dec, sources, targets)

        monkeypatch.setattr(transfer, "weight_test", spy)
        dec = decompose(A_P3)
        assert decide(dec, [(0, 2), (0, 1)])[0].is_perfect
        assert len(seen) == 1 and seen[0] is dec

    def test_bad_pairs(self):
        dec = decompose(A_P3)
        # a float or bool vertex is not read as the integer it rounds to
        for pairs in ([(0, 1.5)], [(0, 2.0)], [(False, True)], [(0, 1), (1, 2.0)]):
            with pytest.raises(IndexError):
                decide(dec, pairs)

    def test_bool_vertex_among_ints(self):
        # np.asarray reads [(0, True)] as the int64 pair (0, 1)
        dec = decompose(A_P3)
        for pairs in ([(0, True)], [(0, 2), (True, 2)], [(0, np.True_)], ((2, False),)):
            with pytest.raises(IndexError):
                decide(dec, pairs)
        assert decide(dec, np.array([(0, 2)]))[0].is_perfect
        for pairs in ([(0, 1, 2)], [0, 2], [[(0, 2)]]):
            with pytest.raises(ValueError, match="pairs"):
                decide(dec, pairs)


def test_check_transfer_calls_eigh_once(eigh_calls):
    assert check_transfer(A_P3, 0, 2).is_perfect
    assert eigh_calls == [1]


def test_amplitude_coeffs_match_reference_loop(small_connected_graphs):
    # a loop over eigenspaces with np.vdot on each one's columns; the sums run
    # in another order, so they agree to a few roundings of numbers below 1
    hamiltonians = [adjacency_hamiltonian(g).astype(float) for g in small_connected_graphs[5]]
    hamiltonians.append(gauged_pst_chain(6, 4))
    for h in hamiltonians:
        dec = decompose(h)
        blocks = np.split(dec.vectors, dec.starts[1:], axis=1)
        for a in range(dec.n):
            for b in range(dec.n):
                ref = [np.vdot(block[a], block[b]) for block in blocks]
                assert np.abs(dec.pair_coefficients(a, b) - ref).max() <= 1e-14


class TestRefineExtrema:
    # f(t) = (1 + e^{-2it}) / 2, so |f(t)| = |cos t|
    LAMS = [0.0, 2.0]
    COEFFS = [0.5, 0.5]

    def test_zero_of_cosine(self):
        t, mag = refine_extrema(self.LAMS, self.COEFFS, [1.5], [1.7], [1.55])
        assert abs(t[0] - math.pi / 2) <= 1e-12
        assert mag[0] <= 1e-12

    def test_many_brackets_in_one_call(self):
        lo = np.array([1.4, 4.6, 7.8, 0.3, 2.0])
        hi = np.array([1.8, 4.8, 7.9, 0.5, 2.2])
        start = np.array([1.41, 4.79, 7.85, 0.4, 2.1])
        t, mag = refine_extrema(self.LAMS, self.COEFFS, lo, hi, start)
        assert np.all((lo <= t) & (t <= hi))
        # the three zeros of cos t inside their brackets
        assert np.abs(t[:3] - np.array([0.5, 1.5, 2.5]) * math.pi).max() <= 1e-12
        # |cos t| falls across [0.3, 0.5] and rises across [2.0, 2.2]: the
        # minimum over the bracket is its right and its left end
        assert t[3] == pytest.approx(0.5, abs=1e-12)
        assert t[4] == pytest.approx(2.0, abs=1e-12)
        assert mag == pytest.approx(np.abs(np.cos(t)), abs=1e-15)

    def test_no_brackets(self):
        t, mag = refine_extrema(self.LAMS, self.COEFFS, [], [], [])
        assert t.shape == mag.shape == (0,)


def test_import_does_not_load_scipy():
    # neither importing pstlab, nor the zero search, nor deciding a complex H
    # loads scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = """
import sys
import numpy as np
import pstlab
assert 'scipy' not in sys.modules
n = 10
chain = pstlab.chain_hamiltonian(pstlab.standard_pst_chain_couplings(n))
assert pstlab.rate_report(chain, 0, n - 1).l == 0
d = np.exp(1j * np.arange(n))
assert pstlab.check_transfer(d[:, None] * chain * d.conj()[None, :], 0, n - 1).is_perfect
assert 'scipy' not in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
