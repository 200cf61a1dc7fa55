import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pstlab import (
    NotPerfect,
    VertexCoincide,
    adjacency_hamiltonian,
    asymmetric_5chain_couplings,
    bipartite_phase_class,
    cartesian_product,
    chain_hamiltonian,
    check_transfer,
    complete_graph,
    decompose,
    evolve,
    fidelity,
    fidelity_curve,
    laplacian_hamiltonian,
    minimal_transfer_time,
    path_graph,
    symmetry_operator,
    weighted_hamiltonian,
)
from pstlab.transfer import (
    NonRealHamiltonian,
    NonzeroDiagonal,
    NotBipartite,
    PhaseUndefined,
    refine_extrema,
    weight_test,
)

from conftest import projectors, scan_max_fidelity

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)
P4 = path_graph(4)

A_K2 = adjacency_hamiltonian(K2).astype(float)
A_P3 = adjacency_hamiltonian(P3).astype(float)
A_K3 = adjacency_hamiltonian(K3).astype(float)
L_K2 = laplacian_hamiltonian(K2).astype(float)


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
                amp, mag = fidelity(h, a, b, t, dec)
                assert abs(amp - want) <= 1e-14 and mag == pytest.approx(abs(want), abs=1e-14)

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
        # gauge-rotated K2 still transfers; decided by the numeric fallback
        h = weighted_hamiltonian(K2, {(0, 1): 1j})
        v = check_transfer(h, 0, 1)
        assert v.is_perfect
        assert v.fidelity_at_t0 >= 1 - 1e-9


class TestMinimalTransferTime:
    def test_p3(self):
        v = check_transfer(A_P3, 0, 2)
        assert minimal_transfer_time(v) == pytest.approx(math.pi / math.sqrt(2))

    def test_k2_adjacency(self):
        v = check_transfer(A_K2, 0, 1)
        assert v.gap_structure.integers == (1,) and v.r == 1
        assert minimal_transfer_time(v) == pytest.approx(math.pi / 2)

    def test_k2_laplacian(self):
        v = check_transfer(L_K2, 0, 1)
        assert minimal_transfer_time(v) == pytest.approx(math.pi / 2)

    def test_rejects_non_perfect(self):
        with pytest.raises(NotPerfect):
            minimal_transfer_time(check_transfer(A_K3, 0, 1))


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


class TestBipartitePhaseClass:
    def test_p3_same_color_real(self):
        for t in (0.3, 1.0, math.pi / math.sqrt(2)):
            label, amp = bipartite_phase_class(P3, A_P3, 0, 2, t)
            assert label == "purely-real"
            assert amp == pytest.approx((math.cos(math.sqrt(2) * t) - 1) / 2,
                                        abs=1e-10)

    def test_p3_opposite_color_imaginary(self):
        for t in (0.3, 1.0, 2.5):
            label, amp = bipartite_phase_class(P3, A_P3, 0, 1, t)
            assert label == "purely-imaginary"
            assert amp == pytest.approx(-1j * math.sin(math.sqrt(2) * t) / math.sqrt(2),
                                        abs=1e-10)

    def test_k2(self):
        label, amp = bipartite_phase_class(K2, A_K2, 0, 1, math.pi / 2)
        assert label == "purely-imaginary"
        assert amp == pytest.approx(-1j, abs=1e-10)

    def test_errors(self):
        with pytest.raises(NotBipartite):
            bipartite_phase_class(K3, A_K3, 0, 1, 1.0)
        with pytest.raises(NonRealHamiltonian):
            bipartite_phase_class(K2, weighted_hamiltonian(K2, {(0, 1): 1j}),
                                  0, 1, 1.0)
        with pytest.raises(NonzeroDiagonal):
            bipartite_phase_class(K2, L_K2, 0, 1, 1.0)


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

    @pytest.mark.parametrize("h", [
        np.ones((2, 3)),
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
        np.array([[0.0, 1j], [1j, 0.0]]),
    ])
    def test_malformed_rejected(self, h):
        with pytest.raises(ValueError):
            check_transfer(h, 0, 1)

    @pytest.mark.parametrize("n,seed", [(4, 1), (8, 2), (16, 3)])
    def test_gauged_chain_still_perfect(self, n, seed):
        h = gauged_pst_chain(n, seed)
        assert np.abs(h - h.conj().T).max() > 0  # rounding breaks exact symmetry
        v = check_transfer(h, 0, n - 1)
        assert v.is_perfect
        # the numeric scan refines its peak to rounding
        assert v.t0 == pytest.approx(math.pi / 2, abs=1e-12)


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
                test = weight_test(dec, a, targets)
                for j, b in enumerate(targets):
                    k, supported, phases = reference_weight_test(dec, a, b)
                    assert test.mismatch(j) == k
                    if k is None:
                        assert list(np.flatnonzero(test.supported[j])) == supported
                        unit = test.ratios[j, supported] / np.abs(test.ratios[j, supported])
                        assert unit == pytest.approx(np.exp(1j * np.array(phases)), abs=1e-12)
                        assert (j in test.passing()) == (len(supported) >= 2)

    def test_first_mismatch_names_the_eigenvalue(self):
        # K3, eigenvalue -1: P[0,0] = P[1,1] = 2/3 but |P[0,1]| = 1/3
        test = weight_test(decompose(A_K3), 0, [1, 2])
        assert list(test.passing()) == []
        assert test.mismatch(0) == test.mismatch(1) == 0
        assert check_transfer(A_K3, 0, 1).reason == "weight mismatch at eigenvalue -1"

    def test_symmetry_operator_rejects_failing_pair(self):
        h = adjacency_hamiltonian(P4).astype(float)
        with pytest.raises(PhaseUndefined):
            symmetry_operator(decompose(h), 0, 1)


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

    def test_peak_of_cosine(self):
        t, mag = refine_extrema(self.LAMS, self.COEFFS, [3.0], [3.3], [3.1], maximize=True)
        assert abs(t[0] - math.pi) <= 1e-12
        assert mag[0] == pytest.approx(1.0, abs=1e-15)

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
    # neither importing pstlab nor refining a time, in the zero search or the
    # numeric scan, loads scipy
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
