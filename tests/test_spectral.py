import math
import signal
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

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
    hypercube_graph,
    integer_char_poly,
    is_integral_spectrum,
    laplacian_hamiltonian,
    path_graph,
    real_gcd,
    standard_pst_chain_couplings,
    chain_hamiltonian,
    weighted_hamiltonian,
)
from pstlab import spectral
from pstlab.graphs import bipartite_coloring

from conftest import projectors

K2 = complete_graph(2)
K3 = complete_graph(3)
P3 = path_graph(3)


@contextmanager
def time_limit(seconds):
    """Fail the block, instead of hanging, once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDecompose:
    def test_p3_spectrum(self):
        dec = decompose(adjacency_hamiltonian(P3).astype(float))
        assert dec.num_eigenspaces == 3
        assert dec.eigenvalues == pytest.approx(
            (-math.sqrt(2), 0.0, math.sqrt(2)), abs=1e-12
        )
        assert list(dec.multiplicities) == [1, 1, 1]

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
        assert dec.num_eigenspaces < dec.n

    def test_rejects_non_hermitian(self):
        # eigh would read one triangle and answer for another matrix
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose(np.array([[0, 1, 0], [5, 0, 1], [0, 1, 0]], dtype=float))

    def test_real_flag(self):
        a = adjacency_hamiltonian(P3)
        chain = chain_hamiltonian(standard_pst_chain_couplings(6))
        d = np.exp(1j * np.arange(6))
        assert decompose(a).real and decompose(a.astype(float)).real
        assert decompose(a.astype(complex)).real  # complex dtype, no imaginary part
        assert decompose(chain).real
        assert not decompose(weighted_hamiltonian(K2, {(0, 1): 1j})).real
        assert not decompose(d[:, None] * chain * d.conj()[None, :]).real  # gauged

    def test_real_h_reaches_the_real_solver(self, monkeypatch):
        # float, integer, and complex dtype with a zero imaginary part all
        # go to the real symmetric eigh; only the gauged chain is complex
        seen = []
        eigh = np.linalg.eigh

        def spy(h, *args, **kwargs):
            seen.append(h.dtype)
            return eigh(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        a = adjacency_hamiltonian(P3)
        chain = chain_hamiltonian(standard_pst_chain_couplings(6))
        d = np.exp(1j * np.arange(6))
        decs = [decompose(h) for h in (a, a.astype(float), a.astype(complex), chain,
                                       d[:, None] * chain * d.conj()[None, :])]
        assert seen == [np.float64] * 4 + [np.complex128]
        assert [dec.vectors.dtype for dec in decs] == seen

    def test_rejects_empty_matrix(self):
        # eigh of a 0x0 matrix would give one eigenspace with eigenvalue nan
        with pytest.raises(ValueError, match="nonempty"):
            decompose(np.zeros((0, 0)))

    def test_zero_matrix(self):
        dec = decompose(np.zeros((3, 3)))
        assert dec.num_eigenspaces == 1
        assert list(dec.starts) == [0]
        assert list(dec.multiplicities) == [3]

    @staticmethod
    def _assert_same_bits(a, b):
        assert a == b  # real flag and eigenvalues, each float compared exactly
        for x, y in ((a.vectors, b.vectors), (a.starts, b.starts)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_stack_equals_one_by_one(self, small_connected_graphs):
        # integer census stacks, degenerate ones (K_n, the Laplacians, 0 and
        # 3 I) among them: matrix i of the stack is its decompose, bit for bit
        graphs = small_connected_graphs[5]
        census = [mat for g in graphs for mat in (adjacency_hamiltonian(g),
                                                  laplacian_hamiltonian(g))]
        for mats in (census, [np.zeros((5, 5), dtype=int), 3 * np.eye(5, dtype=int),
                              adjacency_hamiltonian(complete_graph(5))]):
            stack = spectral._decompose_stack(np.stack(mats), True, True)
            assert len(stack.offsets) == len(stack.caps) == len(mats)
            for i, mat in enumerate(mats):
                dec = decompose(mat)
                self._assert_same_bits(stack._matrix(i), dec)
                assert stack._matrix(i).caps == dec.caps
                assert dec.offsets == (0,) and dec._matrix(0) is dec
        assert any(decompose(mat).num_eigenspaces < 5 for mat in census)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 3, 0), (2, 3, 4), (1, 1, 3, 3), (3,),
                                       (2, 3, 3)])
    def test_rejects_bad_stack_shapes(self, shape):
        with pytest.raises(ValueError, match="nonempty square"):
            decompose(np.zeros(shape))

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


class TestSupportComponents:
    # |P_k v|^2 = P_k[v,v], the diagonal pair coefficient
    def test_p3_end_vertex(self):
        dec = decompose(adjacency_hamiltonian(P3).astype(float))
        norms_sq = dec.pair_coefficients(0, 0).real
        assert norms_sq == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_k3_vertex(self):
        dec = decompose(adjacency_hamiltonian(K3).astype(float))
        norms_sq = dec.pair_coefficients(0, 0).real
        assert norms_sq == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_completeness(self, small_connected_graphs):
        for g in small_connected_graphs[5]:
            dec = decompose(adjacency_hamiltonian(g).astype(float))
            for v in range(g.n):
                total = dec.pair_coefficients(v, v).real.sum()
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_vertex_range(self):
        dec = decompose(np.eye(2))
        for v in (2, -1):
            with pytest.raises(IndexError):
                dec.pair_coefficients(v, v)

    def test_bool_vertex(self):
        # np.asarray reads (0, True) as (0, 1); indexing by True is a mask
        dec = decompose(np.eye(2))
        for a, b in ((0, True), (True, 1), (False, np.True_)):
            with pytest.raises(IndexError, match="vertex out of range"):
                dec.pair_coefficients(a, b)


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

    @given(
        n=st.integers(1, 12),
        shape=st.sampled_from(["general", "symmetric", "triangular"]),
        bits=st.integers(0, 24),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_both_sides_of_the_bound(self, n, shape, bits, data):
        # n 2^n R^(n+1) against the int64 limit: int64 below it, Python ints above
        entries = data.draw(st.lists(st.integers(-(2**bits), 2**bits),
                                     min_size=n * n, max_size=n * n))
        mat = np.array(entries, dtype=np.int64).reshape(n, n)
        if shape == "symmetric":
            mat = np.triu(mat) + np.triu(mat, 1).T
        elif shape == "triangular":
            mat = np.triu(mat)
        coeffs = integer_char_poly(mat)
        assert coeffs == reference_char_poly(mat)
        assert all(type(c) is int for c in coeffs)

    @pytest.mark.parametrize("n", [2, 8, 12])
    def test_loop_dtype_at_the_bound(self, n, monkeypatch):
        # the largest R whose bound fits, and R + 1; row sums (R - 1) + |-1|
        radius = 1
        while n * 2**n * (radius + 1) ** (n + 1) <= np.iinfo(np.int64).max:
            radius += 1
        dtypes = []
        zeros = np.zeros

        def spy(shape, dtype=float):
            dtypes.append(np.dtype(dtype))
            return zeros(shape, dtype=dtype)

        monkeypatch.setattr(np, "zeros", spy)
        for r, dtype in ((radius, np.int64), (radius + 1, object)):
            mat = (r - 1) * np.eye(n, dtype=np.int64) - np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
            assert np.abs(mat).sum(axis=1).max() == r
            coeffs = integer_char_poly(mat)
            assert dtypes.pop() == dtype
            assert coeffs == reference_char_poly(mat)
            assert all(type(c) is int for c in coeffs)

    def test_int64_path_gives_python_ints(self):
        # Q4: n 2^n R^(n+1) = 2^54 fits, and the coefficients reach 4352
        mat = adjacency_hamiltonian(hypercube_graph(4))
        coeffs = integer_char_poly(mat)
        assert coeffs == reference_char_poly(mat)
        assert all(type(c) is int for c in coeffs)
        assert is_integral_spectrum(mat) == (True, sorted(4 - 2 * k for k in range(5)
                                                         for _ in range(math.comb(4, k))))

    def test_entries_beyond_the_bound(self):
        # |-2^63| overflows int64 as an absolute value; R is summed in Python ints
        mat = np.array([[-(2**63), 0], [0, 1]], dtype=np.int64)
        assert integer_char_poly(mat) == [-(2**63), 2**63 - 1, 1]
        big = np.array([[0, 2**63 + 5], [1, 0]], dtype=np.uint64)
        assert integer_char_poly(big) == [-(2**63 + 5), 0, 1]

    def test_bool_and_unsigned_dtypes(self):
        a = adjacency_hamiltonian(K3)
        for mat in (a.astype(bool), a.astype(np.uint8), a.astype(np.uint64),
                    a.astype(bool).astype(object)):
            coeffs = integer_char_poly(mat)
            assert coeffs == [-2, -3, 0, 1]
            assert all(type(c) is int for c in coeffs)
            assert is_integral_spectrum(mat) == (True, [-1, -1, 2])
        assert integer_char_poly(np.array([[0, 200], [200, 0]], dtype=np.uint8)) == [-40000, 0, 1]

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

    @pytest.mark.parametrize("mat", [
        laplacian_hamiltonian(cartesian_product(path_graph(5), path_graph(6))),
        adjacency_hamiltonian(hypercube_graph(5)),
        adjacency_hamiltonian(complete_graph(8)),
    ], ids=["P5xP6-laplacian", "Q5", "K8"])
    def test_synthetic_divisions_within_gershgorin_window(self, mat, monkeypatch):
        # at most one failed division per candidate r in [-R, R], one more per root
        calls = [0]
        synth_div = spectral._synth_div

        def counted(*args):
            calls[0] += 1
            return synth_div(*args)

        monkeypatch.setattr(spectral, "_synth_div", counted)
        is_integral_spectrum(mat)
        radius = int(np.abs(mat).sum(axis=1).max())
        assert calls[0] <= 2 * radius + 1 + mat.shape[0]

    @pytest.mark.parametrize("entry", [10**6, 10**12])
    def test_large_entries_take_no_window_scan(self, entry):
        # R = entry is far past the window that is scanned root by root
        with time_limit(5):
            assert is_integral_spectrum(np.array([[0, entry], [entry, 0]])) == (
                True, [-entry, entry])
            assert is_integral_spectrum(np.array([[1, entry], [entry, 0]])) == (False, None)
            # not symmetric: the roots are +-i sqrt(entry)
            assert is_integral_spectrum(np.array([[0, -entry], [1, 0]])) == (False, None)
            assert is_integral_spectrum(np.diag([entry, -entry, entry, 0])) == (
                True, [-entry, 0, entry, entry])
            q3 = entry * adjacency_hamiltonian(hypercube_graph(3))
            assert is_integral_spectrum(q3) == (True, [-3 * entry, *[-entry] * 3,
                                                       *[entry] * 3, 3 * entry])
            assert is_integral_spectrum(entry * adjacency_hamiltonian(P3)) == (False, None)

    def test_int64_min_entry(self):
        low = np.iinfo(np.int64).min
        with time_limit(5):
            assert is_integral_spectrum(np.array([[low, 0], [0, 1]])) == (True, [low, 1])
            assert is_integral_spectrum(np.array([[low, 1], [1, 0]])) == (False, None)

    @given(
        n=st.integers(1, 6),
        shape=st.sampled_from(["general", "symmetric", "triangular"]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_bisection_matches_the_window_scan(self, n, shape, data):
        # every window is bisected when none is small enough to scan
        entries = data.draw(st.lists(st.integers(-5, 5), min_size=n * n, max_size=n * n))
        mat = np.array(entries, dtype=np.int64).reshape(n, n)
        if shape == "symmetric":
            mat = np.triu(mat) + np.triu(mat, 1).T
        elif shape == "triangular":
            mat = np.triu(mat)
        scanned = is_integral_spectrum(mat)
        with mock.patch.object(spectral, "_SCAN_RADIUS", -1):
            assert is_integral_spectrum(mat) == scanned

    @given(
        n=st.integers(1, 6),
        shape=st.sampled_from(["general", "symmetric", "triangular"]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_roots_rebuild_char_poly(self, n, shape, data):
        entries = data.draw(st.lists(st.integers(-5, 5), min_size=n * n, max_size=n * n))
        mat = np.array(entries, dtype=np.int64).reshape(n, n)
        if shape == "symmetric":
            mat = np.triu(mat) + np.triu(mat, 1).T
        elif shape == "triangular":
            mat = np.triu(mat)
        ok, roots = is_integral_spectrum(mat)
        if shape == "triangular":  # the eigenvalues are the diagonal
            assert ok and roots == sorted(np.diag(mat).tolist())
        if ok:
            assert roots == sorted(roots)
            product = [1]  # ascending coefficients of prod (x - r)
            for r in roots:
                product = [hi - r * lo for hi, lo in zip([0, *product], [*product, 0])]
            assert product == integer_char_poly(mat)
        else:
            assert roots is None


def fraction_real_gcd(values) -> spectral.CommensurabilityResult:
    """real_gcd as written with fractions.Fraction, which real_gcd must match."""
    values = [float(v) for v in values]
    fracs = []
    for v in values:
        pq = spectral._rationalize(v / values[0])
        if pq is None:
            return spectral.CommensurabilityResult(False, 0.0, ())
        fracs.append(Fraction(*pq))
    lcm = math.lcm(*(f.denominator for f in fracs))
    z = [int(f * lcm) for f in fracs]
    g = math.gcd(*z)
    z = [zi // g for zi in z]
    chi = sum(v * zi for v, zi in zip(values, z)) / sum(zi * zi for zi in z)
    if max(abs(v - chi * zi) for v, zi in zip(values, z)) > spectral.RESIDUAL_TOL:
        return spectral.CommensurabilityResult(False, 0.0, ())
    return spectral.CommensurabilityResult(True, chi, tuple(z))


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
        res = real_gcd([1.0, math.pi])
        assert not res.commensurable

    def test_golden_ratio_incommensurable(self):
        phi = (1 + math.sqrt(5)) / 2
        assert not real_gcd([1.0, phi]).commensurable

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            real_gcd([1.0, 1e-12])
        with pytest.raises(DegenerateInput):
            real_gcd([])

    @pytest.mark.parametrize("values", [[math.nan], [math.inf], [1.0, math.nan], [1.0, math.inf]],
                             ids=["nan", "inf", "one-nan", "one-inf"])
    def test_non_finite_input(self, values):
        # once a commensurable nan or inf chi, or a bare error from math.floor
        with pytest.raises(DegenerateInput, match="finite"):
            real_gcd(values)

    def test_integer_matrix_caps_the_denominator_at_4r(self):
        # P3: R = 2, so a gap ratio may have a denominator of 4R = 8, not 9
        a = adjacency_hamiltonian(P3)
        [cap] = decompose(a).caps
        assert cap == 8 and decompose(a.astype(bool)).caps == (8,)
        assert spectral._real_gcd([8.0, 9.0], cap).integers == (8, 9)
        assert not spectral._real_gcd([9.0, 10.0], cap).commensurable
        assert real_gcd([9.0, 10.0]).integers == (9, 10)
        # float input, and an R too large to cap, keep MAX_DENOMINATOR; a
        # census stack caps each of its matrices by its own R
        assert decompose(a.astype(float)).caps == (spectral.MAX_DENOMINATOR,)
        huge = np.array([[0, 10**6], [10**6, 0]])
        stack = spectral._decompose_stack(np.stack([huge, 3 * a[:2, :2]]), True, True)
        assert stack.caps == (spectral.MAX_DENOMINATOR, 12)
        assert [stack._matrix(i).caps for i in (0, 1)] == [(spectral.MAX_DENOMINATOR,), (12,)]

    def test_cap_is_not_a_parameter(self):
        # only the input sets the cap: neither real_gcd nor the constructor takes one
        with pytest.raises(TypeError):
            real_gcd([1.0, 2.0], 8)
        dec = decompose(adjacency_hamiltonian(P3))
        with pytest.raises(TypeError):
            spectral.SpectralDecomposition(dec.eigenvalues, dec.vectors, dec.starts, True, 8)

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

    @given(
        chi=st.floats(1e-8, 1e3),
        z=st.lists(st.integers(1, 10**4), min_size=1, max_size=8),
        noise=st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, 1e-7]),
        others=st.lists(st.floats(2e-9, 1e3), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, chi, z, noise, others):
        # gap multiples, nudged so some partial quotients round up, with
        # arbitrary values among them
        values = [chi * zi * (1 + noise * (-1) ** i) for i, zi in enumerate(z)] + others
        values = [v for v in values if v > spectral.RESIDUAL_TOL]
        if values:
            assert repr(real_gcd(values)) == repr(fraction_real_gcd(values))
