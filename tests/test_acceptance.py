"""Acceptance suite: nine verifiable criteria, one pass/fail line each.

Each criterion prints "[criterion N] PASS/FAIL - <summary>" so the run log
doubles as an acceptance report (use pytest -s to see the lines for passing
criteria too).

Criterion 1 draws its positive members of the asymmetric 5-chain family from
the range where every coupling is real, 3/sqrt(10) <= J2 <= sqrt(5/2)
(about 0.9487 to 1.5811).  J2 = 0.8 lies outside it: there
J4^2 = 5/2 - 9/(4 * 0.64) < 0, so no real chain exists, and the Hermitian
completion of the formulas is an ordinary chain whose couplings break
J1^2 + J2^2 = J3^2 + J4^2.  It peaks at fidelity ~0.83, so it is checked as
a negative member: the constructor must refuse it and the verdict must be
no-transfer.
"""

import cmath
import contextlib
import math
import time

import numpy as np
import pytest

from pstlab import (
    NonPositiveCoupling,
    adjacency_hamiltonian,
    asymmetric_5chain_couplings,
    canonical_form,
    cartesian_product,
    census,
    chain_hamiltonian,
    check_coupling_identity_5chain,
    check_transfer,
    complement,
    complement_pst_condition,
    complete_graph,
    cycle_graph,
    decompose,
    enumerate_connected_graphs,
    encode_graph6,
    fidelity,
    is_integral_spectrum,
    laplacian_diameter_bounds,
    laplacian_hamiltonian,
    parse_graph6,
    path_graph,
    rate_report,
    standard_pst_chain_couplings,
    symmetry_operator,
    weighted_hamiltonian,
)
from pstlab.graphs import Graph, bipartite_coloring

from conftest import projectors, scan_max_fidelity
from test_search import brute_force_classes


@contextlib.contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {summary}")
        raise
    print(f"[criterion {num}] PASS - {summary}")


def basis_state(n, v):
    e = np.zeros(n, dtype=complex)
    e[v] = 1.0
    return e


def full_eigenspace_support(dec, v, tol=1e-9):
    return all(np.linalg.norm(p[:, v]) > tol for p in projectors(dec))


@pytest.fixture(scope="module")
def census_records():
    graphs = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    start = time.perf_counter()
    result = census(graphs, workers=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert not result.failures and not result.undecided
    assert result.records
    return result.records


def record_hamiltonian(rec):
    g = parse_graph6(rec.graph6)
    mat = (adjacency_hamiltonian(g) if rec.model == "adjacency"
           else laplacian_hamiltonian(g))
    return g, mat.astype(float)


class TestCriterion1AsymmetricChain:
    def test_asymmetric_5chain_family(self):
        with criterion(1, "asymmetric 5-chain, J2 in {0.95, 1.0, 1.2, 1.5}: "
                          "perfect 2nd -> 4th site at t0 = pi; J2 = 0.8 "
                          "(no real chain): refused, no-transfer"):
            start = time.perf_counter()
            for j2 in (0.95, 1.0, 1.2, 1.5):
                h = chain_hamiltonian(asymmetric_5chain_couplings(j2))
                # the couplings actually placed in H, real and positive
                j = np.diag(h, 1)
                assert not j.imag.any()
                j = tuple(j.real)
                # coupling identity J1^2 + J2^2 = J3^2 + J4^2
                assert check_coupling_identity_5chain(j), f"J2={j2}: {j}"
                # verifiably not mirror symmetric
                assert max(abs(x - y) for x, y in zip(j, j[::-1])) > 1e-6
                v = check_transfer(h, 1, 3)
                assert v.is_perfect, f"J2={j2}: {v.status} ({v.reason})"
                assert abs(v.t0 - math.pi) <= 1e-8, f"J2={j2}: t0={v.t0}"
                assert v.fidelity_at_t0 >= 1 - 1e-9
            assert time.perf_counter() - start < 0.1

            # J2 = 0.8: J4^2 < 0, so the family has no real chain here
            with pytest.raises(NonPositiveCoupling):
                asymmetric_5chain_couplings(0.8)
            j2 = 0.8
            j1 = cmath.sqrt(5.0 / 2.0 - j2**2)
            j4 = cmath.sqrt(5.0 / 2.0 - 9.0 / (4.0 * j2**2))  # imaginary
            h = chain_hamiltonian((j1, j2, 3.0 / (2.0 * j2), j4))
            # the Hermitian completion is gauge equivalent to the real chain
            # |J_k|, which breaks the coupling identity
            assert np.array_equal(h, h.conj().T)
            assert not check_coupling_identity_5chain(np.abs(np.diag(h, 1)))
            v = check_transfer(h, 1, 3)
            assert v.status == "no-transfer", f"{v.status} ({v.reason})"
            _, mag = scan_max_fidelity(h, 1, 3, 50.0)
            assert mag < 0.9, mag


class TestCriterion2UniformP3:
    def test_p3(self):
        with criterion(2, "uniform P3: perfect 0 -> 2 at pi/sqrt(2) with "
                          "phase -1 and non-integral spectrum"):
            a3 = adjacency_hamiltonian(path_graph(3))
            v = check_transfer(a3.astype(float), 0, 2)
            assert v.is_perfect
            assert abs(v.t0 - math.pi / math.sqrt(2)) <= 1e-8
            assert abs(v.transfer_phase - (-1.0)) <= 1e-8
            dec = decompose(a3.astype(float))
            assert np.abs(
                np.array(dec.eigenvalues)
                - [-math.sqrt(2), 0.0, math.sqrt(2)]
            ).max() <= 1e-9
            integral, _ = is_integral_spectrum(a3)
            assert not integral  # bipartite graphs may escape integrality


class TestCriterion3Hypercubes:
    def test_hypercubes(self):
        with criterion(3, "hypercubes Q_1..Q_4: antipodal transfer at pi/2 "
                          "with phase (-i)^d"):
            start = time.perf_counter()
            g = complete_graph(2)
            for d in range(1, 5):
                if d > 1:
                    g = cartesian_product(g, complete_graph(2))
                h = adjacency_hamiltonian(g).astype(float)
                v = check_transfer(h, 0, 2**d - 1)
                assert v.is_perfect
                assert abs(v.t0 - math.pi / 2) <= 1e-8
                assert abs(v.transfer_phase - (-1j) ** d) <= 1e-8
            assert time.perf_counter() - start < 2.0


class TestCriterion4CensusProperties:
    def test_rate_bound(self, census_records):
        with criterion(4, "census n <= 6: rate bound, routing, integrality, "
                          "diameter bounds, symmetry invariants"):
            by_source = {}
            for rec in census_records:
                # (a) the transfer rate bound
                assert 2 * rec.l + rec.D <= rec.M, rec
                by_source.setdefault(
                    (rec.graph6, rec.model, rec.source), []
                ).append(rec.target)
                by_source.setdefault(
                    (rec.graph6, rec.model, rec.target), []
                ).append(rec.source)

                g, h = record_hamiltonian(rec)
                dec = decompose(h)
                full = full_eigenspace_support(dec, rec.source)

                # (c) integrality for Laplacian records and non-bipartite
                # adjacency records, given full eigenspace support
                if full and (rec.model == "laplacian"
                             or (rec.model == "adjacency" and not rec.bipartite)):
                    assert rec.integral_spectrum, rec

                # (d) diameter bounds for fully supported Laplacian records
                if rec.model == "laplacian" and full:
                    rep = laplacian_diameter_bounds(g)
                    assert rep.D <= rep.two_d
                    assert rep.D + 1 <= rep.k

                # (e) symmetry operator invariants
                v = check_transfer(h, rec.source, rec.target)
                s = symmetry_operator(dec, rec.source, rec.target)
                n = g.n
                assert np.linalg.norm(s @ s.conj().T - np.eye(n)) <= 1e-8
                assert np.linalg.norm(s @ h @ s.conj().T - h) <= 1e-8
                assert np.abs(
                    s @ basis_state(n, rec.source) - basis_state(n, rec.target)
                ).max() <= 1e-8
                assert np.linalg.norm(s @ s - np.eye(n)) <= 1e-8

            # (b) routing impossibility: at most one perfect partner per source
            for key, targets in by_source.items():
                assert len(set(targets)) <= 1, (key, targets)


class TestCriterion5BipartitePhases:
    def test_phase_classes(self, census_records):
        with criterion(5, "bipartite records: phase in {+-1} (even D) or "
                          "{+-i} (odd D); amplitude parity at random times"):
            rng = np.random.default_rng(5)
            checked = 0
            for rec in census_records:
                if rec.model != "adjacency" or not rec.bipartite:
                    continue
                g, h = record_hamiltonian(rec)
                p = rec.transfer_phase
                if rec.D % 2 == 0:
                    assert min(abs(p - 1), abs(p + 1)) <= 1e-7, rec
                else:
                    assert min(abs(p - 1j), abs(p + 1j)) <= 1e-7, rec
                coloring = bipartite_coloring(g)
                same = coloring.colors[rec.source] == coloring.colors[rec.target]
                dec = decompose(h)
                for t in rng.uniform(0.0, 10.0, 100):
                    amp, _ = fidelity(h, rec.source, rec.target, float(t), dec)
                    if same:
                        assert abs(amp.imag) <= 1e-8
                    else:
                        assert abs(amp.real) <= 1e-8
                checked += 1
            assert checked > 0


class TestCriterion6ComplementRule:
    def test_complement_rule(self, census_records):
        with criterion(6, "regular adjacency records: complement transfers "
                          "at t0 iff exp(-i t0 N) = 1; C4 instance exact"):
            for rec in census_records:
                if rec.model != "adjacency" or not rec.regular:
                    continue
                g, _ = record_hamiltonian(rec)
                comp = complement(g)
                if not comp.is_connected():
                    continue
                cond = complement_pst_condition(rec.t0, g.n)
                hc = adjacency_hamiltonian(comp).astype(float)
                _, mag = fidelity(hc, rec.source, rec.target, rec.t0)
                assert (mag >= 1 - 1e-8) == cond, (rec, mag, cond)

            # C4: complement is the two antipodal edges; both transfer
            # perfectly over the same pair at pi/2
            c4 = cycle_graph(4)
            v = check_transfer(adjacency_hamiltonian(c4).astype(float), 0, 2)
            assert v.is_perfect and abs(v.t0 - math.pi / 2) <= 1e-9
            assert complement_pst_condition(v.t0, 4)
            comp = complement(c4)
            assert comp.sorted_edges() == [(0, 2), (1, 3)]
            vc = check_transfer(adjacency_hamiltonian(comp).astype(float), 0, 2)
            assert vc.is_perfect and abs(vc.t0 - math.pi / 2) <= 1e-9


class TestCriterion7RateExample:
    def test_standard_5chain(self):
        with criterion(7, "standard 5-chain from the 2nd site: D=2, l=1, "
                          "2l+D = 4 <= M = 5"):
            h = chain_hamiltonian(standard_pst_chain_couplings(5))
            r = rate_report(h, 1, 3)
            assert r.D == 2
            assert r.l == 1 and len(r.zero_times) == 1
            assert r.M == 5
            assert 2 * r.l + r.D == 4 <= r.M
            assert r.bound_satisfied


def random_connected_weighted(rng, n):
    """Random connected real Hamiltonian, couplings in [0.2, 2]."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.15:
                edges.add((u, v))
    g = Graph(n, frozenset(edges))
    couplings = {e: float(rng.uniform(0.2, 2.0)) for e in g.edges}
    return np.real(weighted_hamiltonian(g, couplings)).astype(float)


class TestCriterion8OracleEquivalence:
    def test_500_random_instances(self):
        with criterion(8, "500 random chains / sparse real Hamiltonians: "
                          "verdicts match the brute-force fidelity scan"):
            rng = np.random.default_rng(2026)
            disagreements = []
            for trial in range(500):
                if trial % 2 == 0:
                    n = int(rng.integers(2, 9))
                    h = chain_hamiltonian(rng.uniform(0.2, 2.0, n - 1))
                else:
                    n = int(rng.integers(3, 9))
                    h = random_connected_weighted(rng, n)
                a, b = map(int, rng.choice(n, size=2, replace=False))
                v = check_transfer(h, a, b)
                assert v.status != "undecided"  # real path always decides
                t_hat = v.t0 if v.is_perfect else 50.0
                _, mag = scan_max_fidelity(h, a, b, 4.0 * t_hat)
                if v.is_perfect != (mag >= 1 - 1e-7):
                    disagreements.append((trial, v.status, mag))
            assert disagreements == []


class TestCriterion9Enumeration:
    def test_counts_and_graph6(self):
        with criterion(9, "connected graph counts 2/6/21/112 for n=3..6 vs "
                          "brute-force oracle; graph6 round trip"):
            expected = {3: 2, 4: 6, 5: 21, 6: 112}
            for n, count in expected.items():
                graphs = list(enumerate_connected_graphs(n))
                assert len(graphs) == count
                oracle = {encode_graph6(canonical_form(g))
                          for g in brute_force_classes(n)}
                assert {encode_graph6(g) for g in graphs} == oracle
                for g in graphs:
                    assert parse_graph6(encode_graph6(g)) == g
