"""Tests of the benchmark itself: its checks reject planted wrong answers,
and tracing leaves pstlab's answers unchanged.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import pstlab  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def one_round(wl):
    rnd = workloads.Round(0, lambda name: nullcontext(), [], None)
    return {op.name: op for op in wl.ops(rnd)}


@pytest.fixture(scope="module")
def families(tmp_path_factory):
    return one_round(workloads.check_families(7, tmp_path_factory.mktemp("out")))


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    return one_round(workloads.exact_spectrum(7, tmp_path_factory.mktemp("out")))


def answer(op):
    out = op.call()
    assert op.check(out) is None
    return out


# -- planted wrong answers -----------------------------------------------------------


def test_transfer_checks_reject_wrong_time_phase_and_verdict(families):
    op = families["check_transfer chain-8"]
    v = answer(op)
    assert op.check(replace(v, t0=v.t0 + 1e-3))
    assert op.check(replace(v, transfer_phase=-v.transfer_phase))
    assert op.check(replace(v, status="no-transfer", t0=None))
    miss = families["check_transfer Q4 0->5"]
    assert miss.check(replace(answer(miss), status="perfect", t0=math.pi / 2))


def test_scan_path_check_uses_evolution(families):
    op = families["check_transfer gauge-chain-8"]
    v = answer(op)
    # within the scan tolerance of pi/2, but expm shows the fidelity drop
    assert op.check(replace(v, t0=v.t0 + 5e-5))


def test_rate_and_routing_checks(families):
    op = families["rate_report chain-4"]
    r = answer(op)
    assert op.check(replace(r, l=1, zero_times=(0.5,)))
    assert op.check(replace(r, D=r.D + 1))
    route = families["routing_impossibility_scan Q3"]
    found = answer(route)
    assert route.check({**found, 3: math.pi / 2})
    assert route.check({7: math.pi})


def test_known_faults_are_excused_only_in_their_documented_form(families):
    import run

    def known(op, out):
        return run.check([run.Result(op, out, None, 0.0, 0)])[0][2]

    rate = families["rate_report chain-8"]
    r = rate.call()
    assert rate.check(r) and r.l > 0 and known(rate, r)
    assert not known(rate, replace(r, D=r.D + 1))
    assert not known(rate, replace(r, zero_times=(0.3,) + r.zero_times[1:]))  # |f| = cos^7 0.3
    long_chain = families["check_transfer chain-250"]
    v = long_chain.call()
    assert long_chain.check(v) and known(long_chain, v)
    assert not known(long_chain, replace(v, status="perfect", t0=1.0, reason=""))
    assert families["check_transfer chain-200"].known_fault is None


def test_spectrum_checks_reject_wrong_roots_polynomials_and_bounds(spectra):
    op = spectra["is_integral_spectrum Q3"]
    ok, roots = answer(op)
    assert op.check((ok, roots[:-1] + [roots[-1] + 1]))
    assert op.check((False, None))
    assert spectra["is_integral_spectrum C5"].check((True, [-2, -1, 0, 1, 2]))
    poly = spectra["integer_char_poly P5"]
    coeffs = answer(poly)
    assert poly.check(coeffs[:1] + [coeffs[1] + 1] + coeffs[2:])
    bounds = spectra["laplacian_diameter_bounds C6xP2"]
    rep = answer(bounds)
    assert bounds.check(replace(rep, D=rep.D - 1))
    assert bounds.check(replace(rep, k=rep.k + 1, k_minus_1=rep.k))


def test_census_check_rejects_wrong_records():
    g = pstlab.parse_graph6("F?B~o")  # the one 7-vertex class with perfect transfer
    check = lambda res: workloads._check_census_class(g, {}, res)  # noqa: E731
    res = pstlab.census([g], workers=1)
    assert check(res) is None and len(res.records) == 1
    rec = res.records[0]
    assert check(replace(res, records=[replace(rec, t0=rec.t0 * 1.001)]))
    assert check(replace(res, records=[]))
    assert check(replace(res, records=[rec, replace(rec, model="laplacian")]))
    assert check(replace(res, records=[replace(rec, l=1, M=3)]))


def test_census_reference_matches_brute_force_at_small_n():
    graphs = list(pstlab.enumerate_connected_graphs(5))
    census = sorted((r.graph6, r.model, r.source, r.target)
                    for r in pstlab.census(graphs, workers=1).records)
    assert oracle.census_keys(graphs) == census
    assert sum(len(v) for v in oracle.census_reference().values()) == 1


def test_cli_checks_reject_wrong_json_and_exit_codes(tmp_path):
    ok = json.dumps({"status": "perfect", "t0": math.pi / math.sqrt(2),
                     "transfer_phase": [-1.0, 0.0], "fidelity_at_t0": 1.0})
    check = lambda res: workloads._check_cli_transfer(  # noqa: E731
        0, "perfect", math.pi / math.sqrt(2), -1, res)
    assert check(workloads.CliResult(0, ok, 0)) is None
    assert check(workloads.CliResult(1, ok, 0))
    assert check(workloads.CliResult(0, ok.replace("2.22144", "2.22145"), 0))
    gauged = one_round(workloads.cli_cold(7, tmp_path))["check gauged P4 0->3"].check

    def verdict(status, fidelity):
        return json.dumps({"status": status, "t0": None, "fidelity_at_t0": fidelity})

    assert gauged(workloads.CliResult(1, verdict("no-transfer", None), 0)) is None
    assert gauged(workloads.CliResult(2, verdict("undecided", 0.99996), 0)) is None
    assert gauged(workloads.CliResult(2, verdict("undecided", 1.0), 0))
    assert gauged(workloads.CliResult(0, verdict("perfect", 1.0), 0))
    assert gauged(workloads.CliResult(1, verdict("undecided", 0.99996), 0))
    csv_path = tmp_path / "evolve.csv"
    csv_path.write_text("time,target,re,im,magnitude\n0,0,1,0,1\n0,1,0,0,0\n0,2,0.1,0,0.1\n")
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert workloads._check_cli_evolve(a, 0, 1, {}, workloads.CliResult(0, "", 0, csv_path))


def test_tail_percentile_has_ten_samples_beyond_it_in_one_round(tmp_path):
    import run

    sizes = {"census-n7": workloads.CENSUS_CLASSES, "cli-cold": run.MIN_OPS}
    for name in run.WORKLOADS:
        wl = workloads.build(name, 1, tmp_path)
        n = sizes.get(name) or len(one_round(wl))
        assert max(n, run.MIN_OPS) * (1 - wl.tail_percentile / 100) >= 10, name


# -- tracing changes no answer ------------------------------------------------------------


def _summary(out):
    if isinstance(out, pstlab.TransferVerdict):
        return (out.status, out.t0, out.transfer_phase, out.reason)
    if isinstance(out, pstlab.RateReport):
        return (out.l, out.D, out.M, out.zero_times)
    return out


def _ops(tmp):
    """check-families and the smaller exact-spectrum ops, built now."""
    ops = list(one_round(workloads.check_families(7, tmp)).values())
    return ops + [op for name, op in one_round(workloads.exact_spectrum(7, tmp)).items()
                  if "G(" not in name]


def test_traced_answers_equal_untraced(tmp_path):
    plain = [_summary(op.call()) for op in _ops(tmp_path)]
    census = pstlab.census(list(pstlab.enumerate_connected_graphs(5)), workers=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_summary(op.call()) for op in _ops(tmp_path)]
        traced_census = pstlab.census(list(pstlab.enumerate_connected_graphs(5)), workers=1)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert traced_census == census
    assert tracer.stats["transfer.check_transfer"][0] > 0
    assert tracer.stats["spectral.eigh"][0] >= tracer.stats["spectral.decompose"][0]
    assert np.linalg.eigh.__module__.startswith("numpy")
    assert pstlab.check_transfer is pstlab.transfer.check_transfer
    assert pstlab.transfer.check_transfer.__code__.co_name == "check_transfer"
    assert pstlab.Graph.adjacency.__code__.co_name == "adjacency"


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10 ** 5))
    calls, total, self_s = tracer.stats["outer"]
    assert calls == 1 and 0 <= self_s < total
    assert abs(total - self_s - tracer.stats["inner"][1]) < 1e-9


# -- the command -------------------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "census-n7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
