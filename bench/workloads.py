"""The benchmark's workloads: inputs made from a seed, the operations of
one round, and an independent check of every answer.

A round is the same list of operations every time, so the share of failed
operations does not depend on how many rounds a run makes.  Checks run
after the timed part of a run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import oracle
import pstlab

BENCH = Path(__file__).resolve().parent
CENSUS_CLASSES = 853  # connected graphs on 7 vertices, OEIS A001349
TIME_TOL = 1e-9  # symbolic transfer times
SCAN_TIME_TOL = 1e-4  # transfer times found by the numeric scan


@dataclass(frozen=True)
class Op:
    name: str  # unique within a round
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # None, or why the answer is wrong
    # For an op with a named program fault: whether an answer that `check`
    # rejects fails in the documented way.  Any other failure is unexpected.
    known_fault: "Callable[[object], bool] | None" = None


@dataclass
class Round:
    index: int
    span: Callable  # span(name): a context manager timing one layer
    problems: list  # failed checks that belong to no single operation
    trace_dir: "Path | None"  # set in traced runs of cli-cold


@dataclass
class Workload:
    ops: Callable[[Round], Iterator[Op]]  # the operations of one round
    hamiltonians: int  # distinct Hamiltonians one round works on
    tail_percentile: int  # at least ten of one round's op times lie above it
    child_rss: bool = False  # memory is that of the child processes
    summary: Callable[[list], dict] = lambda results: {}


def _memo(cache: dict, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


# -- census-n7 --------------------------------------------------------------------


def _check_census_class(g, cache, result) -> "str | None":
    if result.failures:
        return f"census failed: {result.failures}"
    g6 = oracle.graph6(g.n, g.edges)
    expected = oracle.census_reference().get(g6, set())
    got = {(r.model, r.source, r.target) for r in result.records}
    if got != expected:
        return f"{g6}: perfect pairs {sorted(got)}, brute-force reference {sorted(expected)}"
    for model in ("adjacency", "laplacian"):
        ends = [v for r in result.records if r.model == model for v in (r.source, r.target)]
        if len(ends) != len(set(ends)):
            return f"{g6} {model}: a vertex has two perfect partners"
    for r in result.records:
        h = oracle.model_matrix(g.n, g.edges, r.model)
        key = (g6, r.model, r.source, r.target, r.t0)
        bad = _memo(cache, key, lambda: oracle.perfect_at(h, r.source, r.target, r.t0,
                                                          r.transfer_phase))
        if bad:
            return f"{g6} {r.model} {r.source}->{r.target}: {bad}"
        if r.D != oracle.bfs_distances(h != 0, r.source)[r.target]:
            return f"{g6}: D = {r.D} is not the distance"
        if r.M != len(oracle.distinct_eigenvalues(h)):
            return f"{g6}: M = {r.M} is not the number of distinct eigenvalues"
        if 2 * r.l + r.D > r.M:
            return f"{g6}: rate bound 2l + D <= M fails with l={r.l} D={r.D} M={r.M}"
    return None


def census_n7(seed: int, out_dir: Path) -> Workload:
    order = np.random.default_rng(seed).permutation(CENSUS_CLASSES)
    cache = {}

    def ops(rnd: Round):
        with rnd.span("search.enumerate_connected_graphs"):
            graphs = list(pstlab.enumerate_connected_graphs(7))
        if len(graphs) != CENSUS_CLASSES:
            rnd.problems.append(f"enumerate_connected_graphs(7) gave {len(graphs)} "
                                f"classes, not {CENSUS_CLASSES}")
        for i in (order if len(graphs) == CENSUS_CLASSES else range(len(graphs))):
            g = graphs[i]
            yield Op(f"census class {i}", partial(pstlab.census, [g], workers=1),
                     partial(_check_census_class, g, cache))

    def summary(results):
        records = sorted((r for res in results if res.round == 0 and res.output is not None
                          for r in res.output.records), key=pstlab.SearchRecord.sort_key)
        path = out_dir / "census-n7.jsonl"
        pstlab.write_records(records, path)
        return {"census_jsonl_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "census_perfect_records": len(records)}

    # Census ops are alike (7 vertices, about 42 check_transfer calls each), so
    # a percentile past p90 measures bursts of machine load, not the program.
    return Workload(ops, hamiltonians=2 * CENSUS_CLASSES, tail_percentile=90,
                    summary=summary)


# -- check-families -----------------------------------------------------------------

CHAIN_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 16, 32, 64, 100, 150, 200, 250, 300)
RATE_CHAIN_SIZES = (2, 3, 4, 5, 6, 7, 8, 10, 16, 32)
ROUTE_CHAIN_SIZES = (5, 10, 32, 100)
HYPERCUBE_DIMS = (2, 3, 4, 5, 6, 7)
# J2 in [3/sqrt(10), sqrt(5/2)]; their 32 rate reports put a plateau under p90
ASYMMETRIC_J2 = tuple(round(0.95 + 0.02 * k, 2) for k in range(32))
CHAIN_PRODUCT_SIZES = (5, 10, 20)  # chain x chain: 25, 100 and 400 sites
GAUGE_SIZES = (4, 8, 16, 32, 48)

# Two program faults (CHANGES.md, FOUND lines).  check_transfer gives a
# false no-transfer on the long PST chains; autocorrelation_zeros counts
# every grid minimum with |f| <= 1e-8 as a zero, so rate_report finds zeros
# that cos^(N-1) t and its products do not have.
FALSE_NO_TRANSFER = frozenset(["chain-250", "chain-300"])
SPURIOUS_ZEROS = frozenset(
    [f"chain-{n}" for n in RATE_CHAIN_SIZES if n >= 6]
    + [f"Q{d}" for d in HYPERCUBE_DIMS if d >= 5]
    + ["P3xP3xP3", "chain-5xchain-5", "chain-10xchain-10"]
)
NEAR_ZERO = 1e-6  # |<a|e^{-iHt}|a>| at a reported autocorrelation zero


@dataclass(frozen=True)
class Instance:
    """A Hamiltonian with perfect transfer a -> b at t0, and what is known of it."""

    label: str
    h: np.ndarray
    a: int
    b: int
    t0: float
    t0_tol: float = TIME_TOL
    phase: complex = None  # <b|e^{-iH t0}|a>, when known in closed form
    l: int = None  # autocorrelation zeros of |a> in (0, t0), when known


def _check_perfect(inst: Instance, cache: dict, v) -> "str | None":
    if v.status != "perfect":
        return f"{v.status} ({v.reason}), expected perfect at t0 = {inst.t0:.12g}"
    if abs(v.t0 - inst.t0) > inst.t0_tol:
        return f"t0 = {v.t0!r}, expected {inst.t0!r}"
    if inst.phase is not None and abs(v.transfer_phase - inst.phase) > oracle.PHASE_TOL:
        return f"phase {v.transfer_phase}, expected {inst.phase}"
    return _memo(cache, (inst.label, inst.a, inst.b, v.t0, v.transfer_phase),
                 lambda: oracle.perfect_at(inst.h, inst.a, inst.b, v.t0, v.transfer_phase))


def _check_no_transfer(v) -> "str | None":
    if v.status != "no-transfer":
        return f"{v.status} at t0 = {v.t0}, expected no-transfer"
    return None


def _is_false_no_transfer(v) -> bool:
    return v.status in ("no-transfer", "undecided")


def _distance_and_size(inst: Instance, cache: dict):
    d = _memo(cache, ("D", inst.label),
              lambda: oracle.bfs_distances(oracle.support(inst.h), inst.a)[inst.b])
    m = _memo(cache, ("M", inst.label), lambda: len(oracle.distinct_eigenvalues(inst.h)))
    return d, m


def _autocorrelation(inst: Instance, cache: dict, t: float) -> complex:
    return _memo(cache, ("f", inst.label, t), lambda: oracle.amplitude(inst.h, inst.a, inst.a, t))


def _is_spurious_zeros(inst: Instance, cache: dict, r) -> bool:
    """D and M are right and only l is too high: every extra zero is a time in
    (0, t0) where the autocorrelation is tiny but, in closed form, not zero."""
    return ((r.D, r.M) == _distance_and_size(inst, cache) and r.l > inst.l
            and len(r.zero_times) == r.l and r.bound_satisfied == (2 * r.l + r.D <= r.M)
            and all(0 < t < inst.t0 and abs(_autocorrelation(inst, cache, t)) <= NEAR_ZERO
                    for t in r.zero_times))


def _check_rate(inst: Instance, cache: dict, r) -> "str | None":
    d, m = _distance_and_size(inst, cache)
    if (r.D, r.M) != (d, m):
        return f"D = {r.D}, M = {r.M}; expected D = {d}, M = {m}"
    if inst.l is not None and r.l != inst.l:
        return f"l = {r.l} autocorrelation zeros in (0, t0), expected {inst.l}"
    if 2 * r.l + r.D > r.M or not r.bound_satisfied:
        return f"rate bound 2l + D <= M fails: l={r.l} D={r.D} M={r.M}"
    for t in r.zero_times:
        if not 0 < t < inst.t0:
            return f"zero time {t} outside (0, t0)"
        if abs(_autocorrelation(inst, cache, t)) > NEAR_ZERO:
            return f"<a|e^(-iHt)|a> does not vanish at the reported zero {t}"
    return None


def _check_route(inst: Instance, found) -> "str | None":
    if set(found) != {inst.b} or abs(found[inst.b] - inst.t0) > inst.t0_tol:
        return f"targets {found}, expected {{{inst.b}: {inst.t0:.12g}}}"
    return None


def _kron_sum(h1, h2):
    return np.kron(h1, np.eye(len(h2))) + np.kron(np.eye(len(h1)), h2)


def _pst_chain(n):
    return pstlab.chain_hamiltonian(pstlab.standard_pst_chain_couplings(n))


def check_families(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    chain = {n: Instance(f"chain-{n}", _pst_chain(n), 0, n - 1, math.pi / 2,
                         phase=(-1j) ** (n - 1), l=0) for n in CHAIN_SIZES}
    cubes = {d: Instance(f"Q{d}",
                         pstlab.adjacency_hamiltonian(pstlab.hypercube_graph(d)).astype(float),
                         0, 2 ** d - 1, math.pi / 2, phase=(-1j) ** d, l=0)
             for d in HYPERCUBE_DIMS}
    asym = [Instance(f"asym-{j2}", pstlab.chain_hamiltonian(pstlab.asymmetric_5chain_couplings(j2)),
                     1, 3, math.pi) for j2 in ASYMMETRIC_J2]
    p3 = pstlab.path_graph(3)
    p3p3 = pstlab.cartesian_product(p3, p3)
    p3p3p3 = pstlab.cartesian_product(p3p3, p3)
    graph_products = [
        Instance("P3xP3", pstlab.adjacency_hamiltonian(p3p3).astype(float), 0, 8,
                 math.pi / math.sqrt(2), phase=1, l=0),
        Instance("P3xP3xP3", pstlab.adjacency_hamiltonian(p3p3p3).astype(float), 0, 26,
                 math.pi / math.sqrt(2), phase=-1, l=0),
    ]
    chain_products = {n: Instance(f"chain-{n}xchain-{n}",
                                  _kron_sum(_pst_chain(n).real, _pst_chain(n).real), 0, n * n - 1,
                                  math.pi / 2, phase=(-1j) ** (2 * n - 2), l=0)
                      for n in CHAIN_PRODUCT_SIZES}
    gauged = []
    for n in GAUGE_SIZES:
        d = np.exp(2j * math.pi * rng.random(n))
        gauged.append(Instance(f"gauge-chain-{n}", d[:, None] * _pst_chain(n) * d.conj()[None, :],
                               0, n - 1, math.pi / 2, t0_tol=SCAN_TIME_TOL,
                               phase=d[n - 1] * d[0].conjugate() * (-1j) ** (n - 1)))

    cache = {}
    perfect = [*chain.values(), *asym, *graph_products, *chain_products.values(), *gauged]
    rate = [chain[n] for n in RATE_CHAIN_SIZES] + list(cubes.values()) + asym + graph_products
    rate += [chain_products[5], chain_products[10]]
    route = [chain[n] for n in ROUTE_CHAIN_SIZES] + list(cubes.values())
    route += [asym[2], graph_products[0], chain_products[10]]

    round_ops = [Op(f"check_transfer {i.label}", partial(pstlab.check_transfer, i.h, i.a, i.b),
                    partial(_check_perfect, i, cache),
                    _is_false_no_transfer if i.label in FALSE_NO_TRANSFER else None)
                 for i in perfect]
    # Every target of Q_d from vertex 0, and of Q7 from vertex 1 as well: the
    # 254 like Q7 calls put a plateau of op times under the median.
    sources = [(cube, 0) for cube in cubes.values()] + [(replace(cubes[7], a=1, b=126), 1)]
    for cube, a in sources:
        for b in range(len(cube.h)):
            if b != a:
                round_ops.append(Op(
                    f"check_transfer {cube.label} {a}->{b}",
                    partial(pstlab.check_transfer, cube.h, a, b),
                    partial(_check_perfect, cube, cache) if b == cube.b else _check_no_transfer))
    round_ops += [Op(f"rate_report {i.label}", partial(pstlab.rate_report, i.h, i.a, i.b),
                     partial(_check_rate, i, cache),
                     partial(_is_spurious_zeros, i, cache) if i.label in SPURIOUS_ZEROS else None)
                  for i in rate]
    round_ops += [Op(f"routing_impossibility_scan {i.label}",
                     partial(pstlab.routing_impossibility_scan, i.h, i.a),
                     partial(_check_route, i)) for i in route]
    hamiltonians = (len(chain) + len(cubes) + len(asym) + len(graph_products)
                    + len(chain_products) + len(gauged))
    return Workload(lambda rnd: iter(round_ops), hamiltonians, tail_percentile=90)


# -- exact-spectrum -------------------------------------------------------------------

# Many graphs of one size put a plateau of like op times where a percentile
# falls, so that a small drift in speed moves it little: thirty 8-vertex
# graphs hold the median, twenty-four 20-vertex graphs the tail percentile,
# with only the six Q5 and P5xP6 ops above them.  No op takes more than a
# few tenths of a second, so a run holds several rounds.
RANDOM_SIZES = (8,) * 30 + (20,) * 24
POLY_POINTS = (-2, -1, 1, 3)


def _hypercube_roots(d):
    return sorted(d - 2 * k for k in range(d + 1) for _ in range(math.comb(d, k)))


def _cycle_roots(n):
    return oracle.integer_roots([2 * math.cos(2 * math.pi * k / n) for k in range(n)])


def _path_roots(n):
    return oracle.integer_roots([2 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)])


def _check_char_poly(label, a, cache, coeffs) -> "str | None":
    n = len(a)
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return f"{label}: not a monic polynomial of degree {n}: {coeffs}"
    for x in POLY_POINTS:
        want = _memo(cache, (label, x), lambda: oracle.char_poly_at(a, x))
        if oracle.poly_value(coeffs, x) != want:
            return f"{label}: p({x}) = {oracle.poly_value(coeffs, x)}, det(xI - A) = {want}"
    return None


def _check_integral(label, a, known_roots, cache, result) -> "str | None":
    roots = _memo(cache, (label, "roots"), lambda: oracle.integer_spectrum(a))
    if known_roots is not False and known_roots != roots:
        return f"{label}: eigvalsh disagrees with the closed form (benchmark fault)"
    want = (False, None) if roots is None else (True, roots)
    if tuple(result) != want:
        return f"{label}: is_integral_spectrum gave {result}, expected {want}"
    return None


def _check_bounds(label, g, cache, r) -> "str | None":
    """The reported quantities are right, and D <= k - 1 (true of every connected graph).

    The bounds D <= 2d and Mohar's (with lambda_2 >= 1) are derived for an
    integral Laplacian spectrum; only there must all of them hold, elsewhere
    all_satisfied must agree with the bounds reported.
    """
    def expected():
        adj = g.adjacency()
        lap = np.diag(adj.sum(axis=1)) - adj
        return (oracle.bfs_diameter(adj), int(adj.sum(axis=1).max()),
                len(oracle.distinct_eigenvalues(lap)), oracle.integer_spectrum(lap) is not None)

    diam, maxdeg, k, integral = _memo(cache, (label, "bounds"), expected)
    if (r.D, r.max_degree, r.two_d, r.k, r.k_minus_1) != (diam, maxdeg, 2 * maxdeg, k, k - 1):
        return (f"{label}: D={r.D} d={r.max_degree} 2d={r.two_d} k={r.k}; expected "
                f"D={diam} d={maxdeg} k={k}")
    holds = all(diam <= b for b in (r.two_d, r.k_minus_1, *r.mohar.values()))
    if diam > k - 1 or r.all_satisfied != holds or (integral and not holds):
        return f"{label}: the diameter {diam} against the bounds: {r}"
    return None


def exact_spectrum(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    G = pstlab
    structured = []  # (label, graph, closed-form integer roots, or None when not integral;
    #                   False when the workload has no closed form)
    structured += [(f"Q{d}", G.hypercube_graph(d), _hypercube_roots(d)) for d in (3, 4, 5)]
    structured += [(f"K{n}", G.complete_graph(n), sorted([-1] * (n - 1) + [n - 1]))
                   for n in range(2, 9)]
    structured += [(f"C{n}", G.cycle_graph(n), _cycle_roots(n)) for n in range(3, 11)]
    structured += [(f"P{n}", G.path_graph(n), _path_roots(n)) for n in range(1, 11)]
    structured += [
        ("P3xP3", G.cartesian_product(G.path_graph(3), G.path_graph(3)), False),
        ("C4xP3", G.cartesian_product(G.cycle_graph(4), G.path_graph(3)), False),
        ("K3xK3", G.cartesian_product(G.complete_graph(3), G.complete_graph(3)), False),
        ("P2xC5", G.cartesian_product(G.path_graph(2), G.cycle_graph(5)), False),
        ("C6xP2", G.cartesian_product(G.cycle_graph(6), G.path_graph(2)), False),
        # The Laplacian's trailing coefficient is 30 times the number of
        # spanning trees, so the root search tries divisors up to about 1.5e6
        ("P5xP6", G.cartesian_product(G.path_graph(5), G.path_graph(6)), False),
    ]
    random_graphs = []
    for i, n in enumerate(RANDOM_SIZES):
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        edges = frozenset((int(u), int(v)) for u, v in zip(*np.nonzero(upper)))
        random_graphs.append((f"G({n},1/2)#{i}", G.Graph(n, edges), False))

    cache = {}
    round_ops = []
    for label, g, roots in structured + random_graphs:
        a = G.adjacency_hamiltonian(g)
        round_ops.append(Op(f"integer_char_poly {label}", partial(G.integer_char_poly, a),
                            partial(_check_char_poly, label, a, cache)))
        round_ops.append(Op(f"is_integral_spectrum {label}", partial(G.is_integral_spectrum, a),
                            partial(_check_integral, label, a, roots, cache)))
    # The root search of is_integral_spectrum does not end in practice on the
    # Laplacians of random graphs past ~16 vertices (CHANGES.md, FOUND), so
    # the diameter bounds run on the structured graphs only.
    for label, g, _ in structured:
        round_ops.append(Op(f"laplacian_diameter_bounds {label}",
                            partial(G.laplacian_diameter_bounds, g),
                            partial(_check_bounds, label, g, cache)))
    return Workload(lambda rnd: iter(round_ops), 2 * len(structured) + len(random_graphs),
                    tail_percentile=90)


# -- cli-cold -------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    maxrss_kb: int
    csv_path: "Path | None" = None
    trace_file: "Path | None" = None


def _run_cli(argv, csv_path=None, trace_file=None) -> CliResult:
    """One fresh interpreter running the CLI, from spawn to exit."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "pstlab.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_file), *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.decode(), usage.ru_maxrss, csv_path, trace_file)


def _cli_json(res: CliResult, code: int):
    if res.code != code:
        raise ValueError(f"exit code {res.code}, expected {code}")
    return json.loads(res.stdout)


def _check_cli_transfer(code, status, t0, phase, res) -> "str | None":
    try:
        out = _cli_json(res, code)
    except ValueError as exc:
        return str(exc)
    if out["status"] != status:
        return f"status {out['status']}, expected {status}"
    if t0 is None:
        return None
    if abs(out["t0"] - t0) > TIME_TOL or \
            abs(complex(*out["transfer_phase"]) - phase) > oracle.PHASE_TOL:
        return f"t0 {out['t0']} phase {out['transfer_phase']}, expected {t0} and {phase}"
    if out["fidelity_at_t0"] < 1 - 1e-9:
        return f"fidelity {out['fidelity_at_t0']}"
    return None


def _check_cli_not_perfect(h, a, b, cache, res) -> "str | None":
    """No perfect transfer a -> b: exit 1 with no-transfer, or exit 2 with
    undecided and a best fidelity below 1 - FIDELITY_TOL; the brute-force
    scan must agree that the pair is not perfect."""
    if (a, b) in _memo(cache, ("pairs", h.tobytes()), lambda: oracle.perfect_pairs(h)):
        return f"the brute-force scan finds {a}->{b} perfect (benchmark fault)"
    want = {1: "no-transfer", 2: "undecided"}.get(res.code)
    if want is None:
        return f"exit code {res.code}, expected 1 (no-transfer) or 2 (undecided)"
    out = json.loads(res.stdout)
    if out["status"] != want:
        return f"status {out['status']} with exit code {res.code}"
    if res.code == 2 and not out["fidelity_at_t0"] < 1 - oracle.FIDELITY_TOL:
        return f"undecided with a best fidelity of {out['fidelity_at_t0']}"
    return None


def _check_cli_spectrum(label, a, cache, res) -> "str | None":
    try:
        out = _cli_json(res, 0)
    except ValueError as exc:
        return str(exc)
    want = _memo(cache, (label, "spectrum"), lambda: oracle.distinct_eigenvalues(a))
    if len(out["eigenvalues"]) != len(want) or \
            max(abs(x - y) for x, y in zip(out["eigenvalues"], want)) > 1e-9:
        return f"eigenvalues {out['eigenvalues']}, expected {want}"
    bad = _check_char_poly(label, a, cache, out["char_poly"])
    if bad:
        return bad
    roots = _memo(cache, (label, "roots"), lambda: oracle.integer_spectrum(a))
    if out["integral"] != (roots is not None) or out.get("integer_roots") != roots:
        return f"integral {out['integral']} roots {out.get('integer_roots')}, expected {roots}"
    return None


def _check_cli_bounds(diam, rate, res) -> "str | None":
    try:
        out = _cli_json(res, 0)
    except ValueError as exc:
        return str(exc)
    if out["D"] != diam or not out["all_satisfied"]:
        return f"D = {out['D']}, all_satisfied = {out['all_satisfied']}, expected D = {diam}"
    if any(diam > b for b in (out["two_d"], out["k_minus_1"], *out["mohar"].values())):
        return f"the diameter {diam} exceeds a bound: {out}"
    if rate is not None:
        got = {k: out["rate"][k] for k in rate}
        if got != rate:
            return f"rate {got}, expected {rate}"
    return None


def _check_cli_evolve(h, source, steps, cache, res) -> "str | None":
    if res.code != 0:
        return f"exit code {res.code}"
    with open(res.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = len(h)
    if len(rows) != n * steps:
        return f"{len(rows)} rows, expected {n} x {steps}"
    total = {}
    for row in rows:
        t, target = row["time"], int(row["target"])
        amp = complex(float(row["re"]), float(row["im"]))
        total[t] = total.get(t, 0.0) + abs(amp) ** 2
        want = _memo(cache, ("evolve", h.tobytes(), t),
                     lambda: oracle.amplitude_row(h, source, float(t)))[target]
        if abs(amp - want) > 1e-8:
            return f"amplitude {amp} at t = {t} to {target}, expected {want}"
    worst = max(abs(s - 1) for s in total.values())
    if worst > 1e-9:
        return f"sum over targets of |amp|^2 differs from 1 by {worst:.3g}"
    return None


def _hypercube_edges(d):
    return sorted((v, v ^ (1 << i)) for v in range(2 ** d) for i in range(d) if v < v ^ (1 << i))


def cli_cold(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    files = out_dir / "cli"
    files.mkdir(parents=True, exist_ok=True)
    p3 = [(0, 1), (1, 2)]
    q3 = _hypercube_edges(3)
    phases = np.exp(2j * math.pi * rng.random(3))
    (files / "p3.json").write_text(json.dumps({"n": 3, "edges": p3}))
    (files / "q3.json").write_text(json.dumps({"n": 8, "edges": q3}))
    (files / "p4.g6").write_text("Ch\n")  # the path on 4 vertices, in graph6
    (files / "p4-gauge.json").write_text(json.dumps(
        {"n": 4, "couplings": [[i, i + 1, z.real, z.imag] for i, z in enumerate(phases)]}))
    a_p3 = oracle.model_matrix(3, p3, "adjacency")
    a_q3 = oracle.model_matrix(8, q3, "adjacency")
    a_p4 = oracle.model_matrix(4, [(0, 1), (1, 2), (2, 3)], "adjacency")
    h_p4_gauge = a_p4.astype(complex)
    for i, z in enumerate(phases):
        h_p4_gauge[i, i + 1], h_p4_gauge[i + 1, i] = z, z.conjugate()
    cache = {}
    f = {k: str(files / k) for k in ("p3.json", "q3.json", "p4.g6", "p4-gauge.json")}

    fixed = [
        ("check P3 0->2", ["check", f["p3.json"], "--source", "0", "--target", "2", "--json"],
         partial(_check_cli_transfer, 0, "perfect", math.pi / math.sqrt(2), -1)),
        ("check Q3 0->7", ["check", f["q3.json"], "--source", "0", "--target", "7", "--json"],
         partial(_check_cli_transfer, 0, "perfect", math.pi / 2, 1j)),
        ("check P4 0->3", ["check", f["p4.g6"], "--source", "0", "--target", "3", "--json"],
         partial(_check_cli_transfer, 1, "no-transfer", None, None)),
        ("check gauged P4 0->3", ["check", f["p4-gauge.json"], "--model", "weighted",
                                  "--source", "0", "--target", "3", "--json"],
         partial(_check_cli_not_perfect, h_p4_gauge, 0, 3, cache)),
        ("spectrum Q3", ["spectrum", f["q3.json"], "--json"],
         partial(_check_cli_spectrum, "Q3", a_q3, cache)),
        ("spectrum P4", ["spectrum", f["p4.g6"], "--json"],
         partial(_check_cli_spectrum, "P4", a_p4, cache)),
        ("bounds P3 0->2", ["bounds", f["p3.json"], "--source", "0", "--target", "2", "--json"],
         partial(_check_cli_bounds, 2, {"l": 0, "D": 2, "M": 3, "bound_satisfied": True})),
        ("bounds Q3", ["bounds", f["q3.json"], "--json"], partial(_check_cli_bounds, 3, None)),
    ]
    evolve = [("evolve P3", f["p3.json"], a_p3, 61, "0:3:61"),
              ("evolve Q3", f["q3.json"], a_q3, 40, "0:2:40")]

    def ops(rnd: Round):
        def trace_file(k):
            return None if rnd.trace_dir is None else rnd.trace_dir / f"cli-{rnd.index}-{k}.json"

        for k, (name, argv, check) in enumerate(fixed):
            yield Op(name, partial(_run_cli, argv, trace_file=trace_file(k)), check)
        for k, (name, path, a, steps, times) in enumerate(evolve, start=len(fixed)):
            out = files / f"evolve-{rnd.index}-{k}.csv"
            yield Op(name, partial(_run_cli, ["evolve", path, "--source", "0", "--times", times,
                                              "--out", str(out)], out, trace_file(k)),
                     partial(_check_cli_evolve, a, 0, steps, cache))

    return Workload(ops, hamiltonians=len(fixed) + len(evolve), tail_percentile=75,
                    child_rss=True)


BUILDERS = {
    "census-n7": census_n7,
    "check-families": check_families,
    "exact-spectrum": exact_spectrum,
    "cli-cold": cli_cold,
}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return BUILDERS[name](seed, out_dir)
