"""Command-line interface: check, evolve, spectrum, bounds, product, search.

Exit codes: 0 perfect transfer, 1 no transfer, 2 undecided, 64 usage error,
65 input parse error, 70 internal failure.  Errors go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import graphs as G
from .config import Config
from .hamiltonians import (
    adjacency_hamiltonian,
    laplacian_hamiltonian,
    weighted_hamiltonian,
)
from .limits import laplacian_diameter_bounds, rate_report
from .search import (
    MODELS,
    census,
    enumerate_connected_graphs,
    read_graph6_stream,
    write_records,
    write_records_csv,
)
from .spectral import _require_vertices, decompose, integer_char_poly, is_integral_spectrum
from .transfer import NotPerfect, check_transfer, fidelity_curve

EXIT_PERFECT = 0
EXIT_NO_TRANSFER = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


class ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- input loading -------------------------------------------------------------


def load_graph(path: str) -> G.Graph:
    try:
        text = open(path).read()
    except OSError as exc:
        raise ParseFailure(str(exc)) from exc
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return G.Graph.from_json(stripped)
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseFailure(f"bad JSON graph: {exc}") from exc
    try:
        return G.parse_graph6(stripped.splitlines()[0])
    except (G.MalformedGraph6, IndexError) as exc:
        raise ParseFailure(f"not a JSON graph or graph6 line: {exc}") from exc


def load_matrix(path: str) -> np.ndarray:
    """Weighted Hamiltonian: JSON couplings format or dense re/im CSV."""
    try:
        text = open(path).read()
    except OSError as exc:
        raise ParseFailure(str(exc)) from exc
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
            n = int(data["n"])
            edges = frozenset((int(u), int(v)) for u, v, _, _ in data["couplings"])
            g = G.Graph(n, edges)
            couplings = {
                (int(u), int(v)): complex(re, im)
                for u, v, re, im in data["couplings"]
            }
            fields = data.get("fields")
            return weighted_hamiltonian(g, couplings, fields)
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseFailure(f"bad JSON Hamiltonian: {exc}") from exc
    try:
        rows = [
            [float(x) for x in row]
            for row in csv.reader(stripped.splitlines())
            if row
        ]
        n = len(rows)
        if any(len(r) != 2 * n for r in rows):
            raise ValueError("each row must hold 2n floats (re/im interleaved)")
        h = np.array(
            [[complex(r[2 * j], r[2 * j + 1]) for j in range(n)] for r in rows]
        )
        if not np.allclose(h, h.conj().T, atol=0, rtol=0):
            raise ValueError("matrix is not Hermitian")
        return h
    except ValueError as exc:
        raise ParseFailure(f"bad CSV matrix: {exc}") from exc


def build_hamiltonian(args) -> np.ndarray:
    if args.model == "weighted":
        return load_matrix(args.input)
    g = load_graph(args.input)
    if args.model == "adjacency":
        return adjacency_hamiltonian(g).astype(float)
    return laplacian_hamiltonian(g).astype(float)


# -- subcommands -----------------------------------------------------------------


def cmd_check(args, cfg: Config) -> int:
    h = build_hamiltonian(args)
    verdict = check_transfer(h, args.source, args.target, **cfg.check_kwargs())
    if args.json:
        out = {
            "status": verdict.status,
            "reason": verdict.reason,
            "t0": verdict.t0,
            "transfer_phase": (
                [verdict.transfer_phase.real, verdict.transfer_phase.imag]
                if verdict.transfer_phase is not None else None
            ),
            "eigenphases": list(verdict.eigenphases),
            "chi": verdict.gap_structure.chi if verdict.gap_structure else None,
            "z": list(verdict.gap_structure.integers) if verdict.gap_structure else None,
            "r": verdict.r,
            "fidelity_at_t0": verdict.fidelity_at_t0,
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"status: {verdict.status}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
        if verdict.is_perfect:
            p = verdict.transfer_phase
            print(f"t0: {_fmt(verdict.t0)}")
            print(f"transfer phase: {_fmt(p.real)}{p.imag:+.12g}i")
            print("eigenspace phases:",
                  " ".join(_fmt(x) for x in verdict.eigenphases))
            if verdict.gap_structure is not None:
                print(f"chi: {_fmt(verdict.gap_structure.chi)}  "
                      f"z: {list(verdict.gap_structure.integers)}  r: {verdict.r}")
            print(f"fidelity at t0: {_fmt(verdict.fidelity_at_t0)}")
    return {
        "perfect": EXIT_PERFECT,
        "no-transfer": EXIT_NO_TRANSFER,
        "undecided": EXIT_UNDECIDED,
    }[verdict.status]


def cmd_evolve(args, cfg: Config) -> int:
    h = build_hamiltonian(args)
    try:
        start, end, steps = args.times.split(":")
        start, end, steps = float(start), float(end), int(steps)
    except ValueError:
        print("error: --times expects start:end:steps", file=sys.stderr)
        return EXIT_USAGE
    if steps < 2 or end < start:
        print("error: need steps >= 2 and end >= start", file=sys.stderr)
        return EXIT_USAGE
    _require_vertices(h.shape[0], args.source)
    dec = decompose(h, cfg.grouping_tol)
    times = np.linspace(start, end, steps)
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["time", "target", "re", "im", "magnitude"])
        for target in range(h.shape[0]):
            amps = fidelity_curve(dec, args.source, target, times)
            for t, amp in zip(times, amps):
                writer.writerow([_fmt(t), target, _fmt(amp.real),
                                 _fmt(amp.imag), _fmt(abs(amp))])
    finally:
        if args.out is not None:
            out.close()
    return 0


def cmd_spectrum(args, cfg: Config) -> int:
    h = build_hamiltonian(args)
    dec = decompose(h, cfg.grouping_tol)
    payload = {
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "multiplicities": dec.multiplicities.tolist(),
    }
    if args.model in ("adjacency", "laplacian"):
        hint = np.asarray(np.real(h)).astype(np.int64)
        coeffs = integer_char_poly(hint)
        integral, roots = is_integral_spectrum(hint)
        payload["char_poly"] = [int(c) for c in coeffs]
        payload["integral"] = integral
        if integral:
            payload["integer_roots"] = roots
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print("eigenvalues:",
              " ".join(_fmt(v) for v in payload["eigenvalues"]))
        print("multiplicities:",
              " ".join(str(m) for m in payload["multiplicities"]))
        if "char_poly" in payload:
            print("char poly coefficients (ascending):", payload["char_poly"])
            print("integral:", payload["integral"])
            if payload["integral"]:
                print("integer roots:", payload["integer_roots"])
    return 0


def cmd_bounds(args, cfg: Config) -> int:
    g = load_graph(args.input)
    report = laplacian_diameter_bounds(g, tuple(args.alpha))
    payload = {
        "D": report.D,
        "max_degree": report.max_degree,
        "two_d": report.two_d,
        "k": report.k,
        "k_minus_1": report.k_minus_1,
        "mohar": {str(a): b for a, b in report.mohar.items()},
        "all_satisfied": report.all_satisfied,
    }
    if args.source is not None and args.target is not None:
        h = (laplacian_hamiltonian(g) if args.model == "laplacian"
             else adjacency_hamiltonian(g)).astype(float)
        try:
            rr = rate_report(h, args.source, args.target, **cfg.check_kwargs())
        except NotPerfect as exc:
            payload["rate"] = {"status": exc.verdict.status, "reason": exc.verdict.reason}
        else:
            payload["rate"] = {
                "D": rr.D, "M": rr.M, "l": rr.l,
                "zero_times": list(rr.zero_times),
                "bound_satisfied": rr.bound_satisfied,
                "ml_lower_bound": rr.ml_lower_bound,
            }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"diameter D: {report.D}")
        print(f"2d: {report.two_d}  k-1: {report.k_minus_1}")
        for a, bound in report.mohar.items():
            print(f"mohar(alpha={_fmt(a)}): {bound}")
        print(f"all bounds satisfied: {report.all_satisfied}")
        if "rate" in payload:
            print(f"rate: {payload['rate']}")
    return 0


def cmd_product(args, cfg: Config) -> int:
    g1 = load_graph(args.g1)
    if args.op == "complement":
        print(G.complement(g1).to_json())
        return 0
    g2 = load_graph(args.g2)
    if args.op == "cartesian":
        g = G.cartesian_product(g1, g2)
    elif args.op == "conjunction":
        g = G.conjunction(g1, g2)
    elif args.op == "strong":
        g = G.strong_product(g1, g2)
    else:
        g, square_ok = G.join(g1, g2)
        print(json.dumps({"n": g.n, "edges": g.sorted_edges(),
                          "square_ok": square_ok}))
        return 0
    print(g.to_json())
    return 0


def cmd_search(args, cfg: Config) -> int:
    if (args.n is None) == (args.graph6_file is None):
        print("error: provide exactly one of --n / --graph6-file", file=sys.stderr)
        return EXIT_USAGE
    if args.n is not None:
        graphs = list(enumerate_connected_graphs(args.n))
    else:
        with open(args.graph6_file) as fh:
            graphs = list(read_graph6_stream(fh))
    models = tuple(args.models.split(","))
    for m in models:
        if m not in MODELS:
            print(f"error: unknown model {m!r}", file=sys.stderr)
            return EXIT_USAGE
    result = census(graphs, models, workers=cfg.workers)
    write_records(result.records, args.out)
    if args.csv:
        write_records_csv(result.records, args.csv)
    print(f"graphs: {len(graphs)}  perfect records: {len(result.records)}  "
          f"undecided: {len(result.undecided)}  failures: {len(result.failures)}")
    return 0 if not result.failures else EXIT_INTERNAL


# -- entry point --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pstlab",
                     description="Perfect state transfer on coupling graphs")
    for name in ("grouping-tol", "support-tol", "residual-tol",
                 "fidelity-tol", "weight-tol", "t-max"):
        parser.add_argument(f"--{name}", type=float, default=None)
    parser.add_argument("--max-denominator", type=int, default=None)
    parser.add_argument("--scan-grid", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, model=True):
        p.add_argument("input", help="JSON graph/Hamiltonian, graph6, or CSV matrix")
        if model:
            p.add_argument("--model", default="adjacency",
                           choices=("adjacency", "laplacian", "weighted"))
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="decide perfect transfer")
    add_io(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)

    p = sub.add_parser("evolve", help="fidelity curve CSV")
    add_io(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--times", required=True, help="start:end:steps")
    p.add_argument("--out", default=None)

    p = sub.add_parser("spectrum", help="eigenvalues and integrality")
    add_io(p)

    p = sub.add_parser("bounds", help="diameter and rate bounds")
    add_io(p)
    p.add_argument("--alpha", type=float, action="append",
                   default=None, help="Mohar bound evaluation points")
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--target", type=int, default=None)

    p = sub.add_parser("product", help="graph constructions")
    p.add_argument("op", choices=("cartesian", "conjunction", "strong",
                                  "join", "complement"))
    p.add_argument("g1")
    p.add_argument("g2", nargs="?", default=None)

    p = sub.add_parser("search", help="PST census over small graphs")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--graph6-file", default=None)
    p.add_argument("--models", default="adjacency,laplacian")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    return parser


def _merge_config(args) -> Config:
    cfg = Config.from_env()
    overrides = {
        "grouping_tol": args.grouping_tol,
        "support_tol": args.support_tol,
        "residual_tol": args.residual_tol,
        "fidelity_tol": args.fidelity_tol,
        "weight_tol": args.weight_tol,
        "t_max": args.t_max,
        "max_denominator": args.max_denominator,
        "scan_grid": args.scan_grid,
        "workers": args.workers,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.command == "product" and args.op != "complement" and args.g2 is None:
        print("error: this product needs two graphs", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "bounds" and args.alpha is None:
        args.alpha = [2.0, math.e, 4.0]
    cfg = _merge_config(args)
    handler = {
        "check": cmd_check,
        "evolve": cmd_evolve,
        "spectrum": cmd_spectrum,
        "bounds": cmd_bounds,
        "product": cmd_product,
        "search": cmd_search,
    }[args.command]
    try:
        return handler(args, cfg)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
