"""Command-line interface: check, evolve, spectrum, bounds, product, search.

Exit codes: 0 perfect transfer, 1 no transfer, 2 undecided, 64 usage error,
65 input parse error, 70 internal failure, 73 output file not writable,
checked before any work, 141 standard output closed early (128 + SIGPIPE, as
for `pstlab evolve ... | head`).  Errors go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import graphs as G
from .hamiltonians import MODELS, model_hamiltonian, weighted_hamiltonian
from .limits import MOHAR_ALPHAS, laplacian_diameter_bounds, rate_report
from .search import (
    _check_models,
    _check_workers,
    census,
    enumerate_connected_graphs,
    read_graph6_stream,
    write_records,
    write_records_csv,
)
from .spectral import (
    _char_poly_and_roots,
    decompose,
    require_hermitian,
)
from .transfer import NotPerfect, check_transfer, fidelity_curve

EXIT_PERFECT = 0
EXIT_NO_TRANSFER = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73

_STATUS_EXIT = {
    "perfect": EXIT_PERFECT,
    "no-transfer": EXIT_NO_TRANSFER,
    "undecided": EXIT_UNDECIDED,
}


class ParseFailure(Exception):
    code = EXIT_PARSE


class CannotCreate(Exception):
    code = EXIT_CANTCREAT


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- input loading -------------------------------------------------------------


def _read(path: str) -> str:
    """The stripped text of the input file at path."""
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError as exc:
        raise ParseFailure(str(exc)) from exc


def load_graph(path: str) -> G.Graph:
    text = _read(path)
    if text.startswith("{"):
        try:
            return G.Graph.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseFailure(f"bad JSON graph: {exc}") from exc
    try:
        return G.parse_graph6(text.splitlines()[0])
    except (ValueError, IndexError) as exc:  # MalformedGraph6, the n = 0 graph, an empty file
        raise ParseFailure(f"not a JSON graph or graph6 line: {exc}") from exc


def load_matrix(path: str) -> np.ndarray:
    """Weighted Hamiltonian: JSON couplings format or dense re/im CSV."""
    text = _read(path)
    if text.startswith("{"):
        try:
            data = json.loads(text)
            g = G.Graph(data["n"], frozenset((u, v) for u, v, _, _ in data["couplings"]))
            couplings = {(u, v): complex(re, im) for u, v, re, im in data["couplings"]}
            fields = data.get("fields")
            return weighted_hamiltonian(g, couplings, fields)
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseFailure(f"bad JSON Hamiltonian: {exc}") from exc
    try:
        rows = [
            [float(x) for x in row]
            for row in csv.reader(text.splitlines())
            if row
        ]
        n = len(rows)
        if any(len(r) != 2 * n for r in rows):
            raise ValueError("each row must hold 2n floats (re/im interleaved)")
        return require_hermitian(
            [[complex(r[2 * j], r[2 * j + 1]) for j in range(n)] for r in rows]
        )
    except ValueError as exc:
        raise ParseFailure(f"bad CSV matrix: {exc}") from exc


def _open_output(path: str, mode: str = "w"):
    """path opened for writing text; CannotCreate when it cannot be."""
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise CannotCreate(str(exc)) from exc


def build_hamiltonian(args) -> np.ndarray:
    if args.model == "weighted":
        return load_matrix(args.input)
    return model_hamiltonian(load_graph(args.input), args.model)


# -- subcommands -----------------------------------------------------------------


def cmd_check(args) -> int:
    h = build_hamiltonian(args)
    verdict = check_transfer(h, args.source, args.target)
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
    return _STATUS_EXIT[verdict.status]


def cmd_evolve(args) -> int:
    h = build_hamiltonian(args)
    try:
        start, end, steps = args.times.split(":")
        start, end, steps = float(start), float(end), int(steps)
    except ValueError:
        print("error: --times expects start:end:steps", file=sys.stderr)
        return EXIT_USAGE
    if not (math.isfinite(start) and math.isfinite(end)) or steps < 2 or end < start:
        print("error: need finite start and end, steps >= 2 and end >= start", file=sys.stderr)
        return EXIT_USAGE
    n = h.shape[0]
    G._require_vertices(n, args.source)
    if args.out is not None:
        _open_output(args.out, "a").close()  # fails now, not after the curve
    times = np.linspace(start, end, steps)
    curves = fidelity_curve(decompose(h), args.source, range(n), times)
    out = sys.stdout if args.out is None else _open_output(args.out)
    try:
        writer = csv.writer(out)
        writer.writerow(["time", "target", "re", "im", "magnitude"])
        for target in range(n):
            for t, amp in zip(times, curves[:, target]):
                writer.writerow([_fmt(t), target, _fmt(amp.real),
                                 _fmt(amp.imag), _fmt(abs(amp))])
    finally:
        if args.out is not None:
            out.close()
    return 0


def cmd_spectrum(args) -> int:
    h = build_hamiltonian(args)
    dec = decompose(h)
    payload = {
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "multiplicities": dec.multiplicities.tolist(),
    }
    if args.model in ("adjacency", "laplacian"):
        coeffs, roots = _char_poly_and_roots(h)
        payload["char_poly"] = [int(c) for c in coeffs]
        payload["integral"] = roots is not None
        if roots is not None:
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


def cmd_bounds(args) -> int:
    if (args.source is None) != (args.target is None):
        print("error: give both --source and --target, or neither", file=sys.stderr)
        return EXIT_USAGE
    g = load_graph(args.input)
    report = laplacian_diameter_bounds(g, tuple(args.alpha or MOHAR_ALPHAS))
    payload = asdict(report)
    payload["mohar"] = {str(a): b for a, b in report.mohar.items()}
    if args.source is not None:
        try:
            rr = rate_report(model_hamiltonian(g, args.model), args.source, args.target)
        except NotPerfect as exc:
            payload["rate"] = {"status": exc.verdict.status, "reason": exc.verdict.reason}
        else:
            payload["rate"] = asdict(rr)
            payload["rate"]["zero_times"] = list(rr.zero_times)
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


def cmd_product(args) -> int:
    if args.op != "complement" and args.g2 is None:
        print("error: this product needs two graphs", file=sys.stderr)
        return EXIT_USAGE
    g1 = load_graph(args.g1)
    if args.op == "complement":
        print(G.complement(g1).to_json())
    elif args.op == "join":
        g, square_ok = G.join(g1, load_graph(args.g2))
        print(json.dumps({"n": g.n, "edges": g.sorted_edges(), "square_ok": square_ok}))
    else:
        product = {"cartesian": G.cartesian_product, "conjunction": G.conjunction,
                   "strong": G.strong_product}[args.op]
        print(product(g1, load_graph(args.g2)).to_json())
    return 0


def cmd_search(args) -> int:
    if (args.n is None) == (args.graph6_file is None):
        print("error: provide exactly one of --n / --graph6-file", file=sys.stderr)
        return EXIT_USAGE
    models = _check_models(args.models.split(","))
    workers = _check_workers(args.workers)
    for path in filter(None, (args.out, args.csv)):
        _open_output(path, "a").close()  # fails now, not after the census
    if args.n is not None:
        graphs = list(enumerate_connected_graphs(args.n))
    else:
        try:
            with open(args.graph6_file) as fh:
                graphs = list(read_graph6_stream(fh))
        except OSError as exc:
            raise ParseFailure(str(exc)) from exc
        except ValueError as exc:  # MalformedGraph6, or the n = 0 graph
            raise ParseFailure(f"bad graph6 line: {exc}") from exc
    result = census(graphs, models, workers=workers)
    for graph6, message in result.failures:
        print(f"census failed on {graph6}: {message}", file=sys.stderr)
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
    parser.add_argument("--workers", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, models=(*MODELS, "weighted")):
        p.add_argument("input", help="JSON graph/Hamiltonian, graph6, or CSV matrix")
        p.add_argument("--model", default="adjacency", choices=models)

    p = sub.add_parser("check", help="decide perfect transfer")
    add_io(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)

    p = sub.add_parser("evolve", help="fidelity curve CSV")
    add_io(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--times", required=True,
                   help="start:end:steps; write --times=START:END:STEPS when START is negative")
    p.add_argument("--out", default=None)

    p = sub.add_parser("spectrum", help="eigenvalues and integrality")
    add_io(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="diameter and rate bounds")
    add_io(p, MODELS)
    p.add_argument("--json", action="store_true")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handler = {
        "check": cmd_check,
        "evolve": cmd_evolve,
        "spectrum": cmd_spectrum,
        "bounds": cmd_bounds,
        "product": cmd_product,
        "search": cmd_search,
    }[args.command]
    try:
        return handler(args)
    except (ParseFailure, CannotCreate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader went away (`| head`): no error to report.  Point stdout
        # at devnull, so that the flush at interpreter exit cannot fail too,
        # and exit as a shell reports a process ended by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
