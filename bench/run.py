"""pstlab benchmark: run one workload for a while and print one JSON result.

    python3 bench/run.py --workload census-n7 --seed 1 --seconds 20 --trace 0

It runs the pstlab found in src/ next to this directory, closed-loop from
one process: one operation at a time, whole rounds of the same operations
until --seconds have passed and at least MIN_OPS operations were timed.
Every answer is then checked against an independent computation.  The last
line of standard output is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
from a run with every layer wrapped by tracer.Tracer.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOADS = ("census-n7", "check-families", "exact-spectrum", "cli-cold")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_OPS = 40  # so that the tail percentile has ten samples beyond it
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
IMPORT_PROBES = 3  # `python -X importtime -c "import pstlab"` runs per traced run


@dataclass
class Result:
    op: object  # workloads.Op
    output: object
    error: str  # set when the call raised
    seconds: float
    round: int


def setup(workload: str, seed: int, tracer=None):
    """Import pstlab and build the workload's inputs; (seconds taken, workload)."""
    t0 = time.perf_counter()
    import pstlab  # noqa: F401 - the import is part of the set-up time

    if tracer is not None:
        tracer.install()
    import workloads

    wl = workloads.build(workload, seed, OUT)
    return time.perf_counter() - t0, wl


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def run_rounds(wl, seconds: float, tracer):
    import workloads

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    trace_dir = OUT / "trace-cli" if tracer is not None else None
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)  # no spans of an earlier run
        trace_dir.mkdir(parents=True)
    results, walls, problems = [], [], []
    start = time.perf_counter()
    while True:
        rnd = workloads.Round(len(walls), span, problems, trace_dir)
        t_round = time.perf_counter()
        for op in wl.ops(rnd):
            t = time.perf_counter()
            try:
                output, error = op.call(), None
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                output, error = None, f"raised {type(exc).__name__}: {exc}"
            results.append(Result(op, output, error, time.perf_counter() - t, rnd.index))
        walls.append(time.perf_counter() - t_round)
        if time.perf_counter() - start >= seconds and len(results) >= MIN_OPS:
            return results, walls, problems


def is_known_fault(r) -> bool:
    """Whether a rejected answer fails in the way its op's named fault does."""
    if r.error is not None or r.op.known_fault is None:
        return False
    try:
        return bool(r.op.known_fault(r.output))
    except Exception:  # noqa: BLE001 - an answer it cannot read is not the known fault
        return False


def check(results):
    """(op name, why, known fault) for every answer an independent check rejects."""
    failures = []
    for r in results:
        why = r.error
        if why is None:
            try:
                why = r.op.check(r.output)
            except Exception as exc:  # noqa: BLE001 - a malformed answer fails its op
                why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            failures.append((r.op.name, why, is_known_fault(r)))
    return failures


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def import_times():
    """Seconds in a fresh `import pstlab`: (pstlab cumulative, scipy self, numpy self)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pstlab"],
                          capture_output=True, text=True, check=True)
    pstlab_us = scipy_us = numpy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if name == "pstlab":
            pstlab_us = int(cumulative_us)
        elif top == "scipy":
            scipy_us += int(self_us)
        elif top == "numpy":
            numpy_us += int(self_us)
    return pstlab_us / 1e6, scipy_us / 1e6, numpy_us / 1e6


def layer_metrics(tracer, setup_part, results, walls, wl):
    main_s = []
    for r in results:
        trace_file = getattr(r.output, "trace_file", None)
        if trace_file is not None and trace_file.exists():
            data = json.loads(trace_file.read_text())
            main_s.append(data.pop("main_s"))
            tracer.merge(data)
    m = tracer.layer_metrics(setup_part, len(walls), wl.hamiltonians)
    probes = [import_times() for _ in range(IMPORT_PROBES)]
    m["cli.import_pstlab_s"] = statistics.median(p[0] for p in probes)
    m["cli.import_scipy_s"] = statistics.median(p[1] for p in probes)
    m["cli.import_numpy_s"] = statistics.median(p[2] for p in probes)
    m["cli.main_s"] = statistics.median(main_s) if main_s else 0.0
    return m


def unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "spectral.eigh_per_hamiltonian":
        return "calls/case"
    return "count"


def environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ.get(k) for k in THREADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pstlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print the seconds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "pstlab" / "__init__.py").is_file():
        print(f"error: no pstlab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)  # before numpy loads OpenBLAS, here and in children
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0

    tracer = Tracer() if args.trace else None
    setup_s, wl = setup(args.workload, args.seed, tracer)
    import pstlab

    if SRC.resolve() not in Path(pstlab.__file__).resolve().parents:
        print(f"error: imported pstlab from {pstlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_part = tracer.snapshot() if tracer is not None else None
    results, walls, problems = run_rounds(wl, args.seconds, tracer)
    if wl.child_rss:
        peak_kb = max(getattr(r.output, "maxrss_kb", 0) for r in results)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    failures = check(results)
    unexpected = sorted({name for name, _, known in failures if not known})
    times = [r.seconds for r in results]
    if tracer is None:
        setups = [setup_s] + [setup_in_child(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": percentile(times, wl.tail_percentile) * 1e3,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "peak_rss_mb": "MB"}
    else:
        values = layer_metrics(tracer, setup_part, results, walls, wl)
        units = {k: unit(k) for k in values}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(walls), "ops": len(results), "ops_per_round": len(results) // len(walls),
        "tail_percentile": wl.tail_percentile, "environment": environment(),
        "failed_ops": sorted({name for name, _, _ in failures}),
        "unexpected_failures": unexpected, "run_problems": problems,
        **wl.summary(results),
    }
    seen = set()
    for name, why, known in failures:
        if name not in seen:
            seen.add(name)
            print(f"failed{' (known fault)' if known else ''}: {name}: {why}", file=sys.stderr)
    for why in problems:
        print(f"problem: {why}", file=sys.stderr)
    result = {
        "correct": not problems and not unexpected,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if tracer is not None:
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.dump(), indent=1))
    op_seconds = {}
    for r in results:
        op_seconds.setdefault(r.op.name, []).append(r.seconds)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result, "round_seconds": walls,
                    "op_seconds": op_seconds}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
