"""Span tracing of pstlab's layers from outside the package.

`Tracer.install` replaces every public function and public method of the
layer modules with a timing wrapper, in every `pstlab.*` module that holds a
reference to it, and wraps `numpy.linalg.eigh` and the `minimize_scalar`
that `transfer` and `limits` call.  Each wrapper records a span whose parent
is the innermost open span; self time is a span's duration minus the
duration of its child spans.  Spans are aggregated in memory per name and
per (parent, name) edge, so memory does not grow with the number of calls.
`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graphs", "hamiltonians", "spectral", "transfer", "limits", "search", "config")


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent, name) -> [calls, total_s]
        self.counters = {
            "transfer.verdict.undecided": 0,
            "limits.autocorrelation_zeros.zeros_found": 0,
        }
        self._stack = []  # open spans: [name, time spent in children]
        self._saved = []  # (owner, attribute, original value)

    # -- spans -------------------------------------------------------------

    def _close(self, name, parent, duration, children):
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += duration
        s[2] += duration - children
        e = self.edges.setdefault((parent, name), [0, 0.0])
        e[0] += 1
        e[1] += duration

    @contextmanager
    def span(self, name):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self._close(name, parent, duration, frame[1])

    def wrap(self, name, fn, after=None):
        """fn inside a span; the span's steps are inlined, since census-n7
        makes 322,000 wrapped calls a round and a `with` costs twice as much."""
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                close(name, parent, duration, frame[1])
            if after is not None:
                after(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def _count_undecided(self, verdict):
        if verdict.status == "undecided":
            self.counters["transfer.verdict.undecided"] += 1

    def _count_zeros(self, zeros):
        self.counters["limits.autocorrelation_zeros.zeros_found"] += len(zeros)

    def install(self):
        import numpy

        hooks = {
            "transfer.check_transfer": self._count_undecided,
            "limits.autocorrelation_zeros": self._count_zeros,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pstlab" or n.startswith("pstlab."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"pstlab.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self.wrap(name, obj, hooks.get(name))
                    for m in modules:
                        for a, v in list(vars(m).items()):
                            if v is obj:
                                self._set(m, a, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        self._set(numpy.linalg, "eigh", self.wrap("spectral.eigh", numpy.linalg.eigh))
        for layer in ("transfer", "limits"):
            mod = sys.modules.get(f"pstlab.{layer}")
            if mod is not None and hasattr(mod, "minimize_scalar"):
                self._set(mod, "minimize_scalar",
                          self.wrap(f"{layer}.refine", mod.minimize_scalar))

    def _wrap_methods(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrap(name, member))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def snapshot(self):
        return (
            {k: list(v) for k, v in self.stats.items()},
            dict(self.counters),
        )

    def layer_metrics(self, setup_part, rounds, hamiltonians_per_round):
        """Per-layer metrics for one set-up plus one average round.

        setup_part is the snapshot taken when the inputs were built.  Counts
        of identical rounds divide exactly, so they repeat from run to run.
        """
        setup_stats, setup_counters = setup_part

        def per_run(total, setup):
            return setup + (total - setup) / rounds

        def stat(name, i):
            return per_run(self.stats.get(name, [0, 0.0, 0.0])[i],
                           setup_stats.get(name, [0, 0.0, 0.0])[i])

        def layer_self(layer):
            return sum(stat(n, 2) for n in self.stats if n.startswith(layer + "."))

        def count(value):
            return int(value) if float(value).is_integer() else value

        round_eigh = (self.stats.get("spectral.eigh", [0])[0]
                      - setup_stats.get("spectral.eigh", [0])[0]) / rounds
        m = {
            "spectral.eigh.calls": count(stat("spectral.eigh", 0)),
            "spectral.eigh_per_hamiltonian": round_eigh / hamiltonians_per_round,
            "spectral.decompose.calls": count(stat("spectral.decompose", 0)),
            "spectral.decompose.self_s": stat("spectral.decompose", 2),
            "transfer.check_transfer.calls": count(stat("transfer.check_transfer", 0)),
            "transfer.check_transfer.self_s": stat("transfer.check_transfer", 2),
            "search.enumerate_connected_graphs.s": stat("search.enumerate_connected_graphs", 1),
            "search.census.self_s": stat("search.census", 2),
            "spectral.integer_char_poly.self_s": stat("spectral.integer_char_poly", 2),
            "spectral.is_integral_spectrum.self_s": stat("spectral.is_integral_spectrum", 2),
            "limits.laplacian_diameter_bounds.self_s": stat("limits.laplacian_diameter_bounds", 2),
            "limits.autocorrelation_zeros.calls": count(stat("limits.autocorrelation_zeros", 0)),
            "limits.autocorrelation_zeros.self_s": stat("limits.autocorrelation_zeros", 2),
            "limits.refine.calls": count(stat("limits.refine", 0)),
            "transfer.refine.calls": count(stat("transfer.refine", 0)),
            "transfer.fidelity.self_s": stat("transfer.fidelity", 2),
            "transfer.fidelity_curve.self_s": stat("transfer.fidelity_curve", 2),
            "spectral.real_gcd.calls": count(stat("spectral.real_gcd", 0)),
            "spectral.real_gcd.self_s": stat("spectral.real_gcd", 2),
            "graphs.self_s": layer_self("graphs"),
            "hamiltonians.self_s": layer_self("hamiltonians"),
        }
        for name, value in self.counters.items():
            m[name] = count(per_run(value, setup_counters[name]))
        return m

    def dump(self):
        """Plain-data form of the aggregated spans, for the trace file."""
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": v[0], "total_s": v[1]}
                      for (p, n), v in sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "counters": dict(self.counters),
        }

    def merge(self, data):
        """Add a dump() from another process (a traced CLI child)."""
        for name, v in data["spans"].items():
            s = self.stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += v["calls"]
            s[1] += v["total_s"]
            s[2] += v["self_s"]
        for e in data["edges"]:
            t = self.edges.setdefault((e["parent"], e["name"]), [0, 0.0])
            t[0] += e["calls"]
            t[1] += e["total_s"]
        for name, value in data["counters"].items():
            self.counters[name] += value
