"""Exhaustive PST census over small graphs.

Connected graphs up to 7 vertices are enumerated one representative per
isomorphism class (canonical form: lexicographically minimal upper-triangle
bitstring over all vertex permutations).  Larger corpora are ingested from
graph6 streams.  The census decides its graphs in chunks: the matrices of
both models of every graph of one size in a chunk go to one eigh call and
all their pairs to one pass of decide's decision path, which settles the
pairs failing the weight test, and those with incommensurable gaps, as
arrays.  The serial census and the process pool take the same chunks.  A
graph whose analysis raises is reported in the census's failures and does
not stop it.  Census results persist as JSON Lines, one record per (graph,
model, pair) with perfect transfer, in an order that does not depend on the
chunks."""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .graphs import Graph, bipartite_coloring, distance, encode_graph6, parse_graph6
from .hamiltonians import MODELS, _model_matrix
from .limits import autocorrelation_zeros
from .spectral import _decompose_stack, is_integral_spectrum
from .transfer import NO_TRANSFER, UNDECIDED, _decide

MAX_ENUMERATION_N = 7


class NTooLarge(ValueError):
    pass


class MalformedRecord(ValueError):
    pass


# -- canonical forms and enumeration ------------------------------------------


def _pairs(n: int) -> list:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@lru_cache(maxsize=None)
def _pair_array(n: int) -> np.ndarray:
    """_pairs(n) as a read-only (pairs x 2) int64 array of valid pairs a < b."""
    array = np.array(_pairs(n), dtype=np.int64).reshape(-1, 2)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    """For every permutation p: the pair-index image of each pair under p."""
    pairs = _pairs(n)
    index = {e: i for i, e in enumerate(pairs)}
    rows = []
    for p in itertools.permutations(range(n)):
        rows.append([index[tuple(sorted((p[u], p[v])))] for u, v in pairs])
    return np.array(rows, dtype=np.int64)


def _canonical_mask(mask: int, n: int) -> int:
    """Lexicographically minimal bitstring over all vertex relabelings.

    Bit i of the mask corresponds to pair i of _pairs(n); bit order in the
    lexicographic comparison is pair order (first pair most significant).
    """
    npairs = n * (n - 1) // 2
    bits = np.array([(mask >> (npairs - 1 - i)) & 1 for i in range(npairs)],
                    dtype=np.uint64)
    table = _perm_table(n)
    weights = (np.uint64(1) << np.arange(npairs - 1, -1, -1, dtype=np.uint64))
    codes = bits[table] @ weights
    return int(codes.min())


def _mask_to_graph(mask: int, n: int) -> Graph:
    npairs = n * (n - 1) // 2
    pairs = _pairs(n)
    edges = frozenset(
        pairs[i] for i in range(npairs) if (mask >> (npairs - 1 - i)) & 1
    )
    return Graph(n, edges)


def _graph_to_mask(g: Graph) -> int:
    npairs = g.n * (g.n - 1) // 2
    index = {e: i for i, e in enumerate(_pairs(g.n))}
    mask = 0
    for e in g.edges:
        mask |= 1 << (npairs - 1 - index[e])
    return mask


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return _mask_to_graph(_canonical_mask(_graph_to_mask(g), g.n), g.n)


def _all_graph_classes(n: int) -> list:
    """Canonical masks of all (not necessarily connected) graphs, by augmentation."""
    level = [0]  # the single graph on one vertex
    for m in range(2, n + 1):
        pairs_prev = _pairs(m - 1)
        pairs_cur = _pairs(m)
        index_cur = {e: i for i, e in enumerate(pairs_cur)}
        np_prev = len(pairs_prev)
        np_cur = len(pairs_cur)
        # image of each old pair index in the new indexing
        shift = [index_cur[e] for e in pairs_prev]
        seen = set()
        for mask in level:
            base = 0
            for i in range(np_prev):
                if (mask >> (np_prev - 1 - i)) & 1:
                    base |= 1 << (np_cur - 1 - shift[i])
            new_pair_bits = [index_cur[(u, m - 1)] for u in range(m - 1)]
            for nbrs in range(1 << (m - 1)):
                cand = base
                for u in range(m - 1):
                    if (nbrs >> u) & 1:
                        cand |= 1 << (np_cur - 1 - new_pair_bits[u])
                seen.add(_canonical_mask(cand, m))
        level = sorted(seen)
    return level


def enumerate_connected_graphs(n: int):
    """One canonical representative per connected isomorphism class, n <= 7."""
    if not (1 <= n <= MAX_ENUMERATION_N):
        raise NTooLarge(
            f"built-in enumeration covers 1 <= n <= {MAX_ENUMERATION_N}; "
            "ingest a graph6 file for larger corpora"
        )
    for mask in _all_graph_classes(n):
        g = _mask_to_graph(mask, n)
        if g.is_connected():
            yield g


def read_graph6_stream(lines):
    """Graphs from an iterable of graph6 lines (blank lines skipped)."""
    for line in lines:
        line = line.strip()
        if line:
            yield parse_graph6(line)


# -- census ---------------------------------------------------------------------


@dataclass(frozen=True)
class SearchRecord:
    graph6: str
    n: int
    model: str  # "adjacency" | "laplacian"
    source: int
    target: int
    t0: float
    transfer_phase: complex
    D: int
    M: int
    l: int
    integral_spectrum: bool
    bipartite: bool
    regular: bool
    max_degree: int

    def sort_key(self):
        return (self.graph6, self.model, self.source, self.target)


@dataclass
class CensusResult:
    records: list
    undecided: list  # (graph6, model, source, target, reason)
    failures: list  # (graph6, error message)


_CHUNK = 64  # graphs the census decides in one pass, serially or as one pool task


def _analyze_chunk(graphs, models) -> tuple:
    """Records and undecided pairs of a list of graphs, in one pass per size.

    Each graph's adjacency matrix is built once and each model's matrix from
    it.  The (model, graph) matrices of a size are symmetric integer
    matrices by construction: one eigh call decomposes them, unvalidated, as
    one stack, and decide's core tests every pair a < b on all of them.
    Only the pairs that neither the weight test nor their gaps settle get a
    verdict, and only a graph with a record or an undecided pair gets its
    graph6 label and the fields that only a record reads.
    """
    records, undecided = [], []
    if not models:
        return records, undecided
    by_size = {}
    for g in graphs:
        by_size.setdefault(g.n, []).append(g)
    for n, group in by_size.items():
        adjacency = np.array([g.adjacency() for g in group])
        hams = np.concatenate([_model_matrix(adjacency, model) for model in models])
        stack = _decompose_stack(hams, True, True)
        labels = [None] * len(group)  # graph6 of each graph, made on first use
        open_pairs, verdict_of = _decide(stack, _pair_array(n))
        for i, p in open_pairs:
            dec = stack._matrix(i)
            verdict = verdict_of(i, p, dec)
            if verdict.status == NO_TRANSFER:
                continue
            model, j = models[i // len(group)], i % len(group)
            g, (a, b) = group[j], _pair_array(n)[p].tolist()
            if labels[j] is None:
                labels[j] = encode_graph6(g)
            if verdict.status == UNDECIDED:
                undecided.append((labels[j], model, a, b, verdict.reason))
                continue
            records.append(SearchRecord(
                graph6=labels[j],
                n=n,
                model=model,
                source=a,
                target=b,
                t0=verdict.t0,
                transfer_phase=verdict.transfer_phase,
                D=distance(g, a, b),
                M=dec.num_eigenspaces,
                l=len(autocorrelation_zeros(dec, a, verdict.t0)),
                integral_spectrum=is_integral_spectrum(hams[i])[0],
                bipartite=bipartite_coloring(g).valid,
                regular=g.is_regular(),
                max_degree=g.max_degree(),
            ))
    return records, undecided


def _census_chunk(graphs, models) -> tuple:
    """(records, undecided, failures) of a list of graphs; failures holds
    (graph6, message) for each graph whose analysis raised.  A chunk that
    raises is analysed again graph by graph, so each failure is its own
    graph's and one bad graph does not abort the census on either the
    serial or the parallel path."""
    try:
        return (*_analyze_chunk(graphs, models), [])
    except Exception as exc:  # noqa: BLE001 - stream must not abort
        if len(graphs) == 1:
            return [], [], [(encode_graph6(graphs[0]), str(exc))]
    records, undecided, failures = [], [], []
    for g in graphs:
        recs, und, fail = _census_chunk([g], models)
        records += recs
        undecided += und
        failures += fail
    return records, undecided, failures


def _check_models(models) -> tuple:
    """models as a tuple; ValueError for a model not in MODELS or named twice."""
    models = tuple(models)
    for i, model in enumerate(models):
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if model in models[:i]:
            raise ValueError(f"repeated model {model!r}")
    return models


def _check_workers(workers) -> int:
    """workers, or the CPU count when it is None; ValueError below 1."""
    workers = (os.cpu_count() or 1) if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def census(graphs, models=MODELS, workers: int = None) -> CensusResult:
    """Run the transfer decision over every (graph, model, vertex pair).

    Graphs are decided in chunks of at most _CHUNK graphs, each in one pass
    per size; with workers > 1 and more than one chunk, a process pool takes
    the chunks as its tasks.  A graph whose analysis raises is skipped and
    reported once, as (graph6, message) in the result's failures.  The
    record list is stably sorted by (graph6, model, source, target) so
    repeated runs are byte-identical when serialized, whatever the worker
    count.  Raises ValueError, before it analyses any graph, for a model
    not named in MODELS, a model named twice, or workers below 1; workers
    defaults to the CPU count.
    """
    models = _check_models(models)
    workers = _check_workers(workers)
    graphs = list(graphs)
    chunks = [graphs[i:i + _CHUNK] for i in range(0, len(graphs), _CHUNK)]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            outputs = list(pool.map(_census_chunk, chunks, itertools.repeat(models)))
    else:
        outputs = map(_census_chunk, chunks, itertools.repeat(models))
    result = CensusResult([], [], [])
    for recs, und, failures in outputs:
        result.records.extend(recs)
        result.undecided.extend(und)
        result.failures.extend(failures)
    result.records.sort(key=SearchRecord.sort_key)
    result.undecided.sort()
    return result


# -- persistence -------------------------------------------------------------------

_RECORD_FIELDS = tuple(f.name for f in fields(SearchRecord))


def record_to_dict(r: SearchRecord) -> dict:
    d = asdict(r)
    d["transfer_phase"] = [r.transfer_phase.real, r.transfer_phase.imag]
    return d


def record_from_dict(d: dict) -> SearchRecord:
    missing = [f for f in _RECORD_FIELDS if f not in d]
    if missing:
        raise MalformedRecord(f"missing fields: {missing}")
    phase = d["transfer_phase"]
    return SearchRecord(**{**{k: d[k] for k in _RECORD_FIELDS},
                           "transfer_phase": complex(phase[0], phase[1])})


def write_records(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(record_to_dict(r), sort_keys=True))
            fh.write("\n")


def read_records(path) -> list:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except (json.JSONDecodeError, MalformedRecord, TypeError, KeyError,
                    IndexError) as exc:
                raise MalformedRecord(f"line {lineno}: {exc}") from exc
    return records


def write_records_csv(records, path):
    """Spreadsheet export; the complex phase becomes two columns."""
    i = _RECORD_FIELDS.index("transfer_phase")
    columns = [*_RECORD_FIELDS[:i], "phase_re", "phase_im", *_RECORD_FIELDS[i + 1:]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in records:
            d = record_to_dict(r)
            d["phase_re"], d["phase_im"] = d.pop("transfer_phase")
            writer.writerow([d[f] for f in columns])
