import itertools
import json
import math

import pytest

from pstlab import (
    CensusResult,
    Graph,
    SearchRecord,
    MalformedRecord,
    NTooLarge,
    canonical_form,
    census,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_connected_graphs,
    parse_graph6,
    path_graph,
    read_graph6_stream,
    read_records,
    write_records,
    write_records_csv,
)
from pstlab import search, transfer
from pstlab.search import _CHUNK
from pstlab.transfer import NO_TRANSFER, PERFECT

class RaisingGraph(Graph):
    """A graph whose census analysis raises (module level, so it pickles)."""

    def is_regular(self):
        raise RuntimeError("analysis failed on purpose")


class RaisingMatrixGraph(Graph):
    """A graph whose adjacency matrix cannot be built, which fails the
    stacked matrices of its whole chunk."""

    def adjacency(self):
        raise RuntimeError("no matrix on purpose")


def graph_by_graph(graphs, models=("adjacency", "laplacian")) -> CensusResult:
    """The census of each graph alone, merged as census merges its chunks."""
    results = [census([g], models=models, workers=1) for g in graphs]
    return CensusResult(
        sorted((r for res in results for r in res.records), key=SearchRecord.sort_key),
        sorted(u for res in results for u in res.undecided),
        [f for res in results for f in res.failures])


@pytest.fixture
def pool_tasks(monkeypatch):
    """The size of each task handed to a census process pool in the test."""
    from concurrent.futures import ProcessPoolExecutor

    sizes = []
    pool_map = ProcessPoolExecutor.map

    def spied(self, fn, chunks, *rest, **kwargs):
        chunks = list(chunks)
        sizes.extend(map(len, chunks))
        return pool_map(self, fn, chunks, *rest, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", spied)
    return sizes


def census_bytes(result: CensusResult, path) -> bytes:
    write_records(result.records, path)
    return path.read_bytes()


# number of connected graphs on n unlabeled vertices, n = 1..7
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def brute_force_classes(n):
    """Connected isomorphism classes by direct permutation filtering."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    classes = []

    def edge_key(edges):
        return frozenset(edges)

    seen = set()
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1)
        key = edge_key(edges)
        if key in seen:
            continue
        orbit = set()
        for p in itertools.permutations(range(n)):
            orbit.add(edge_key(tuple(sorted((p[u], p[v]))) for u, v in edges))
        seen.update(orbit)
        g = Graph(n, edges)
        if g.is_connected():
            classes.append(g)
    return classes


class TestEnumeration:
    @pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == CONNECTED_COUNTS[n]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_oracle(self, n):
        ours = {encode_graph6(g) for g in enumerate_connected_graphs(n)}
        oracle = {encode_graph6(canonical_form(g)) for g in brute_force_classes(n)}
        assert ours == oracle

    def test_all_connected_and_canonical(self):
        for n in range(1, 6):
            graphs = list(enumerate_connected_graphs(n))
            assert len({encode_graph6(g) for g in graphs}) == len(graphs)
            for g in graphs:
                assert g.is_connected()
                assert canonical_form(g) == g

    def test_rejects_large_n(self):
        with pytest.raises(NTooLarge):
            list(enumerate_connected_graphs(8))
        with pytest.raises(NTooLarge):
            list(enumerate_connected_graphs(0))


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        import random

        rng = random.Random(11)
        for g in itertools.islice(enumerate_connected_graphs(5), 10):
            for _ in range(5):
                p = list(range(g.n))
                rng.shuffle(p)
                relabeled = Graph(
                    g.n,
                    frozenset(tuple(sorted((p[u], p[v]))) for u, v in g.edges),
                )
                assert canonical_form(relabeled) == canonical_form(g)

    def test_non_isomorphic_distinct(self):
        assert canonical_form(path_graph(4)) != canonical_form(cycle_graph(4))

    def test_rejects_large_n(self):
        # the search tries all n! relabelings, from a table of n! C(n, 2)
        # entries: 9 MiB at n = 8, 1.2 GiB at n = 10
        with pytest.raises(NTooLarge, match="1 <= n <= 7"):
            canonical_form(path_graph(8))


class TestCensus:
    def test_k2_both_models(self):
        result = census([complete_graph(2)], workers=1)
        assert isinstance(result, CensusResult)
        assert not result.failures and not result.undecided
        assert [(r.model, r.source, r.target) for r in result.records] == [
            ("adjacency", 0, 1),
            ("laplacian", 0, 1),
        ]
        for r in result.records:
            assert r.t0 == pytest.approx(math.pi / 2)
            assert r.D == 1 and r.M == 2 and r.l == 0
            assert r.integral_spectrum and r.bipartite and r.regular

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            census([complete_graph(2)], workers=workers)

    def test_k3_no_records(self):
        result = census([complete_graph(3)], workers=1)
        assert result.records == [] and result.undecided == []

    def test_p3_adjacency_pair(self):
        result = census([path_graph(3)], models=("adjacency",), workers=1)
        assert [(r.source, r.target) for r in result.records] == [(0, 2)]
        r = result.records[0]
        assert r.t0 == pytest.approx(math.pi / math.sqrt(2))
        assert r.transfer_phase == pytest.approx(-1.0 + 0j, abs=1e-9)
        assert not r.integral_spectrum
        assert 2 * r.l + r.D <= r.M

    def test_deterministic_and_sorted(self):
        graphs = list(enumerate_connected_graphs(4))
        a = census(graphs, workers=1)
        b = census(graphs, workers=1)
        assert a.records == b.records
        keys = [r.sort_key() for r in a.records]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self, monkeypatch, pool_tasks):
        graphs = list(enumerate_connected_graphs(5))
        monkeypatch.setattr(search, "_CHUNK", 8)  # three chunks of the 21 graphs
        serial = census(graphs, workers=1)
        assert pool_tasks == []
        parallel = census(graphs, workers=2)
        assert pool_tasks == [8, 8, 5]
        assert serial == parallel

    def test_pool_takes_the_serial_chunks(self, small_connected_graphs, monkeypatch,
                                          pool_tasks):
        # 560 graphs, more than four tasks of _CHUNK graphs for each of two workers
        graphs = small_connected_graphs[6] * 5
        chunk = search._census_chunk
        serial = []

        def counted(part, models):
            serial.append(len(part))
            return chunk(part, models)

        with monkeypatch.context() as patch:
            patch.setattr(search, "_census_chunk", counted)
            expected = census(graphs, workers=1)
        parallel = census(graphs, workers=2)
        assert serial == pool_tasks == [_CHUNK] * 8 + [560 - 8 * _CHUNK]
        assert parallel == expected

    @pytest.mark.parametrize("models, message", [
        (("adjacency", "bogus"), "unknown model 'bogus'"),
        (("adjacency", "adjacency"), "repeated model 'adjacency'"),
    ])
    def test_bad_models_raise_before_any_graph(self, models, message):
        def untouched():
            raise AssertionError("census read a graph")
            yield

        with pytest.raises(ValueError, match=f"^{message}$"):
            census(untouched(), models=models, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_graph_is_reported_not_fatal(self, workers, monkeypatch, pool_tasks):
        good = list(enumerate_connected_graphs(5))
        expected = census(good, workers=1).records
        monkeypatch.setattr(search, "_CHUNK", 8)
        for bad, message in ((RaisingGraph(4, cycle_graph(4).edges), "analysis failed on purpose"),
                             (RaisingMatrixGraph(5, path_graph(5).edges), "no matrix on purpose")):
            # in the middle of the second of three chunks
            result = census(good[:10] + [bad] + good[10:], workers=workers)
            assert result.failures == [(encode_graph6(bad), message)]
            assert result.records == expected
        assert pool_tasks == ([] if workers == 1 else [8, 8, 6] * 2)

    def test_one_eigh_call_covers_both_models(self, eigh_calls):
        # K_{2,5}: its two-vertex side is the one perfect pair at n = 7
        result = census([parse_graph6("F?B~o")], workers=1)
        assert [(r.model, r.source, r.target) for r in result.records] == [
            ("adjacency", 5, 6)]
        assert eigh_calls == [1]

    def test_one_eigh_call_per_serial_chunk(self, eigh_calls, small_connected_graphs,
                                            connected_graphs_7):
        chunks = 0
        for graphs in (small_connected_graphs[6], connected_graphs_7):
            census(graphs, workers=1)
            chunks += -(-len(graphs) // _CHUNK)
            assert eigh_calls == [chunks]

    def test_incommensurable_pairs_get_no_verdict(self, monkeypatch, connected_graphs_7):
        # of the 2,415 pairs a < b that pass the weight test at n = 7, the
        # 2,265 whose supported gaps are incommensurable are settled without
        # a phase-stage verdict; the other 150 get one
        phase_verdict, statuses = transfer._phase_verdict, []

        def counted(*args):
            verdict = phase_verdict(*args)
            statuses.append((verdict.status, verdict.reason))
            return verdict

        monkeypatch.setattr(transfer, "_phase_verdict", counted)
        assert len(census(connected_graphs_7, workers=1).records) == 1
        assert sorted(set(statuses)) == [(NO_TRANSFER, "parity obstruction"), (PERFECT, "")]
        assert statuses.count((PERFECT, "")) == 1 and len(statuses) == 150

    @pytest.mark.parametrize("size", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunks_change_no_byte(self, size, tmp_path):
        graphs = list(enumerate_connected_graphs(6))[-size:]
        chunked = census(graphs, workers=1)
        alone = graph_by_graph(graphs)
        assert chunked.records
        assert census_bytes(chunked, tmp_path / "a") == census_bytes(alone, tmp_path / "b")
        assert (chunked.undecided, chunked.failures) == (alone.undecided, alone.failures)

    def test_mixed_sizes_in_a_stream(self, tmp_path):
        # the sizes interleave, so every chunk holds graphs of several sizes
        by_size = [list(enumerate_connected_graphs(n)) for n in range(1, 7)]
        graphs = [g for row in itertools.zip_longest(*by_size) for g in row if g is not None]
        lines = [encode_graph6(g) for g in graphs]
        for models in (("adjacency", "laplacian"), ("laplacian",)):
            streamed = census(read_graph6_stream(lines), models=models, workers=1)
            alone = graph_by_graph(graphs, models)
            assert census_bytes(streamed, tmp_path / "a") == census_bytes(alone, tmp_path / "b")
            assert (streamed.undecided, streamed.failures) == (alone.undecided, alone.failures)
        assert census(graphs, models=(), workers=1) == CensusResult([], [], [])

    def test_record_fields_only_for_records(self, monkeypatch):
        import pstlab.search

        calls = {"is_integral_spectrum": 0, "bipartite_coloring": 0}
        for name in calls:
            original = getattr(pstlab.search, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(pstlab.search, name, counted)
        records = census(enumerate_connected_graphs(5), workers=1).records
        assert records
        assert calls == {"is_integral_spectrum": len(records), "bipartite_coloring": len(records)}

    def test_rate_bound_holds_everywhere(self):
        graphs = list(enumerate_connected_graphs(5))
        for r in census(graphs, workers=1).records:
            assert 2 * r.l + r.D <= r.M


@pytest.fixture(scope="module")
def sample_records():
    graphs = list(enumerate_connected_graphs(4))
    result = census(graphs, workers=1)
    assert result.records
    return result.records


class TestPersistence:
    def test_jsonl_round_trip(self, sample_records, tmp_path):
        path = tmp_path / "census.jsonl"
        write_records(sample_records, path)
        assert read_records(path) == sample_records

    def test_jsonl_lines_are_json(self, sample_records, tmp_path):
        path = tmp_path / "census.jsonl"
        write_records(sample_records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(sample_records)
        first = json.loads(lines[0])
        assert first["graph6"] == sample_records[0].graph6
        assert first["transfer_phase"] == [
            sample_records[0].transfer_phase.real,
            sample_records[0].transfer_phase.imag,
        ]

    def test_blank_lines_skipped(self, sample_records, tmp_path):
        path = tmp_path / "census.jsonl"
        write_records(sample_records, path)
        path.write_text(path.read_text() + "\n\n")
        assert read_records(path) == sample_records

    def test_malformed_line_number(self, sample_records, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_records(sample_records[:1], path)
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        with pytest.raises(MalformedRecord, match="line 2"):
            read_records(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"graph6": "A_"}\n')
        with pytest.raises(MalformedRecord, match="line 1"):
            read_records(path)

    def test_csv_export(self, sample_records, tmp_path):
        import csv

        path = tmp_path / "census.csv"
        write_records_csv(sample_records, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:7] == [
            "graph6", "n", "model", "source", "target", "t0", "phase_re",
        ]
        assert "phase_im" in rows[0]
        assert len(rows) == len(sample_records) + 1
        assert rows[1][0] == sample_records[0].graph6


class TestGraph6Stream:
    def test_round_trip(self):
        graphs = list(enumerate_connected_graphs(4))
        lines = [encode_graph6(g) for g in graphs] + ["", "  "]
        assert list(read_graph6_stream(lines)) == graphs

    def test_census_on_stream(self):
        lines = [encode_graph6(path_graph(3))]
        result = census(read_graph6_stream(lines), models=("adjacency",),
                        workers=1)
        assert len(result.records) == 1
