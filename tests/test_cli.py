import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pstlab import (
    chain_hamiltonian,
    complete_graph,
    encode_graph6,
    path_graph,
    standard_pst_chain_couplings,
)
from pstlab import cli, search, spectral
from pstlab.cli import (
    EXIT_CANTCREAT,
    EXIT_INTERNAL,
    EXIT_NO_TRANSFER,
    EXIT_PARSE,
    EXIT_PERFECT,
    EXIT_USAGE,
    build_parser,
    main,
)


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    return str(path)


@pytest.fixture()
def k3_g6_file(tmp_path):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    return str(path)


class TestCheck:
    def test_perfect_exit_code(self, p3_file, capsys):
        code = main(["check", p3_file, "--source", "0", "--target", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_PERFECT
        assert "status: perfect" in out

    def test_json_output(self, p3_file, capsys):
        code = main(["check", p3_file, "--source", "0", "--target", "2",
                     "--json"])
        assert code == EXIT_PERFECT
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "perfect"
        assert payload["t0"] == pytest.approx(math.pi / math.sqrt(2))
        assert payload["transfer_phase"] == pytest.approx([-1.0, 0.0], abs=1e-9)
        assert payload["z"] == [1, 2]
        assert payload["r"] == 1
        assert payload["fidelity_at_t0"] >= 1 - 1e-9

    def test_no_transfer_exit_code(self, k3_g6_file, capsys):
        code = main(["check", k3_g6_file, "--source", "0", "--target", "1"])
        assert code == EXIT_NO_TRANSFER
        assert "no-transfer" in capsys.readouterr().out

    def test_weighted_csv_matrix(self, tmp_path, capsys):
        # K2 with coupling i: gauge-equivalent to the real chain
        path = tmp_path / "h.csv"
        path.write_text("0,0,0,1\n0,-1,0,0\n")
        code = main(["check", str(path), "--model", "weighted",
                     "--source", "0", "--target", "1", "--json"])
        assert code == EXIT_PERFECT
        payload = json.loads(capsys.readouterr().out)
        assert payload["t0"] == pytest.approx(math.pi / 2, rel=1e-6)

    def test_csv_matrix_hermitian_to_rounding(self, tmp_path, capsys):
        # D H D^dag for the PST chain on 8 sites: a few ulps from Hermitian
        n = 8
        d = np.exp(1j * np.random.default_rng(2).uniform(0, 2 * math.pi, n))
        h = d[:, None] * chain_hamiltonian(standard_pst_chain_couplings(n)) * d.conj()[None, :]
        assert np.abs(h - h.conj().T).max() > 0
        path = tmp_path / "h.csv"
        path.write_text("\n".join(",".join(f"{x.real!r},{x.imag!r}" for x in row.tolist())
                                   for row in h))
        code = main(["check", str(path), "--model", "weighted",
                     "--source", "0", "--target", str(n - 1)])
        assert code == EXIT_PERFECT

    def test_non_hermitian_csv_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("0,0,1,0,0,0\n5,0,0,0,1,0\n0,0,1,0,0,0\n")
        code = main(["check", str(path), "--model", "weighted",
                     "--source", "0", "--target", "2"])
        assert code == EXIT_PARSE
        assert "not Hermitian" in capsys.readouterr().err

    def test_weighted_json_hamiltonian(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "n": 3,
            "couplings": [[0, 1, 1.0, 0.0], [1, 2, 1.0, 0.0]],
        }))
        code = main(["check", str(path), "--model", "weighted",
                     "--source", "0", "--target", "2"])
        assert code == EXIT_PERFECT

    def test_gauged_path_is_no_transfer(self, tmp_path, capsys):
        # P4 with seeded complex coupling phases: a gauge away from the real P4
        phases = np.exp(2j * math.pi * np.random.default_rng(0).random(3))
        path = tmp_path / "p4-gauge.json"
        path.write_text(json.dumps({
            "n": 4,
            "couplings": [[i, i + 1, z.real, z.imag] for i, z in enumerate(phases)],
        }))
        code = main(["check", str(path), "--model", "weighted",
                     "--source", "0", "--target", "3"])
        assert code == EXIT_NO_TRANSFER
        assert "parity obstruction" in capsys.readouterr().out

    @pytest.mark.parametrize("fields", [[0, 0, 0, 5], {"0": 1}, {"3": 1}],
                             ids=["list-too-long", "string-key", "vertex-3"])
    def test_bad_fields_are_parse_errors(self, tmp_path, capsys, fields):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "n": 3,
            "couplings": [[0, 1, 1.0, 0.0], [1, 2, 1.0, 0.0]],
            "fields": fields,
        }))
        code = main(["check", str(path), "--model", "weighted",
                     "--source", "0", "--target", "2"])
        assert code == EXIT_PARSE
        assert "field vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("model,payload", [
        ("adjacency", {"n": 2.5, "edges": [[0, 1]]}),
        ("adjacency", {"n": 2, "edges": [[0, 1.0]]}),
        ("adjacency", {"n": 3, "edges": [[0, 1.5], [1, 2]]}),
        ("weighted", {"n": 3, "couplings": [[0, 1.7, 1, 0], [1, 2.2, 1, 0]]}),
    ], ids=["n-2.5", "edge-1.0", "edge-1.5", "coupling-1.7"])
    def test_non_integer_labels_are_parse_errors(self, tmp_path, capsys, model, payload):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        code = main(["check", str(path), "--model", model, "--source", "0", "--target", "1"])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert "cannot be interpreted as an integer" in err

    @pytest.mark.parametrize("model,payload", [
        ("adjacency", {"n": 2, "edges": [[False, True]]}),
        ("adjacency", {"n": True, "edges": []}),
        ("weighted", {"n": 2, "couplings": [[False, True, 1, 0]]}),
    ], ids=["edge-false-true", "n-true", "coupling-false-true"])
    def test_bool_labels_are_parse_errors(self, tmp_path, capsys, model, payload):
        # a JSON true or false is not the vertex 1 or 0: K2 written with
        # [false, true] used to answer perfect, exit 0
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        code = main(["check", str(path), "--model", model, "--source", "0", "--target", "1"])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert "'bool' object cannot be interpreted as an integer" in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["check", str(bad), "--source", "0", "--target", "1"])
        assert code == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_zero_vertex_graph6_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("?\n")
        code = main(["check", str(path), "--source", "0", "--target", "1"])
        assert code == EXIT_PARSE

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "nope"), "--source", "0",
                     "--target", "1"])
        assert code == EXIT_PARSE

    def test_usage_error(self, p3_file, capsys):
        assert main(["check", p3_file, "--source", "0"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_vertex_out_of_range(self, p3_file, capsys):
        code = main(["check", p3_file, "--source", "0", "--target", "9"])
        assert code == EXIT_USAGE


class TestEvolve:
    def test_csv_curve(self, p3_file, tmp_path):
        out = str(tmp_path / "curve.csv")
        code = main(["evolve", p3_file, "--source", "0",
                     "--times", "0:3:100", "--out", out])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 300  # 100 times x 3 targets
        arrivals = [r for r in rows if r["target"] == "2"]
        best = max(arrivals, key=lambda r: float(r["magnitude"]))
        assert float(best["magnitude"]) >= 0.999
        assert float(best["time"]) == pytest.approx(math.pi / math.sqrt(2),
                                                    abs=0.05)
        for r in rows:
            mag = math.hypot(float(r["re"]), float(r["im"]))
            assert mag == pytest.approx(float(r["magnitude"]), abs=1e-9)

    def test_stdout(self, p3_file, capsys):
        code = main(["evolve", p3_file, "--source", "0", "--times", "0:1:5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("time,target,re,im,magnitude")
        assert len(lines) == 1 + 15

    @pytest.mark.parametrize("source", ["-1", "3", "7"])
    def test_source_out_of_range(self, p3_file, tmp_path, capsys, source):
        # rejected before any output: no CSV header, no file
        out = tmp_path / "curve.csv"
        assert main(["evolve", p3_file, "--source", source, "--times", "0:1:5"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert main(["evolve", p3_file, "--source", source, "--times", "0:1:5",
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_output_checked_before_the_curve(self, p3_file, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the curve was computed")

        monkeypatch.setattr(cli, "fidelity_curve", unreachable)
        out = tmp_path / "no-such-dir" / "curve.csv"
        assert main(["evolve", p3_file, "--source", "0", "--times", "0:1:5",
                     "--out", str(out)]) == EXIT_CANTCREAT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 2]") and captured.out == ""

    def test_failed_curve_keeps_the_old_output(self, p3_file, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise RuntimeError("the curve failed")

        monkeypatch.setattr(cli, "fidelity_curve", failing)
        out = tmp_path / "curve.csv"
        out.write_bytes(b"old bytes\n")
        assert main(["evolve", p3_file, "--source", "0", "--times", "0:1:5",
                     "--out", str(out)]) == EXIT_INTERNAL
        assert out.read_bytes() == b"old bytes\n"
        assert "the curve failed" in capsys.readouterr().err

    def test_bad_times(self, p3_file, capsys):
        assert main(["evolve", p3_file, "--source", "0",
                     "--times", "nope"]) == EXIT_USAGE
        assert main(["evolve", p3_file, "--source", "0",
                     "--times", "3:0:10"]) == EXIT_USAGE

    @pytest.mark.parametrize("times", ["0:inf:3", "0:nan:3", "nan:1:3", "inf:inf:3"])
    def test_non_finite_times(self, p3_file, capsys, times):
        # rejected before any output: no nan rows, no numpy warnings
        assert main(["evolve", p3_file, "--source", "0", "--times", times]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: need finite start and end")

    def test_negative_start_needs_equals_form(self, p3_file, capsys):
        # argparse reads "-1:2:3" after a space as an option, not a value
        assert main(["evolve", p3_file, "--source", "0", "--times", "-1:2:3"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["evolve", p3_file, "--source", "0", "--times=-1:2:3"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3 * 3  # 3 times x 3 targets
        assert [float(r["time"]) for r in rows[:3]] == [-1.0, 0.5, 2.0]

    def test_closed_stdout_exits_141_quietly(self, p3_file):
        # the reader stops after two lines, as `| head -2` does, while evolve
        # still has about 2 MB of rows to write
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "pstlab.cli", "evolve", p3_file, "--source", "0",
             "--times=0:2000:20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head[0].startswith(b"time,target,re,im,magnitude")
        assert err == b""

    def test_json_is_a_usage_error(self, p3_file, capsys):
        # evolve writes only CSV
        assert main(["evolve", p3_file, "--source", "0", "--times", "0:1:5",
                     "--json"]) == EXIT_USAGE
        assert "--json" in capsys.readouterr().err


class TestSpectrum:
    def test_p3_json(self, p3_file, capsys):
        code = main(["spectrum", p3_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalues"] == pytest.approx(
            [-math.sqrt(2), 0.0, math.sqrt(2)])
        assert payload["multiplicities"] == [1, 1, 1]
        assert payload["char_poly"] == [0, -2, 0, 1]
        assert payload["integral"] is False

    def test_k3_integral(self, k3_g6_file, capsys):
        code = main(["spectrum", k3_g6_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["integral"] is True
        assert payload["integer_roots"] == [-1, -1, 2]

    def test_laplacian_model(self, p3_file, capsys):
        code = main(["spectrum", p3_file, "--model", "laplacian", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalues"] == pytest.approx([0.0, 1.0, 3.0])

    def test_char_poly_computed_once(self, p3_file, capsys, monkeypatch):
        # _char_poly_and_radius is the one place the polynomial and its row-sum
        # radius are computed: integer_char_poly and the root search go through it
        calls = [0]
        char_poly = spectral._char_poly_and_radius

        def counted(*args):
            calls[0] += 1
            return char_poly(*args)

        monkeypatch.setattr(spectral, "_char_poly_and_radius", counted)
        code = main(["spectrum", p3_file, "--model", "laplacian", "--json"])
        assert code == 0 and calls == [1]
        payload = json.loads(capsys.readouterr().out)
        assert payload["char_poly"] == [0, 3, -4, 1]
        assert payload["integer_roots"] == [0, 1, 3]


class TestBounds:
    def test_p3(self, p3_file, capsys):
        code = main(["bounds", p3_file, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["D"] == 2 and payload["k"] == 3
        assert payload["all_satisfied"] is True

    def test_with_rate(self, p3_file, capsys):
        code = main(["bounds", p3_file, "--source", "0", "--target", "2",
                     "--json"])
        assert code == 0
        rate = json.loads(capsys.readouterr().out)["rate"]
        assert (rate["D"], rate["M"], rate["l"]) == (2, 3, 0)
        assert rate["bound_satisfied"] is True

    def test_rate_decomposes_once(self, p3_file, capsys, eigh_calls):
        # one decomposition counts the Laplacian's eigenvalues; one more
        # serves both the decision and the rate report
        code = main(["bounds", p3_file, "--source", "0", "--target", "2", "--json"])
        assert code == 0 and eigh_calls == [2]
        assert json.loads(capsys.readouterr().out)["rate"] == {
            "D": 2, "M": 3, "l": 0, "zero_times": [], "bound_satisfied": True,
            "ml_lower_bound": math.pi / 4,
        }

    def test_rate_on_non_perfect_pair(self, k3_g6_file, capsys):
        code = main(["bounds", k3_g6_file, "--source", "0", "--target", "1",
                     "--json"])
        assert code == 0
        rate = json.loads(capsys.readouterr().out)["rate"]
        assert rate["status"] == "no-transfer"

    @pytest.mark.parametrize("given", [["--source", "0"], ["--target", "2"]])
    def test_source_without_target_is_a_usage_error(self, p3_file, capsys, given):
        assert main(["bounds", p3_file, *given, "--json"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "both --source and --target" in err

    def test_weighted_model_is_a_usage_error(self, p3_file, capsys):
        code = main(["bounds", p3_file, "--model", "weighted",
                     "--source", "0", "--target", "2"])
        assert code == EXIT_USAGE

    def test_default_alphas(self, p3_file, capsys):
        assert main(["bounds", p3_file, "--json"]) == 0
        assert list(json.loads(capsys.readouterr().out)["mohar"]) == [
            "2.0", str(math.e), "4.0"]

    def test_custom_alpha(self, p3_file, capsys):
        code = main(["bounds", p3_file, "--alpha", "3.0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["mohar"]) == ["3.0"]

    @pytest.mark.parametrize("alpha", ["1", "0", "0.5", "-2", "nan", "inf"])
    def test_bad_alpha_is_a_usage_error(self, p3_file, capsys, alpha):
        code = main(["bounds", p3_file, "--alpha", alpha])
        assert code == EXIT_USAGE
        assert "finite and greater than 1" in capsys.readouterr().err


class TestProduct:
    def test_cartesian_k2_k2_is_c4(self, tmp_path, capsys):
        k2 = tmp_path / "k2.json"
        k2.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        code = main(["product", "cartesian", str(k2), str(k2)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4
        assert sorted(map(tuple, payload["edges"])) == [
            (0, 1), (0, 2), (1, 3), (2, 3)]

    def test_complement_single_arg(self, p3_file, capsys):
        code = main(["product", "complement", p3_file])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["edges"] == [[0, 2]]

    def test_join_reports_square_flag(self, tmp_path, capsys):
        k2 = tmp_path / "k2.json"
        k2.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        code = main(["product", "join", str(k2), str(k2)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4
        assert "square_ok" in payload

    def test_missing_second_graph(self, p3_file, capsys):
        assert main(["product", "cartesian", p3_file]) == EXIT_USAGE


class TestSearch:
    def test_n4_deterministic(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["--workers", "1", "search", "--n", "4",
                     "--out", out1]) == 0
        summary = capsys.readouterr().out
        assert "graphs: 6" in summary
        assert main(["--workers", "1", "search", "--n", "4",
                     "--out", out2]) == 0
        assert open(out1).read() == open(out2).read()
        for line in open(out1):
            rec = json.loads(line)
            assert 2 * rec["l"] + rec["D"] <= rec["M"]

    def test_graph6_file_and_csv(self, tmp_path, capsys):
        g6 = tmp_path / "graphs.g6"
        g6.write_text(encode_graph6(path_graph(3)) + "\n")
        out = str(tmp_path / "out.jsonl")
        csv_out = str(tmp_path / "out.csv")
        code = main(["search", "--graph6-file", str(g6),
                     "--models", "adjacency", "--out", out, "--csv", csv_out])
        assert code == 0
        assert len(open(out).read().splitlines()) == 1
        with open(csv_out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2

    def test_missing_graph6_file(self, tmp_path, capsys):
        code = main(["search", "--graph6-file", str(tmp_path / "nope.g6"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_malformed_graph6_line(self, tmp_path, capsys):
        g6 = tmp_path / "graphs.g6"
        g6.write_text(encode_graph6(path_graph(3)) + "\n~~~\n")
        code = main(["search", "--graph6-file", str(g6),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == EXIT_PARSE
        assert "bad graph6 line" in capsys.readouterr().err

    def test_requires_one_input(self, tmp_path, capsys):
        out = str(tmp_path / "o.jsonl")
        assert main(["search", "--out", out]) == EXIT_USAGE
        assert main(["search", "--n", "3", "--graph6-file", "x",
                     "--out", out]) == EXIT_USAGE

    def test_unknown_model(self, tmp_path, capsys):
        assert main(["search", "--n", "3", "--models", "xuv",
                     "--out", str(tmp_path / "o.jsonl")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown model 'xuv'\n"

    def test_repeated_model(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        assert main(["search", "--n", "3", "--models", "adjacency,adjacency",
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: repeated model 'adjacency'\n"
        assert not out.exists()

    @pytest.mark.parametrize("models, message", [
        ("xuv", "unknown model 'xuv'"),
        ("adjacency,adjacency", "repeated model 'adjacency'"),
    ])
    @pytest.mark.parametrize("corpus", ["n", "graph6-file"])
    def test_models_checked_before_the_corpus(self, tmp_path, capsys, monkeypatch,
                                              corpus, models, message):
        def unreachable(*args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "enumerate_connected_graphs", unreachable)
        monkeypatch.setattr(cli, "read_graph6_stream", unreachable)
        g6 = tmp_path / "graphs.g6"
        g6.write_text(encode_graph6(path_graph(3)) + "\n")
        source = ["--n", "7"] if corpus == "n" else ["--graph6-file", str(g6)]
        out = tmp_path / "o.jsonl"
        assert main(["search", *source, "--models", models, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_failing_graph_is_printed_once(self, tmp_path, capsys, monkeypatch):
        # P3 has a record, so its record fields are computed, and they raise
        p3 = encode_graph6(path_graph(3))
        coloring = search.bipartite_coloring

        def failing(g):
            if encode_graph6(g) == p3:
                raise RuntimeError("no coloring on purpose")
            return coloring(g)

        monkeypatch.setattr(search, "bipartite_coloring", failing)
        g6 = tmp_path / "graphs.g6"
        g6.write_text(f"{encode_graph6(complete_graph(3))}\n{p3}\n")
        code = main(["--workers", "1", "search", "--graph6-file", str(g6),
                     "--out", str(tmp_path / "o.jsonl")])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.err == f"census failed on {p3}: no coloring on purpose\n"
        assert "failures: 1" in captured.out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_is_a_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "o.jsonl"
        assert main(["--workers", workers, "search", "--n", "3",
                     "--out", str(out)]) == EXIT_USAGE
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corpus", ["n", "graph6-file"])
    def test_workers_checked_before_the_corpus(self, tmp_path, capsys, monkeypatch, corpus):
        def unreachable(*args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "enumerate_connected_graphs", unreachable)
        monkeypatch.setattr(cli, "read_graph6_stream", unreachable)
        g6 = tmp_path / "graphs.g6"
        g6.write_text(encode_graph6(path_graph(3)) + "\n")
        source = ["--n", "7"] if corpus == "n" else ["--graph6-file", str(g6)]
        out = tmp_path / "o.jsonl"
        assert main(["--workers", "0", "search", *source, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: workers must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["--out", "--csv"])
    @pytest.mark.parametrize("corpus", ["n", "graph6-file"])
    def test_outputs_checked_before_the_corpus(self, tmp_path, capsys, monkeypatch, corpus, bad):
        def unreachable(*args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "enumerate_connected_graphs", unreachable)
        monkeypatch.setattr(cli, "read_graph6_stream", unreachable)
        g6 = tmp_path / "graphs.g6"
        g6.write_text(encode_graph6(path_graph(3)) + "\n")
        source = ["--n", "7"] if corpus == "n" else ["--graph6-file", str(g6)]
        missing = tmp_path / "no-such-dir" / "o"
        outputs = {"--out": str(tmp_path / "o.jsonl"), "--csv": str(tmp_path / "o.csv"),
                   bad: str(missing)}
        argv = ["search", *source, *(x for item in outputs.items() for x in item)]
        assert main(argv) == EXIT_CANTCREAT
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2]") and str(missing) in err


def test_cold_import_loads_no_extra_stdlib():
    # what numpy does not load already, and the CLI has no use for at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, numpy; before = set(sys.modules); import pstlab.cli; "
            "print(sorted({'logging', 'fractions', 'decimal', 'concurrent.futures'}"
            " & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


class TestGlobalOptions:
    def test_workers_is_the_only_option(self):
        help_text = build_parser().format_help()
        assert set(re.findall(r"--[a-z][a-z-]*", help_text)) == {"--help", "--workers"}

    def test_tolerance_flags_are_usage_errors(self, p3_file, capsys):
        code = main(["--grouping-tol", "1e-8",
                     "check", p3_file, "--source", "0", "--target", "2"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
