import csv
import dataclasses
import inspect
import json
import math

import pytest

from pstlab import Config, check_transfer, encode_graph6, path_graph
from pstlab.cli import (
    EXIT_NO_TRANSFER,
    EXIT_PARSE,
    EXIT_PERFECT,
    EXIT_USAGE,
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

    def test_weighted_json_hamiltonian(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "n": 3,
            "couplings": [[0, 1, 1.0, 0.0], [1, 2, 1.0, 0.0]],
        }))
        code = main(["check", str(path), "--model", "weighted",
                     "--source", "0", "--target", "2"])
        assert code == EXIT_PERFECT

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["check", str(bad), "--source", "0", "--target", "1"])
        assert code == EXIT_PARSE
        assert "error" in capsys.readouterr().err

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

    def test_bad_times(self, p3_file, capsys):
        assert main(["evolve", p3_file, "--source", "0",
                     "--times", "nope"]) == EXIT_USAGE
        assert main(["evolve", p3_file, "--source", "0",
                     "--times", "3:0:10"]) == EXIT_USAGE


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
        # P3's Laplacian spectrum is integral, so the rate report's
        # decomposition is the only one
        code = main(["bounds", p3_file, "--source", "0", "--target", "2", "--json"])
        assert code == 0 and eigh_calls == [1]
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

    def test_custom_alpha(self, p3_file, capsys):
        code = main(["bounds", p3_file, "--alpha", "3.0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["mohar"]) == ["3.0"]


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

    def test_requires_one_input(self, tmp_path, capsys):
        out = str(tmp_path / "o.jsonl")
        assert main(["search", "--out", out]) == EXIT_USAGE
        assert main(["search", "--n", "3", "--graph6-file", "x",
                     "--out", out]) == EXIT_USAGE

    def test_unknown_model(self, tmp_path, capsys):
        assert main(["search", "--n", "3", "--models", "xuv",
                     "--out", str(tmp_path / "o.jsonl")]) == EXIT_USAGE


class TestConfigPlumbing:
    def test_env_override(self, p3_file, capsys, monkeypatch):
        # an absurd grouping tolerance merges every eigenspace, which breaks
        # the eigenspace-proportionality condition
        monkeypatch.setenv("PSTLAB_GROUPING_TOL", "10")
        code = main(["check", p3_file, "--source", "0", "--target", "2"])
        assert code != EXIT_PERFECT

    def test_flag_beats_env(self, p3_file, capsys, monkeypatch):
        monkeypatch.setenv("PSTLAB_GROUPING_TOL", "10")
        code = main(["--grouping-tol", "1e-8",
                     "check", p3_file, "--source", "0", "--target", "2"])
        assert code == EXIT_PERFECT

    def test_defaults_are_check_transfer_defaults(self):
        kwargs = Config().check_kwargs()
        params = inspect.signature(check_transfer).parameters
        assert kwargs == {name: params[name].default for name in kwargs}

    def test_unused_zero_grid_is_gone(self):
        assert "zero_grid" not in {f.name for f in dataclasses.fields(Config)}
        assert Config.from_env({"PSTLAB_T_MAX": "7"}).t_max == 7.0
