"""Golden outputs: the exact bytes a change to the numerics must not move.

The census digest covers every verdict, time and phase found over the 112
connected graphs on six vertices in both models; the two `check --json`
lines pin the CLI's full report, to the last printed digit, on the uniform
P3 and the 3-cube.
"""

import hashlib

import pytest

from pstlab import census, hypercube_graph, path_graph, write_records
from pstlab.cli import EXIT_PERFECT, main

CENSUS_N6_SHA256 = "2ebe9869f36e1b3d6bead0365f64ae7ba65905cefa986ea099e99218f6c3f1c7"

P3_CHECK_JSON = (
    '{"chi": 1.414213562373095, "eigenphases": [0.0, 3.141592653589793, 0.0], '
    '"fidelity_at_t0": 0.9999999999999996, "r": 1, "reason": "", "status": "perfect", '
    '"t0": 2.221441469079183, "transfer_phase": [-1.0, -6.74377666711018e-18], "z": [1, 2]}'
)

Q3_CHECK_JSON = (
    '{"chi": 2.0000000000000004, "eigenphases": [3.141592653589793, 0.0, '
    '3.141592653589793, 0.0], "fidelity_at_t0": 1.0000000000000002, "r": 1, '
    '"reason": "", "status": "perfect", "t0": 1.5707963267948961, '
    '"transfer_phase": [2.775557561562897e-16, 1.0], "z": [1, 2, 3]}'
)


def test_census_n6_digest(small_connected_graphs, tmp_path):
    out = tmp_path / "census6.jsonl"
    write_records(census(small_connected_graphs[6], workers=1).records, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_N6_SHA256


@pytest.mark.parametrize("graph, target, expected", [
    (path_graph(3), 2, P3_CHECK_JSON),
    (hypercube_graph(3), 7, Q3_CHECK_JSON),
], ids=["P3", "Q3"])
def test_check_json_bytes(graph, target, expected, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(graph.to_json())
    code = main(["check", str(path), "--source", "0", "--target", str(target), "--json"])
    assert code == EXIT_PERFECT
    assert capsys.readouterr().out == expected + "\n"
