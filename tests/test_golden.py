"""Golden outputs: the exact bytes a change to the numerics must not move.

The census digest covers every verdict, time and phase found over the 112
connected graphs on six vertices in both models; the verdict digest covers
every field of every verdict, perfect or not, on every ordered pair of every
connected graph with n <= 6 in both models; the two `check --json`
lines pin the CLI's full report, to the last printed digit, on the uniform
P3 and the 3-cube; the text goldens pin the text reports of `bounds`
(with and without a rate), `spectrum`, `check` on a graph6 input and
`product join`.
"""

import hashlib

import pytest

from pstlab import (census, complete_graph, decide, decompose, hypercube_graph,
                    model_hamiltonian, path_graph, write_records)
from pstlab.cli import EXIT_NO_TRANSFER, EXIT_PERFECT, main
from pstlab.hamiltonians import MODELS

CENSUS_N6_SHA256 = "2ebe9869f36e1b3d6bead0365f64ae7ba65905cefa986ea099e99218f6c3f1c7"
VERDICTS_N6_SHA256 = "c15afff674c363bca916ed067649ae643ea82edbcd8e5238602e4b66b9ee1a2a"

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


def plain(verdict) -> tuple:
    """Every field of a verdict as plain Python values, whose repr reads the
    same under numpy 1 and 2 (where a numpy scalar's repr names its type)."""
    def opt(x, kind):
        return None if x is None else kind(x)
    gaps = verdict.gap_structure
    return (verdict.status, verdict.reason, opt(verdict.t0, float),
            opt(verdict.transfer_phase, complex), tuple(map(float, verdict.eigenphases)),
            gaps and (bool(gaps.commensurable), float(gaps.chi), tuple(map(int, gaps.integers))),
            opt(verdict.r, float), opt(verdict.fidelity_at_t0, float))


def test_verdicts_n6_digest(small_connected_graphs):
    # graph by graph, each model in MODELS order, every ordered pair; one
    # decompose and one decide per matrix.  7,732 verdicts.  Like the
    # goldens below, the digest holds the last bits of one LAPACK build:
    # reasons print eigenvalues and fidelities, and t0 and the phases are
    # compared to the bit
    digest = hashlib.sha256()
    for n in range(2, 7):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for g in small_connected_graphs[n]:
            for model in MODELS:
                for verdict in decide(decompose(model_hamiltonian(g, model)), pairs):
                    digest.update(repr(plain(verdict)).encode())
    assert digest.hexdigest() == VERDICTS_N6_SHA256


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


BOUNDS_P3_RATE_TEXT = (
    "diameter D: 2\n"
    "2d: 4  k-1: 2\n"
    "mohar(alpha=2): 6\n"
    "mohar(alpha=2.71828182846): 6\n"
    "mohar(alpha=4): 6\n"
    "all bounds satisfied: True\n"
    "rate: {'D': 2, 'M': 3, 'l': 0, 'zero_times': [], 'bound_satisfied': True, "
    "'ml_lower_bound': 0.7853981633974483}\n"
)

BOUNDS_K3_NOT_PERFECT_TEXT = (
    "diameter D: 1\n"
    "2d: 4  k-1: 1\n"
    "mohar(alpha=2): 6\n"
    "mohar(alpha=2.71828182846): 6\n"
    "mohar(alpha=4): 6\n"
    "all bounds satisfied: True\n"
    "rate: {'status': 'no-transfer', 'reason': 'weight mismatch at eigenvalue -1'}\n"
)

SPECTRUM_Q3_TEXT = (
    "eigenvalues: -3 -1 1 3\n"
    "multiplicities: 1 3 3 1\n"
    "char poly coefficients (ascending): [9, 0, -28, 0, 30, 0, -12, 0, 1]\n"
    "integral: True\n"
    "integer roots: [-3, -1, -1, -1, 1, 1, 1, 3]\n"
)

CHECK_P4_GRAPH6_TEXT = (
    "status: no-transfer\n"
    "reason: parity obstruction (no commensurable gap structure)\n"
)

JOIN_P3_K3_TEXT = (
    '{"n": 6, "edges": [[0, 1], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [1, 4], [1, 5], '
    '[2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5]], "square_ok": false}\n'
)


@pytest.mark.parametrize("argv, code, expected", [
    (["bounds", "p3.json", "--source", "0", "--target", "2"], EXIT_PERFECT, BOUNDS_P3_RATE_TEXT),
    (["bounds", "k3.json", "--source", "0", "--target", "1"], EXIT_PERFECT,
     BOUNDS_K3_NOT_PERFECT_TEXT),
    (["spectrum", "q3.json"], EXIT_PERFECT, SPECTRUM_Q3_TEXT),
    (["check", "p4.g6", "--source", "0", "--target", "3"], EXIT_NO_TRANSFER, CHECK_P4_GRAPH6_TEXT),
    (["product", "join", "p3.json", "k3.json"], EXIT_PERFECT, JOIN_P3_K3_TEXT),
], ids=["bounds-P3-rate", "bounds-K3-not-perfect", "spectrum-Q3", "check-P4-graph6", "join"])
def test_text_bytes(argv, code, expected, tmp_path, capsys):
    inputs = {"p3.json": path_graph(3).to_json(), "k3.json": complete_graph(3).to_json(),
              "q3.json": hypercube_graph(3).to_json(), "p4.g6": "Ch\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in inputs else a for a in argv]
    assert main(argv) == code
    assert capsys.readouterr().out == expected
