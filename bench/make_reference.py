"""Write the census reference list: every perfect (graph6, model, source, target).

The list comes from a brute-force fidelity scan (oracle.perfect_pairs) over
the connected graphs on 7 vertices; it never calls check_transfer.  The
census-n7 workload compares its perfect records with it.

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import oracle
from pstlab import enumerate_connected_graphs


def main() -> int:
    graphs = list(enumerate_connected_graphs(7))
    lines = [f"# perfect state transfer pairs on the {len(graphs)} connected graphs "
             "with 7 vertices, adjacency and Laplacian models",
             "# made by: PYTHONPATH=src python3 bench/make_reference.py",
             "# graph6 model source target"]
    lines += [" ".join(map(str, key)) for key in oracle.census_keys(graphs)]
    oracle.REFERENCE.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
