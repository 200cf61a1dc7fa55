"""Run `pstlab.cli.main` in this process under the benchmark's tracer.

    python3 bench/cli_child.py SPANS.json <pstlab cli arguments...>

The traced cli-cold run starts one of these per operation in place of
`python -m pstlab.cli`; the spans and the time of `main` go to SPANS.json.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import pstlab.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return pstlab.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps({**tracer.dump(), "main_s": main_s}))


if __name__ == "__main__":
    raise SystemExit(main())
