"""One round of the benchmark: a single `run` command in a fresh interpreter.

    python3 bench/round.py SPANS_PATH|- RUN_ARGS...

Imports the package, then times ``benchpursuit.cli.main(RUN_ARGS)``. With a
spans path the round is traced (see tracing.py) and its spans are written
there. The last line of standard output is one JSON object with the exit
code, the wall time, this process's peak resident memory and, when traced,
the per-layer summary. Each round starts cold, as a user's command does: a
second `run` in the same process was 15-20% faster.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import benchpursuit.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, run_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer() if spans_path != "-" else None
    if tracer:
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = benchpursuit.cli.main(run_args)
            elapsed = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "code": code,
        "run_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        with open(spans_path, "w", encoding="utf-8") as fh:
            tracer.dump(fh)
        result["summary"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
