"""Benchmark of the `benchpursuit run` command on three generated workloads.

    python3 bench/run.py --workload randu-anneal --seed 1 --seconds 10 --trace 0

Set-up generates the workload's input CSV from ``--seed`` in a fresh
interpreter; it is timed eleven times and the median is ``setup_s``. The
measured part runs rounds until ``--seconds`` have passed (at least one): a
round is one whole `run` command, driven through ``benchpursuit.cli.main``
in a fresh interpreter (round.py). Every run then checks the outputs against
computations made apart from the program (checks.py) and prints, as its last
line, one JSON object: ``correct``, ``attempted`` and ``failed`` (`run`
commands, and those that exited non-zero) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: setup_s, run_s
(median wall time of one `run`), peak_rss_mb (peak resident memory of the
round's process) and best_index (highest refined index among the solutions).
With ``--trace 1`` one untraced round is followed by traced rounds; the
metrics are per layer (tracing.py) plus the tracing overhead, and each
traced round's spans are written to ``spans-<round>.jsonl``.

Outputs go under ``runs/bench/<workload>-s<seed>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import benchpursuit, workloads; "
    "workloads.make_input(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def _setup(name: str, seed: int, input_csv: Path) -> float:
    """Median wall time of interpreter start, import and input generation."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(BENCH), name, str(seed),
            str(input_csv)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _round(argv: list[str], spans: Path | None) -> dict:
    """One `run` command in a fresh interpreter (see round.py)."""
    cmd = [sys.executable, str(BENCH / "round.py"), str(spans) if spans else "-", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_layer(names: list[str], summaries: list[dict], report: dict, run_s: float,
               traced_s: list[float], report_bytes: int) -> dict[str, float]:
    import numpy as np

    def med(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in summaries)

    out = {"sobol.constructions": med("sobol.SobolStream.calls")}
    for fn in ("index", "refine_index"):
        calls = med(f"projection_index.{fn}.calls")
        out[f"projection_index.{fn}.ms_per_call"] = (
            1000.0 * med(f"projection_index.{fn}.total_s") / calls if calls else 0.0)
    sols = report["solutions"]
    search = np.array([s["search_index"]["value"] for s in sols])
    refined = np.array([s["refined_index"]["value"] for s in sols])
    out["projection_index.search_bias"] = float((search - refined).mean())
    out["optimize.rank_agreement"] = (
        float(np.corrcoef(np.argsort(np.argsort(search)), np.argsort(np.argsort(refined)))[0, 1])
        if len(sols) > 1 else 1.0)
    out["pipeline.report.bytes"] = float(report_bytes)
    out["trace.overhead_s"] = statistics.median(traced_s) - run_s
    return {name: out[name] if name in out else med(name) for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "benchpursuit" / "__init__.py").is_file() or not (
            ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no src/benchpursuit or tests/oracles.py", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    run_dir = ROOT / "runs" / "bench" / f"{work.name}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True)
    input_csv = run_dir / "input.csv"

    setup_s = _setup(work.name, args.seed, input_csv)

    import checks

    cli_argv = work.argv(args.seed, str(input_csv), str(out_dir))
    plain, traced, digests = [], [], []
    started = time.perf_counter()
    # Rounds run until --seconds have passed; a traced run starts with one
    # untraced round, the baseline for the tracing overhead.
    while not plain or time.perf_counter() - started < args.seconds or (args.trace and not traced):
        spans = None
        if args.trace and plain:
            spans = run_dir / f"spans-{len(plain) + len(traced)}.jsonl"
        (traced if spans else plain).append(_round(cli_argv, spans))
        digests.append(hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
                       if (out_dir / "report.json").exists() else "")
    rounds = plain + traced
    for i, r in enumerate(rounds):
        tag = " traced" if "summary" in r else ""
        print(f"round {i}: exit {r['code']}, {r['run_s']:.3f} s{tag}", file=sys.stderr)
    report_bytes = sum(p.stat().st_size for p in out_dir.iterdir())

    try:
        results = checks.run_checks(work.name, args.seed, input_csv, out_dir, digests)
        report = checks.load_report(out_dir)
    except Exception as err:  # a missing or malformed output is a failed check
        results, report = [("outputs_readable", False, repr(err))], None
    for check, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {check}: {detail}", file=sys.stderr)
    run_s = statistics.median(r["run_s"] for r in plain)

    metrics = {}
    if report is not None and args.trace:
        metrics = _per_layer(list(units), [r["summary"] for r in traced], report, run_s,
                             [r["run_s"] for r in traced], report_bytes)
    elif report is not None:
        best = report["solutions"][checks.best_solution(report)]["refined_index"]["value"]
        metrics = {"setup_s": setup_s, "run_s": run_s,
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                   "best_index": best}
    print(json.dumps({
        "correct": all(ok for _, ok, _ in results),
        "attempted": len(rounds),
        "failed": sum(r["code"] != 0 for r in rounds),
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
