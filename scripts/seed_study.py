"""Search quality over seeds: the benchmark's workloads, scored by its own checks.

For each workload in bench/workloads.py and each seed s (default 100, 110,
..., 290), writes the workload's input at s, runs its `run` command with
``--seed s`` appended through ``benchpursuit.cli.main`` in this process, and
scores every solution in report.json with bench/checks.py. The search seed
makes the spread: the input seed alone only reorders RANDU's rows. At a
spacing of 10 the seeds of the 10-restart RANDU blocks do not overlap.

Outputs go under runs/seed-study/ in the working directory, one line per run
to standard error, and one JSON object as the last line of standard output.
``benchpursuit`` comes from PYTHONPATH, and from this repository's src only
if it is not found there, so a parent checkout is compared on the same seeds
by

    PYTHONPATH=PARENT/src python3 scripts/seed_study.py > parent.json
    python3 scripts/seed_study.py --against parent.json

which prints each seed's differences and exits 1 if a workload's total hits
fall by more than HITS_DROP or its median best refined index falls.
"""

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
sys.path.append(str(ROOT / "src"))

import benchpursuit.cli  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

# Noise in a workload's total hits over 20 seeds: the 95th percentile of the
# drop between two disjoint draws of 20 from seeds 100-1290 (step 10), over
# 20 000 draws (2 cores). The six consecutive sets of 20 read randu-anneal 45,
# 47, 40, 39, 47, 46; class-geodesic-3d 17, 16, 16, 17, 18, 14; permute-large
# 18, 16, 18, 16, 16, 17.
HITS_DROP = {"randu-anneal": 12, "class-geodesic-3d": 4, "permute-large": 4}


def study_run(name: str, seed: int) -> dict:
    """One `run` of workload ``name`` at input and search seed ``seed``, scored."""
    run_dir = Path("runs", "seed-study", f"{name}-s{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    data = run_dir / "input.csv"
    workloads.make_input(name, seed, str(data))
    argv = workloads.WORKLOADS[name].argv(seed, str(data), str(run_dir / "out"))
    with contextlib.redirect_stdout(io.StringIO()):
        record = {"seed": seed, "exit": benchpursuit.cli.main([*argv, "--seed", str(seed)])}
    if not (run_dir / "out" / "report.json").is_file():
        return record
    report = checks.load_report(run_dir / "out")
    values, _ = workloads.read_input(str(data))
    sols = report["solutions"]
    frames = [np.asarray(s["frame"], dtype=float) for s in sols]
    best = checks.best_solution(report)
    hits = sum(checks.recovered(name, f, values) for f in frames)
    gaps = [s["search_index"]["value"] - s["refined_index"]["value"] for s in sols]
    return {**record, "solutions": len(sols), "hits": hits,
            "best_index": sols[best]["refined_index"]["value"],
            "best_score": checks.planted_score(name, frames[best], values),
            "search_gap": float(np.mean(gaps)), "rank0_best": best == 0,
            # The bench's bar: enough RANDU hits, or the best solution recovered.
            "bar": hits >= checks.LATTICE_MIN_HITS if name == "randu-anneal"
            else checks.recovered(name, frames[best], values)}


def compare(result: dict, saved: dict) -> int:
    """Print each seed's differences from ``saved``; 1 if a workload got worse."""
    code = 0
    for name, now in result["workloads"].items():
        before = {r["seed"]: r for r in saved["workloads"].get(name, {}).get("runs", [])}
        pairs = [(before[r["seed"]], r) for r in now["runs"] if r["seed"] in before]
        count = 0
        for old, new in pairs:
            diffs = [f"{k} {old.get(k)} -> {new.get(k)}" for k in {**old, **new}
                     if old.get(k) != new.get(k)]
            count += len(diffs)
            if diffs:
                print(f"{name} seed {new['seed']}: {'; '.join(diffs)}", file=sys.stderr)
        if pairs:
            hits = [sum(r.get("hits", 0) for r in side) for side in zip(*pairs)]
            best = [statistics.median(r.get("best_index", 0.0) for r in side)
                    for side in zip(*pairs)]
            worse = hits[0] - hits[1] > HITS_DROP[name] or best[1] < best[0]
            print(f"{name}: {count} differences over {len(pairs)} seeds; hits {hits[0]} -> "
                  f"{hits[1]}, median best index {best[0]:.6g} -> {best[1]:.6g}"
                  f"{'; WORSE' if worse else ''}", file=sys.stderr)
            code = max(code, int(worse))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS), help="default: all")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(100, 300, 10)))
    ap.add_argument("--against", type=Path, help="a saved output of this script")
    args = ap.parse_args(argv)
    saved = json.loads(args.against.read_text().splitlines()[-1]) if args.against else None
    result = {"benchpursuit": benchpursuit.__file__, "seeds": args.seeds, "workloads": {}}
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            runs.append(study_run(name, seed))
            print(f"{name} {json.dumps(runs[-1])} {time.perf_counter() - start:.2f} s",
                  file=sys.stderr, flush=True)
        hits = [r.get("hits", 0) for r in runs]
        result["workloads"][name] = {
            "hits": sum(hits), "hits_min": min(hits), "hits_median": statistics.median(hits),
            "hits_max": max(hits), "below_bar": [r["seed"] for r in runs if not r.get("bar")],
            "runs": runs}
    code = compare(result, saved) if saved else 0
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
