"""Slack in the RANDU lattice bar: hits per 10-restart block over search seeds.

    python3 bench/randu_slack.py

Runs the randu-anneal search (README sample, 10 restarts x 200 iterations,
50 nodes, k=1) once per base seed 100, 110, ..., 190 and prints, per block,
how many of the 10 solutions contain a direction within 10 degrees of the
lattice normal. The bar asks for at least 3. Takes about half a minute per
seed; not timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

from benchpursuit import IndexConfig, SearchConfig, lcg_triplets, run_search  # noqa: E402

import checks  # noqa: E402


def main() -> int:
    x = lcg_triplets("randu", seed=1, n=400)
    y = lcg_triplets("minstd", seed=1, n=400)
    counts = []
    print(f"{'rng_seed':>8} {'hits':>4} {'best search index':>18}")
    for seed in range(100, 200, 10):
        sols = run_search(x, y, d=2, idx_cfg=IndexConfig(k=1.0, n_nodes=50),
                          search_cfg=SearchConfig(optimizer="anneal", restarts=10,
                                                  max_iterations=200, rng_seed=seed))
        hits = sum(checks.recovered("randu-anneal", s.frame.matrix, x.values) for s in sols)
        counts.append(hits)
        print(f"{seed:>8} {hits:>4} {float(sols[0].search_index):>18.6g}", flush=True)
    print(f"hits per block: min {min(counts)}, median {np.median(counts):g}, max {max(counts)}; "
          f"blocks below the bar of {checks.LATTICE_MIN_HITS}: "
          f"{sum(c < checks.LATTICE_MIN_HITS for c in counts)}/{len(counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
