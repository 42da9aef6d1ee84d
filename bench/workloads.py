"""The benchmark's workloads: generated inputs, `run` arguments, planted structure.

Each workload turns ``--seed`` into one input CSV and one ``benchpursuit run``
command line. The program sees only the CSV and the flags; the planted
structure each check looks for is kept here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

RANDU_MODULUS = 2**31
MINSTD_MODULUS = 2**31 - 1
MINSTD_MULTIPLIER = 16807
# Normal of the 15 planes that consecutive RANDU triples lie on.
LATTICE_NORMAL = np.array([9.0, -6.0, 1.0]) / np.sqrt(118.0)

CLASS_ROWS_PER_LEVEL = 300
CLASS_COLUMNS = 8
CLASS_SPREAD = 2.0
CLASS_SAMPLE_SEED = 1
CLASS_SUBSPACE = np.linalg.qr(np.random.default_rng(2011).standard_normal((CLASS_COLUMNS, 3)))[0]

PERMUTE_SAMPLE_SEED = 1
PERMUTE_ROWS = 20_000
PERMUTE_COLUMNS = 6
PERMUTE_PAIR = (1, 4)
PERMUTE_CORRELATION = 0.9


@dataclass(frozen=True)
class Workload:
    """One workload: its name and the flags of its `run` command.

    ``benchmark`` is the --benchmark value, with ``{seed}`` standing for the
    benchmark's seed.
    """

    name: str
    benchmark: str
    flags: tuple[str, ...]

    def argv(self, seed: int, data_csv: str, out_dir: str) -> list[str]:
        return ["run", "--data", data_csv, "--benchmark", self.benchmark.format(seed=seed),
                *self.flags, "--out", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        # The README run: 10 restarts x 200 iterations, 50 search nodes,
        # 5000 refine nodes, search seed 100.
        Workload("randu-anneal", "lcg:minstd,1,400",
                 ("--dim", "2", "--k", "1.0", "--qmc-points", "50", "--qmc-refine", "5000",
                  "--optimizer", "anneal", "--restarts", "10", "--iterations", "200",
                  "--seed", "100")),
        # One restart of 30 iterations: the geodesic climb is slow, and a
        # 2 x 10 search ends about as far (RMS) from the planted subspace as
        # a random frame's 5th percentile.
        Workload("class-geodesic-3d", "class:class=A",
                 ("--standardize", "--dim", "3", "--k", "1.0", "--qmc-points", "200",
                  "--qmc-refine", "5000", "--optimizer", "geodesic", "--restarts", "1",
                  "--iterations", "30", "--seed", "100")),
        # k=2 as in the package's correlated-pair acceptance test. One long
        # restart: the anneal accepts nearly every proposal for its first few
        # dozen steps at this index scale, so short restarts end before the
        # greedy phase.
        Workload("permute-large", "permute:{seed}",
                 ("--dim", "2", "--k", "2.0", "--qmc-points", "50", "--qmc-refine", "2000",
                  "--optimizer", "anneal", "--restarts", "1", "--iterations", "60",
                  "--seed", "100")),
    )
}


def randu_rows(seed: int) -> np.ndarray:
    """The README sample (400 RANDU triples from seed 1), rows shuffled by ``seed``.

    The sample itself is fixed: the lattice bar holds on it, and on most other
    RANDU samples the search prefers another view (bench/README.md).
    """
    from benchpursuit import lcg_triplets

    values = lcg_triplets("randu", seed=1, n=400).values
    return values[np.random.default_rng(seed).permutation(len(values))]


def minstd_triples(seed: int, n: int) -> np.ndarray:
    """``n`` MINSTD triples, computed here with exact integers."""
    state = seed
    raw = []
    for _ in range(3 * n):
        state = MINSTD_MULTIPLIER * state % MINSTD_MODULUS
        raw.append(state)
    return np.array(raw, dtype=float).reshape(n, 3) / MINSTD_MODULUS


def class_rows(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A fixed labelled sample, rows shuffled by ``seed``.

    Three equal classes of 8-d Gaussians; class A is spread wider inside the
    planted subspace. The sample is drawn once from CLASS_SAMPLE_SEED: the
    best index of independent samples ranged from 64 to 91 over five seeds,
    because the index's region radius is set by the farthest point and the
    short search stops at different heights.
    """
    rng = np.random.default_rng(CLASS_SAMPLE_SEED)
    values = rng.standard_normal((3 * CLASS_ROWS_PER_LEVEL, CLASS_COLUMNS))
    labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), CLASS_ROWS_PER_LEVEL))
    inside = values[labels == "A"] @ CLASS_SUBSPACE
    values[labels == "A"] += (CLASS_SPREAD - 1.0) * inside @ CLASS_SUBSPACE.T
    order = np.random.default_rng(seed).permutation(len(values))
    return values[order], labels[order]


def permute_rows() -> np.ndarray:
    """A fixed sample: independent standard normal columns except one pair correlated at 0.9.

    The seed picks the program's permutation (``permute:<seed>``) instead.
    Sample and permutation both shape the search path, and varying one of
    them already moves the best index by a few percent.
    """
    rng = np.random.default_rng(PERMUTE_SAMPLE_SEED)
    values = rng.standard_normal((PERMUTE_ROWS, PERMUTE_COLUMNS))
    i, j = PERMUTE_PAIR
    rho = PERMUTE_CORRELATION
    values[:, j] = rho * values[:, i] + np.sqrt(1.0 - rho**2) * values[:, j]
    return values


def make_input(name: str, seed: int, path: str) -> None:
    """Generate the workload's input and write it as a headed CSV."""
    labels = None
    if name == "randu-anneal":
        values = randu_rows(seed)
        names = ["x1", "x2", "x3"]
    elif name == "class-geodesic-3d":
        values, labels = class_rows(seed)
        names = [f"v{j + 1}" for j in range(CLASS_COLUMNS)]
    elif name == "permute-large":
        values = permute_rows()
        names = [f"v{j + 1}" for j in range(PERMUTE_COLUMNS)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((["class"] if labels is not None else []) + names)
        for i, row in enumerate(values.tolist()):
            cells = [repr(v) for v in row]
            writer.writerow(([labels[i]] if labels is not None else []) + cells)


def read_input(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse an input CSV back into (values, labels or None)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    labelled = rows[0][0] == "class"
    body = [r[1:] if labelled else r for r in rows[1:]]
    labels = np.array([r[0] for r in rows[1:]]) if labelled else None
    return np.array(body, dtype=float), labels
