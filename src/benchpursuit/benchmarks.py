"""Benchmark construction: the known-structure sample a projection is scored against.

Four kinds are supported: an external file with matching columns, an
independent per-column permutation of the data (breaking joint structure
while keeping marginals), a split of the data by class label, and classic
linear congruential generator triplets whose lattice defects are the
structure to find.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataio import ingest_csv
from .errors import ConfigError, DimensionMismatch, EmptyPartition, UnknownColumn
from .frames import DataMatrix, subset_rows
from .jsonconfig import build

# name -> (modulus, multiplier); the recurrence is state' = multiplier * state mod modulus.
GENERATORS: dict[str, tuple[int, int]] = {
    "randu": (2**31, 65539),
    "minstd": (2**31 - 1, 16807),
}


def lcg_triplets(generator: str, seed: int, n: int) -> DataMatrix:
    """n non-overlapping consecutive triplets of a generator, scaled to (0, 1).

    Triplet i holds draws 3i+1, 3i+2, 3i+3 of the stream divided by the
    modulus, in columns x1, x2, x3. The recurrence runs on Python integers,
    so every draw is exact for any modulus.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    key = generator.lower()
    if key not in GENERATORS:
        raise ConfigError(f"unknown generator '{generator}' (have {sorted(GENERATORS)})")
    modulus, multiplier = GENERATORS[key]
    if not 1 <= seed < modulus:
        raise ValueError(f"seed must be in [1, {modulus - 1}], got {seed}")
    raw = np.empty(3 * n, dtype=np.int64)
    state = seed
    for i in range(3 * n):
        state = multiplier * state % modulus
        raw[i] = state
    return DataMatrix(values=raw.reshape(n, 3) / float(modulus), column_names=("x1", "x2", "x3"))


def permutation_benchmark(x: DataMatrix, seed: int) -> DataMatrix:
    """Independent per-column permutation of ``x``.

    Marginal distributions are kept exactly (each column is the same
    multiset) while the joint structure is destroyed. Column names are
    preserved; row labels are dropped because rows no longer correspond to
    observations.
    """
    rng = np.random.default_rng(seed)
    cols = [rng.permutation(x.values[:, j]) for j in range(x.p)]
    return DataMatrix(values=np.column_stack(cols), column_names=x.column_names)


def class_split(x: DataMatrix, label_column: str, level: str) -> tuple[DataMatrix, DataMatrix]:
    """Split ``x`` into (rows with label == level, the rest).

    ``label_column`` must name the label column held by ``x`` (the label is
    excluded from the numeric values at ingest time). Both parts keep their
    row labels.
    """
    if x.row_labels is None or x.label_name != label_column:
        raise UnknownColumn(
            f"'{label_column}' is not the designated label column"
            + (f" ('{x.label_name}')" if x.label_name else " (none present)")
        )
    level = str(level)
    in_level = [i for i, lab in enumerate(x.row_labels) if lab == level]
    rest = [i for i, lab in enumerate(x.row_labels) if lab != level]
    if not in_level:
        raise EmptyPartition(f"no rows have {label_column} == '{level}'")
    if not rest:
        raise EmptyPartition(f"every row has {label_column} == '{level}'")
    return subset_rows(x, in_level), subset_rows(x, rest)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Declarative description of how to build the benchmark sample.

    ``kind`` is one of "external", "permutation", "class_split", "lcg"; the
    remaining fields apply per kind and are checked on construction.
    """

    kind: str
    path: str | None = None
    seed: int | None = None
    label_column: str | None = None
    level: str | None = None
    generator: str | None = None
    n_rows: int | None = None

    def __post_init__(self):
        if self.kind == "external":
            if not self.path:
                raise ConfigError("external benchmark needs a path")
        elif self.kind == "permutation":
            if self.seed is None:
                raise ConfigError("permutation benchmark needs a seed")
            if self.seed < 0:
                raise ConfigError(f"permutation seed must be nonnegative, got {self.seed}")
        elif self.kind == "class_split":
            if not self.label_column or self.level is None:
                raise ConfigError("class_split benchmark needs label_column and level")
        elif self.kind == "lcg":
            if not self.generator or self.seed is None:
                raise ConfigError("lcg benchmark needs generator and seed")
            if self.generator.lower() not in GENERATORS:
                raise ConfigError(f"unknown generator '{self.generator}'")
            modulus = GENERATORS[self.generator.lower()][0]
            if not 1 <= self.seed < modulus:
                raise ConfigError(f"lcg seed must be in [1, {modulus - 1}], got {self.seed}")
            if self.n_rows is not None and self.n_rows < 1:
                raise ConfigError("n_rows must be at least 1")
        else:
            raise ConfigError(f"unknown benchmark kind '{self.kind}'")

    def to_dict(self) -> dict:
        """The JSON form: every field that is set."""
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchmarkSpec":
        return build(cls, raw)


def build_benchmark(spec: BenchmarkSpec, x: DataMatrix) -> tuple[DataMatrix, DataMatrix]:
    """Resolve ``spec`` against ``x`` into the (data, benchmark) pair.

    For a class split the data side is the selected level; for every other
    kind the data side is ``x`` unchanged.
    """
    if spec.kind == "external":
        y = ingest_csv(spec.path)
        if y.p != x.p:
            raise DimensionMismatch(f"benchmark has {y.p} columns but data has {x.p}")
        return x, y
    if spec.kind == "permutation":
        return x, permutation_benchmark(x, spec.seed)
    if spec.kind == "class_split":
        return class_split(x, spec.label_column, spec.level)
    # lcg
    if x.p != 3:
        raise DimensionMismatch(f"lcg triplets have 3 columns but data has {x.p}")
    n = spec.n_rows if spec.n_rows is not None else x.n
    return x, lcg_triplets(spec.generator, spec.seed, n)
