"""End-to-end orchestration: ingest, benchmark, search, refine, report.

A :class:`RunManifest` fully determines a run; re-running an identical
manifest reproduces every output byte for byte (there are no timestamps).
All numbers in the written files are serialized at 17 significant digits.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .benchmarks import BenchmarkSpec, build_benchmark
from .dataio import fmt_float, ingest_csv, standardize_columns
from .errors import (
    ConfigError, DimensionMismatch, IndexOutOfRange, PipelineError, UnsupportedDimension,
)
from .frames import DataMatrix, ProjectedSample, ProjectionFrame, project, split_by_row_norm
from .jsonconfig import build
from .optimize import SearchConfig, SolutionProjection, run_search
from .projection_index import IndexConfig, IndexValue, refine_index
from .spatial import RegionSpec, SpatialMedianResult
from .svgplot import emit_svg


# Manifest JSON keys that differ from the RunManifest field names.
_JSON_KEYS = {"data_path": "data", "index_cfg": "index", "search_cfg": "search"}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run."""

    data_path: str
    benchmark: BenchmarkSpec
    out_dir: str
    label_column: str | None = None
    dim: int = 2
    index_cfg: IndexConfig = field(default_factory=IndexConfig)
    search_cfg: SearchConfig = field(default_factory=SearchConfig)
    standardize: bool = False

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise UnsupportedDimension(f"dim must be 1, 2 or 3, got {self.dim}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, BenchmarkSpec):
                value = value.to_dict()
            elif is_dataclass(value):
                value = asdict(value)
            out[_JSON_KEYS.get(f.name, f.name)] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunManifest":
        try:
            manifest = build(cls, raw, _JSON_KEYS)
            return replace(manifest, benchmark=BenchmarkSpec.from_dict(manifest.benchmark))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad manifest settings: {err}") from err

    def save(self, path) -> None:
        Path(path).write_text(dumps_canonical(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigError(f"manifest {path} is not valid JSON: {err}") from err
        return cls.from_dict(raw)


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, floats at 17 digits."""
    return _json_value(obj, 0) + "\n"


def _json_value(obj, depth: int) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {_json_value(obj[key], depth + 1)}"
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_json_value(v, depth + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, np.floating):
        return fmt_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _index_value_dict(val: IndexValue) -> dict:
    region = val.region
    med = region.median
    return {
        "value": val.value,
        "n_nodes": val.n_nodes_used,
        "region": {
            "center": [float(c) for c in region.center],
            "base_radius": region.base_radius,
            "multiplier": region.multiplier,
            "median": None
            if med is None
            else {
                "gradient_norm": med.gradient_norm,
                "iterations": med.iterations,
                "converged": med.converged,
            },
        },
    }


def _index_value_from_dict(raw: dict) -> IndexValue:
    reg = raw["region"]
    med = reg.get("median")
    median = None
    if med is not None:
        median = SpatialMedianResult(
            location=np.asarray(reg["center"], dtype=float),
            gradient_norm=float(med["gradient_norm"]),
            iterations=int(med["iterations"]),
            converged=bool(med["converged"]),
        )
    region = RegionSpec(
        center=np.asarray(reg["center"], dtype=float),
        base_radius=float(reg["base_radius"]),
        multiplier=float(reg["multiplier"]),
        median=median,
    )
    return IndexValue(value=float(raw["value"]), n_nodes_used=int(raw["n_nodes"]), region=region)


@dataclass
class SolutionReport:
    """Run outcome: ordered solutions plus per-solution output files."""

    manifest: RunManifest
    solutions: list[SolutionProjection]
    files: list[dict[str, str]]
    degenerate: bool
    nonconverged: bool
    restarts_requested: int
    restarts_completed: int

    def to_dict(self) -> dict:
        entries = []
        for rank, (sol, files) in enumerate(zip(self.solutions, self.files)):
            entries.append(
                {
                    "rank": rank,
                    "restart_id": sol.restart_id,
                    "seed": sol.seed,
                    "iterations_used": sol.iterations_used,
                    "duplicate_of": sol.duplicate_of,
                    "search_index": _index_value_dict(sol.search_index),
                    "refined_index": None
                    if sol.refined_index is None
                    else _index_value_dict(sol.refined_index),
                    "frame": [[float(v) for v in row] for row in sol.frame.matrix],
                    "files": files,
                }
            )
        return {
            "manifest": self.manifest.to_dict(),
            "degenerate": self.degenerate,
            "nonconverged": self.nonconverged,
            "restarts_requested": self.restarts_requested,
            "restarts_completed": self.restarts_completed,
            "solutions": entries,
        }

    def save(self, path) -> None:
        Path(path).write_text(dumps_canonical(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SolutionReport":
        text = Path(path).read_text(encoding="utf-8")
        try:
            return cls._from_dict(json.loads(text))
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path} is not a benchpursuit report: {err!r}") from err

    @classmethod
    def _from_dict(cls, raw: dict) -> "SolutionReport":
        manifest = RunManifest.from_dict(raw["manifest"])
        solutions = []
        files = []
        for entry in raw["solutions"]:
            sol = SolutionProjection(
                frame=ProjectionFrame(np.asarray(entry["frame"], dtype=float)),
                search_index=_index_value_from_dict(entry["search_index"]),
                refined_index=None
                if entry.get("refined_index") is None
                else _index_value_from_dict(entry["refined_index"]),
                restart_id=int(entry["restart_id"]),
                iterations_used=int(entry["iterations_used"]),
                seed=int(entry["seed"]),
                duplicate_of=entry.get("duplicate_of"),
            )
            solutions.append(sol)
            files.append(dict(entry.get("files", {})))
        return cls(
            manifest=manifest,
            solutions=solutions,
            files=files,
            degenerate=bool(raw["degenerate"]),
            nonconverged=bool(raw["nonconverged"]),
            restarts_requested=int(raw["restarts_requested"]),
            restarts_completed=int(raw["restarts_completed"]),
        )


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as err:
        raise PipelineError(name, err) from err


def _write_coords_csv(path: Path, groups, d: int, label_name: str) -> None:
    """One row per projected point, tagged by source and optional label."""
    include_label = any(labels is not None for labels, _, _ in groups)
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ([label_name] if include_label else []) + ["source"] + [
            f"c{i + 1}" for i in range(d)
        ]
        writer.writerow(header)
        for labels, source, points in groups:
            for i, row in enumerate(points):
                cells = [fmt_float(v) for v in row]
                if include_label:
                    cells = [labels[i] if labels is not None else ""] + [source] + cells
                else:
                    cells = [source] + cells
                writer.writerow(cells)


def _write_frame_csv(path: Path, matrix: np.ndarray, variable_names) -> None:
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variable"] + [f"c{i + 1}" for i in range(matrix.shape[1])])
        for name, row in zip(variable_names, matrix):
            writer.writerow([name] + [fmt_float(v) for v in row])


def _load_input(manifest: RunManifest) -> DataMatrix:
    """The manifest's dataset, standardized if asked.

    A class-split benchmark names the label column when the manifest does not.
    """
    label_col = manifest.label_column
    if manifest.benchmark.kind == "class_split" and label_col is None:
        label_col = manifest.benchmark.label_column
    data = ingest_csv(manifest.data_path, label_col)
    return standardize_columns(data) if manifest.standardize else data


def run(manifest: RunManifest) -> SolutionReport:
    """Execute a manifest end to end and write its outputs.

    Stages: ingest (standardizing if asked), benchmark, search, refine,
    report. Any failure is re-raised as :class:`PipelineError` naming the
    stage. A run whose solutions all score exactly zero (data and benchmark
    indistinguishable) is flagged degenerate; spatial-median non-convergence
    anywhere is flagged, not fatal.
    """
    with _stage("ingest"):
        x0 = _load_input(manifest)

    with _stage("benchmark"):
        data, bench = build_benchmark(manifest.benchmark, x0)

    with _stage("search"):
        solutions = run_search(
            data, bench, manifest.dim, manifest.index_cfg, manifest.search_cfg
        )

    with _stage("refine"):
        for sol in solutions:
            sol.refined_index = refine_index(sol.frame, data, bench, manifest.index_cfg)

    with _stage("report"):
        out = Path(manifest.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        label_name = data.label_name or "label"
        files: list[dict[str, str]] = []
        for rank, sol in enumerate(solutions):
            stem = f"solution_{rank:02d}"
            entry = {
                "frame_csv": f"{stem}_frame.csv",
                "coords_csv": f"{stem}_coords.csv",
                "data_svg": f"{stem}_data.svg",
                "combined_svg": f"{stem}_combined.svg",
            }
            _write_frame_csv(out / entry["frame_csv"], sol.frame.matrix, data.column_names)
            proj_data = project(data, sol.frame, "data")
            proj_bench = project(bench, sol.frame, "benchmark")
            _write_coords_csv(
                out / entry["coords_csv"],
                [
                    (data.row_labels, "data", proj_data.points),
                    (bench.row_labels, "benchmark", proj_bench.points),
                ],
                manifest.dim,
                label_name,
            )
            title = (
                f"solution {rank:02d} (restart {sol.restart_id})"
                f" index {float(sol.search_index):.6g}"
            )
            (out / entry["data_svg"]).write_text(
                emit_svg([proj_data], title=title), encoding="utf-8"
            )
            (out / entry["combined_svg"]).write_text(
                emit_svg([proj_data, proj_bench], title=title), encoding="utf-8"
            )
            files.append(entry)

        report = SolutionReport(
            manifest=manifest,
            solutions=solutions,
            files=files,
            degenerate=bool(solutions)
            and all(float(s.search_index) == 0.0 for s in solutions),
            nonconverged=any(
                not s.search_index.median_converged
                or (s.refined_index is not None and not s.refined_index.median_converged)
                for s in solutions
            ),
            restarts_requested=manifest.search_cfg.restarts,
            restarts_completed=len(solutions),
        )
        report.save(out / "report.json")
    return report


@dataclass
class SplitProjection:
    """Result of splitting a solution frame by row norm and re-projecting."""

    threshold: float
    low_rows: np.ndarray
    high_rows: np.ndarray
    low_frame: np.ndarray
    high_frame: np.ndarray
    low_sample: ProjectedSample
    high_sample: ProjectedSample
    files: dict[str, str]


def split_and_project(
    report: SolutionReport,
    solution_id: int,
    data: DataMatrix | None = None,
    threshold: float | None = None,
    write: bool = True,
) -> SplitProjection:
    """Partition a solution frame's rows by norm and project through each part.

    The variables (frame rows) are split at ``threshold`` (default
    sqrt(d/p)); the high- and low-norm row submatrices are applied to the
    matching column subsets of ``data`` without re-orthonormalization, so
    each picture shows what those variables alone contribute. ``data``
    defaults to the manifest's ingested (and, if configured, standardized)
    dataset.
    """
    if not 0 <= solution_id < len(report.solutions):
        raise IndexOutOfRange(
            f"solution {solution_id} outside [0, {len(report.solutions) - 1}]"
        )
    sol = report.solutions[solution_id]
    frame = sol.frame
    if data is None:
        data = _load_input(report.manifest)
    if data.p != frame.p:
        raise DimensionMismatch(f"data has {data.p} columns but frame has {frame.p} rows")
    low, high = split_by_row_norm(frame, threshold)
    used_threshold = threshold if threshold is not None else math.sqrt(frame.d / frame.p)

    def side(rows: np.ndarray) -> tuple[np.ndarray, ProjectedSample]:
        sub = frame.matrix[rows, :]
        points = data.values[:, rows] @ sub
        return sub, ProjectedSample(points, source="data")

    low_frame, low_sample = side(low)
    high_frame, high_sample = side(high)

    files: dict[str, str] = {}
    if write:
        out = Path(report.manifest.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        label_name = data.label_name or "label"
        for tag, rows, sub, sample in (
            ("lownorm", low, low_frame, low_sample),
            ("highnorm", high, high_frame, high_sample),
        ):
            stem = f"solution_{solution_id:02d}_{tag}"
            files[f"{tag}_frame_csv"] = f"{stem}_frame.csv"
            files[f"{tag}_coords_csv"] = f"{stem}_coords.csv"
            files[f"{tag}_svg"] = f"{stem}.svg"
            _write_frame_csv(
                out / files[f"{tag}_frame_csv"],
                sub,
                [data.column_names[r] for r in rows],
            )
            _write_coords_csv(
                out / files[f"{tag}_coords_csv"],
                [(data.row_labels, "data", sample.points)],
                frame.d,
                label_name,
            )
            title = (
                f"solution {solution_id:02d} {tag} rows={len(rows)}"
                f" threshold={used_threshold:.6g}"
            )
            (out / files[f"{tag}_svg"]).write_text(
                emit_svg([sample], title=title), encoding="utf-8"
            )
    return SplitProjection(
        threshold=used_threshold,
        low_rows=low,
        high_rows=high,
        low_frame=low_frame,
        high_frame=high_frame,
        low_sample=low_sample,
        high_sample=high_sample,
        files=files,
    )
