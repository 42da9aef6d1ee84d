"""End-to-end orchestration: ingest, benchmark, search, refine, report.

A :class:`RunManifest` fully determines a run; re-running an identical
manifest reproduces every output byte for byte (there are no timestamps).
All numbers in the written files are serialized at 17 significant digits.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import _fork
from .benchmarks import BenchmarkSpec, build_benchmark
from .dataio import fmt_float, format_rows, ingest_csv, standardize_columns
from .errors import ConfigError, DataError, PipelineError
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
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")

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
        except ValueError as err:  # also a file that is not UTF-8 text
            raise ConfigError(f"manifest {path} is not valid JSON: {err}") from err
        return cls.from_dict(raw)


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, floats at 17 digits.

    A NaN or infinite float raises ``ValueError``: JSON has no such numbers.
    """
    return _json_value(obj, 0) + "\n"


def _json_value(obj, depth: int) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no non-finite numbers, got {obj!r}")
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
            "median": {
                "gradient_norm": med.gradient_norm,
                "iterations": med.iterations,
                "converged": med.converged,
            },
        },
    }


def _index_value_from_dict(raw: dict) -> IndexValue:
    reg = raw["region"]
    med = reg["median"]
    median = SpatialMedianResult(
        location=np.asarray(reg["center"], dtype=float).ravel(),
        gradient_norm=float(med["gradient_norm"]),
        iterations=int(med["iterations"]),
        converged=bool(med["converged"]),
    )
    region = RegionSpec(median, float(reg["base_radius"]), float(reg["multiplier"]))
    return IndexValue(value=float(raw["value"]), n_nodes_used=int(raw["n_nodes"]), region=region)


def _file_name(rank: int, kind: str) -> str:
    """Name of an output file of the solution at ``rank``.

    Kind ``frame_csv`` of rank 0 is ``solution_00_frame.csv``, and kind
    ``highnorm_svg`` is ``solution_00_highnorm.svg``.
    """
    stem, ext = kind.rsplit("_", 1)
    return f"solution_{rank:02d}_{stem}.{ext}"


# The report.json keys computed from the manifest and the solutions.
_DERIVED = ("degenerate", "nonconverged", "restarts_requested", "restarts_completed")


@dataclass
class SolutionReport:
    """Run outcome: the manifest and its solutions, best first, each one
    refined.

    Everything else ``report.json`` holds is computed from these two.
    """

    manifest: RunManifest
    solutions: list[SolutionProjection]

    @property
    def files(self) -> list[dict[str, str]]:
        kinds = ("frame_csv", "coords_csv", "data_svg", "combined_svg")
        return [{k: _file_name(rank, k) for k in kinds} for rank in range(len(self.solutions))]

    @property
    def degenerate(self) -> bool:
        """Every solution scored exactly zero: data and benchmark look alike."""
        return bool(self.solutions) and all(float(s.search_index) == 0.0 for s in self.solutions)

    @property
    def nonconverged(self) -> bool:
        """A spatial median failed to converge for some index value."""
        values = [v for s in self.solutions for v in (s.search_index, s.refined_index)]
        return any(not v.median_converged for v in values)

    @property
    def restarts_requested(self) -> int:
        return self.manifest.search_cfg.restarts

    @property
    def restarts_completed(self) -> int:
        return len(self.solutions)

    def to_dict(self) -> dict:
        entries = [
            {
                "rank": rank,
                "restart_id": sol.restart_id,
                "seed": sol.seed,
                "iterations_used": sol.iterations_used,
                "duplicate_of": sol.duplicate_of,
                "search_index": _index_value_dict(sol.search_index),
                "refined_index": _index_value_dict(sol.refined_index),
                "frame": [[float(v) for v in row] for row in sol.frame.matrix],
                "files": files,
            }
            for rank, (sol, files) in enumerate(zip(self.solutions, self.files))
        ]
        derived = {key: getattr(self, key) for key in _DERIVED}
        return {"manifest": self.manifest.to_dict(), **derived, "solutions": entries}

    def save(self, path) -> None:
        Path(path).write_text(dumps_canonical(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SolutionReport":
        try:
            return cls._from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path} is not UTF-8 text: {err}") from err
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path} is not a benchpursuit report: {err!r}") from err

    @classmethod
    def _from_dict(cls, raw: dict) -> "SolutionReport":
        solutions = [
            SolutionProjection(
                frame=ProjectionFrame(np.asarray(entry["frame"], dtype=float)),
                search_index=_index_value_from_dict(entry["search_index"]),
                refined_index=_index_value_from_dict(entry["refined_index"]),
                restart_id=int(entry["restart_id"]),
                iterations_used=int(entry["iterations_used"]),
                seed=int(entry["seed"]),
                duplicate_of=entry["duplicate_of"],
            )
            for entry in raw["solutions"]
        ]
        report = cls(RunManifest.from_dict(raw["manifest"]), solutions)
        stored = {key: raw[key] for key in _DERIVED}
        stored["files"] = [entry["files"] for entry in raw["solutions"]]
        for key, value in stored.items():
            if value != getattr(report, key):
                raise ValueError(f"stored {key} {value!r} disagrees with its solutions")
        return report


def relocate(report: SolutionReport, path) -> SolutionReport:
    """``report``, read from ``path``, set to write beside that file.

    A relative data path is read from the directory the run started in: the
    report's directory less the trailing parts of a relative ``out_dir``. If
    ``out_dir`` is absolute, climbs with ``..`` or does not end the report's
    directory, the data path stays relative to the current directory.
    """
    here = Path(path).absolute().parent
    manifest = report.manifest
    out = Path(manifest.out_dir)
    keep = len(here.parts) - len(out.parts)
    data_path = manifest.data_path
    if not out.is_absolute() and ".." not in out.parts and here.parts[keep:] == out.parts:
        data_path = str(Path(*here.parts[:keep], data_path))
    return replace(report, manifest=replace(manifest, data_path=data_path, out_dir=str(here)))


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as err:
        raise PipelineError(name, err) from err


def _write_view(out: Path, files, matrix, variables, samples, label_name) -> None:
    """Write a view's frame and coordinates CSVs into ``out``.

    ``files["frame_csv"]`` gets a row per variable of the frame ``matrix``,
    ``files["coords_csv"]`` a row per projected point. ``samples`` pairs each
    :class:`ProjectedSample` with its row labels, or None. A coordinate row is
    tagged by its sample's source, and by its label when any sample has labels.

    Coordinate rows are formatted in blocks by ``format_rows``, each row's
    template holding its tag cells as ``csv.writer`` writes them, encoded
    once per distinct label, then ``%.17g`` per coordinate, which is
    ``fmt_float``. So each row has the bytes ``csv.writer`` gives it.
    """
    axes = [f"c{i + 1}" for i in range(matrix.shape[1])]
    with (out / files["frame_csv"]).open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variable"] + axes)
        for name, row in zip(variables, matrix):
            writer.writerow([name] + [fmt_float(v) for v in row])
    labelled = any(labels is not None for labels, _ in samples)
    coords = ",".join(["%.17g"] * len(axes)) + "\n"
    cells = io.StringIO()
    encoder = csv.writer(cells, lineterminator="\n")

    def template(tags: list[str]) -> str:
        cells.seek(0)
        cells.truncate()
        encoder.writerow(tags + [""])  # the cells and a comma, then the line end
        return cells.getvalue()[:-1].replace("%", "%%") + coords

    with (out / files["coords_csv"]).open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(([label_name] if labelled else []) + ["source"] + axes)
        for labels, sample in samples:
            if not labelled:
                rows = [template([sample.source])] * sample.n
            elif labels is None:
                rows = [template(["", sample.source])] * sample.n
            else:
                forms = {lab: template([lab, sample.source]) for lab in dict.fromkeys(labels)}
                rows = [forms[lab] for lab in labels]
            fh.writelines(format_rows(rows, sample.points))


def _load_input(manifest: RunManifest) -> DataMatrix:
    """The manifest's dataset, standardized if asked.

    A class-split benchmark names the label column when the manifest does not.
    """
    label_col = manifest.label_column
    if manifest.benchmark.kind == "class_split" and label_col is None:
        label_col = manifest.benchmark.label_column
    data = ingest_csv(manifest.data_path, label_col)
    return standardize_columns(data) if manifest.standardize else data


def _write_views(out: Path, report: SolutionReport, data: DataMatrix, bench: DataMatrix) -> None:
    """Create ``out`` and write each solution's frame CSV, coordinates CSV,
    data SVG and combined SVG there. Nothing here reads a refined index: the
    SVG titles show the search index."""
    out.mkdir(parents=True, exist_ok=True)
    label_name = data.label_name or "label"
    for rank, (sol, files) in enumerate(zip(report.solutions, report.files)):
        proj_data = project(data, sol.frame, "data")
        proj_bench = project(bench, sol.frame, "benchmark")
        samples = [(data.row_labels, proj_data), (bench.row_labels, proj_bench)]
        _write_view(out, files, sol.frame.matrix, data.column_names, samples, label_name)
        title = (
            f"solution {rank:02d} (restart {sol.restart_id})"
            f" index {float(sol.search_index):.6g}"
        )
        (out / files["data_svg"]).write_text(emit_svg([proj_data], title=title), encoding="utf-8")
        (out / files["combined_svg"]).write_text(
            emit_svg([proj_data, proj_bench], title=title), encoding="utf-8"
        )


def run(manifest: RunManifest) -> SolutionReport:
    """Execute a manifest end to end and write its outputs.

    Stages: ingest (standardizing if asked), benchmark, search, refine,
    report. Any failure is re-raised as :class:`PipelineError` naming the
    stage. A run whose solutions all score exactly zero (data and benchmark
    indistinguishable) is flagged degenerate; spatial-median non-convergence
    anywhere is flagged, not fatal.

    When ``_fork.may_fork()`` holds, a child writes every solution's CSVs
    and SVGs while this process refines; an error it raises, or its death,
    is raised in stage ``report``. Otherwise the views are written in that
    stage. Either way ``report.json`` is written last, with the same bytes.
    """
    with _stage("ingest"):
        x0 = _load_input(manifest)

    with _stage("benchmark"):
        data, bench = build_benchmark(manifest.benchmark, x0)

    with _stage("search"):
        solutions = run_search(
            data, bench, manifest.dim, manifest.index_cfg, manifest.search_cfg
        )

    out = Path(manifest.out_dir)
    report = SolutionReport(manifest, solutions)
    views = functools.partial(_write_views, out, report, data, bench)
    writer = _fork.Child(views, "view writer") if _fork.may_fork() else None
    try:
        if writer:
            writer.send()
        with _stage("refine"):
            for sol in solutions:
                sol.refined_index = refine_index(sol.frame, data, bench, manifest.index_cfg)
        with _stage("report"):
            if writer:
                writer.recv()
            else:
                views()
            report.save(out / "report.json")
    finally:
        if writer:
            writer.close()
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
) -> SplitProjection:
    """Partition a solution frame's rows by norm and project through each part.

    The variables (frame rows) are split at ``threshold`` (default
    sqrt(d/p)); the high- and low-norm row submatrices are applied to the
    matching column subsets of ``data`` without re-orthonormalization, so
    each picture shows what those variables alone contribute. ``data``
    defaults to the manifest's ingested (and, if configured, standardized)
    dataset. The views are written into the manifest's ``out_dir``.
    """
    if not report.solutions:
        raise DataError(f"the report has no solutions: every restart failed "
                        f"(0/{report.restarts_requested} completed)")
    if not 0 <= solution_id < len(report.solutions):
        raise DataError(f"solution {solution_id} outside [0, {len(report.solutions) - 1}]")
    frame = report.solutions[solution_id].frame
    if data is None:
        data = _load_input(report.manifest)
    if data.p != frame.p:
        raise DataError(f"data has {data.p} columns but frame has {frame.p} rows")
    threshold = frame.rms_row_norm if threshold is None else threshold
    low, high = split_by_row_norm(frame, threshold)

    def side(rows: np.ndarray) -> tuple[np.ndarray, ProjectedSample]:
        sub = frame.matrix[rows, :]
        return sub, ProjectedSample(data.values[:, rows] @ sub, source="data")

    low_frame, low_sample = side(low)
    high_frame, high_sample = side(high)

    out = Path(report.manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    label_name = data.label_name or "label"
    files: dict[str, str] = {}
    for tag, rows, sub, sample in (
        ("lownorm", low, low_frame, low_sample),
        ("highnorm", high, high_frame, high_sample),
    ):
        kinds = ("frame_csv", "coords_csv", "svg")
        view = {k: _file_name(solution_id, f"{tag}_{k}") for k in kinds}
        variables = [data.column_names[r] for r in rows]
        _write_view(out, view, sub, variables, [(data.row_labels, sample)], label_name)
        title = f"solution {solution_id:02d} {tag} rows={len(rows)} threshold={threshold:.6g}"
        (out / view["svg"]).write_text(emit_svg([sample], title=title), encoding="utf-8")
        files.update({f"{tag}_{k}": name for k, name in view.items()})
    return SplitProjection(
        threshold=threshold,
        low_rows=low,
        high_rows=high,
        low_frame=low_frame,
        high_frame=high_frame,
        low_sample=low_sample,
        high_sample=high_sample,
        files=files,
    )
