import functools
import json
import os
import tracemalloc
from dataclasses import MISSING, fields

import numpy as np
import pytest

from benchpursuit import _fork, pipeline, spatial, svgplot
from benchpursuit.benchmarks import BenchmarkSpec
from benchpursuit.dataio import write_csv
from benchpursuit.errors import ConfigError, DataError, PipelineError
from benchpursuit.frames import DataMatrix, ProjectedSample, ProjectionFrame
from benchpursuit.optimize import (
    AnnealConfig,
    GeodesicConfig,
    SearchConfig,
    SolutionProjection,
)
from benchpursuit.pipeline import (
    RunManifest,
    SolutionReport,
    dumps_canonical,
    relocate,
    run,
    split_and_project,
)
from benchpursuit.projection_index import IndexConfig, IndexValue
from benchpursuit.spatial import RegionSpec, SpatialMedianResult
from conftest import assert_no_child_left
from references import svg_glyph, svg_glyphs_reference, write_view_reference


def _write_data(tmp_path, rng, n=24, p=3):
    x = DataMatrix(
        rng.standard_normal((n, p)), tuple(f"v{i}" for i in range(p))
    )
    path = tmp_path / "data.csv"
    write_csv(x, path)
    return path, x


def _tiny_manifest(tmp_path, data_path, **overrides):
    kwargs = dict(
        data_path=str(data_path),
        benchmark=BenchmarkSpec(kind="permutation", seed=7),
        out_dir=str(tmp_path / "out"),
        dim=2,
        index_cfg=IndexConfig(n_nodes=8, n_nodes_refine=16),
        search_cfg=SearchConfig(restarts=2, max_iterations=4, rng_seed=3),
    )
    kwargs.update(overrides)
    return RunManifest(**kwargs)


class TestCanonicalJson:
    def test_sorted_keys(self):
        text = dumps_canonical({"zeta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_floats_roundtrip(self):
        payload = {"values": [0.1, 1.0 / 3.0, 1e300, -2.5e-17, 0.0]}
        back = json.loads(dumps_canonical(payload))
        assert back == payload

    def test_numpy_values(self):
        text = dumps_canonical({"a": np.float64(0.5), "b": np.int64(3), "c": np.arange(2)})
        assert json.loads(text) == {"a": 0.5, "b": 3, "c": [0, 1]}

    def test_trailing_newline_and_stability(self):
        payload = {"b": [1, 2], "a": None, "flag": True}
        text = dumps_canonical(payload)
        assert text.endswith("\n")
        assert text == dumps_canonical(json.loads(text))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical({"a": object()})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float32("nan")])
    def test_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError):
            dumps_canonical({"a": [1.0, value]})


class TestRunManifest:
    def test_dict_roundtrip(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng)
        manifest = _tiny_manifest(tmp_path, path, standardize=True)
        back = RunManifest.from_dict(manifest.to_dict())
        assert back.to_dict() == manifest.to_dict()

    def test_every_config_field_roundtrips(self, tmp_path):
        anneal = AnnealConfig(t0=2.0, cooling=0.9, step_scale0=0.25, step_decay=0.5)
        geodesic = GeodesicConfig(max_angle=0.5, shrink=0.5, min_angle=0.01, n_probes=3)
        index_cfg = IndexConfig(
            k=2.5, n_nodes=7, n_nodes_refine=70, sobol_skip=4, median_tol=1e-9
        )
        search_cfg = SearchConfig(
            optimizer="geodesic",
            restarts=3,
            max_iterations=5,
            rng_seed=8,
            anneal=anneal,
            geodesic=geodesic,
        )
        for cfg in (index_cfg, search_cfg, anneal, geodesic):
            for f in fields(cfg):
                default = f.default if f.default is not MISSING else f.default_factory()
                assert getattr(cfg, f.name) != default, f"{type(cfg).__name__}.{f.name}"
        manifest = _tiny_manifest(
            tmp_path,
            "data.csv",
            label_column="lab",
            dim=3,
            index_cfg=index_cfg,
            search_cfg=search_cfg,
            standardize=True,
        )
        manifest.save(tmp_path / "m.json")
        assert RunManifest.load(tmp_path / "m.json") == manifest
        raw = manifest.to_dict()
        assert set(raw["index"]) == {f.name for f in fields(IndexConfig)}
        assert set(raw["search"]) == {f.name for f in fields(SearchConfig)}
        assert set(raw["search"]["anneal"]) == {f.name for f in fields(AnnealConfig)}
        assert set(raw["search"]["geodesic"]) == {f.name for f in fields(GeodesicConfig)}
        assert IndexConfig(**raw["index"]) == index_cfg

    def test_save_load_bytes_stable(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng)
        manifest = _tiny_manifest(tmp_path, path)
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        manifest.save(m1)
        RunManifest.load(m1).save(m2)
        assert m1.read_bytes() == m2.read_bytes()

    def test_unknown_field_rejected(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng)
        raw = _tiny_manifest(tmp_path, path).to_dict()
        raw["surprise"] = 1
        with pytest.raises(ConfigError):
            RunManifest.from_dict(raw)

    def test_missing_required_field(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng)
        raw = _tiny_manifest(tmp_path, path).to_dict()
        del raw["benchmark"]
        with pytest.raises(ConfigError):
            RunManifest.from_dict(raw)

    def test_bad_nested_setting(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng)
        raw = _tiny_manifest(tmp_path, path).to_dict()
        raw["index"]["k"] = -1.0
        with pytest.raises(ConfigError):
            RunManifest.from_dict(raw)

    def test_sobol_skip_past_distinct_points_rejected(self, tmp_path):
        raw = _tiny_manifest(tmp_path, "data.csv").to_dict()
        raw["index"]["sobol_skip"] = 2**32
        with pytest.raises(ConfigError, match="sobol_skip"):
            RunManifest.from_dict(raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "standardize", "false"),
            (None, "standardize", 0),
            (None, "dim", 2.7),
            (None, "dim", "3"),
            (None, "dim", True),
            (None, "out_dir", 5),
            ("index", "n_nodes", 8.5),
            ("index", "k", True),
            ("search", "restarts", True),
        ],
    )
    def test_scalar_of_wrong_json_type_rejected(self, tmp_path, section, key, value):
        """No coercion: each scalar setting must have its field's JSON type."""
        raw = _tiny_manifest(tmp_path, "data.csv").to_dict()
        (raw[section] if section else raw)[key] = value
        with pytest.raises(ConfigError, match=key):
            RunManifest.from_dict(raw)

    def test_integer_taken_for_float_field(self, tmp_path):
        raw = _tiny_manifest(tmp_path, "data.csv").to_dict()
        raw["index"]["k"] = 2
        raw["label_column"] = None
        assert RunManifest.from_dict(raw).index_cfg.k == 2.0

    @pytest.mark.parametrize("dim", [0, 4])
    def test_dim_outside_1_to_3_rejected(self, tmp_path, dim):
        with pytest.raises(ConfigError, match="dim must be 1, 2 or 3"):
            _tiny_manifest(tmp_path, "data.csv", dim=dim)
        raw = _tiny_manifest(tmp_path, "data.csv").to_dict()
        raw["dim"] = dim
        with pytest.raises(ConfigError, match=f"dim must be 1, 2 or 3, got {dim}"):
            RunManifest.from_dict(raw)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunManifest.load(path)


class TestRun:
    def test_outputs_and_report(self, tmp_path, rng):
        path, x = _write_data(tmp_path, rng)
        manifest = _tiny_manifest(tmp_path, path)
        report = run(manifest)
        out = tmp_path / "out"

        assert report.restarts_requested == 2
        assert report.restarts_completed == len(report.solutions) == 2
        scores = [float(s.search_index) for s in report.solutions]
        assert scores == sorted(scores, reverse=True)
        assert not report.degenerate

        for rank, entry in enumerate(report.files):
            stem = f"solution_{rank:02d}"
            assert entry["frame_csv"] == f"{stem}_frame.csv"
            for name in entry.values():
                assert (out / name).is_file()
        assert (out / "report.json").is_file()

        # coords: header + one row per point of each side
        coords = (out / "solution_00_coords.csv").read_text().splitlines()
        assert len(coords) == 1 + 2 * x.n
        assert coords[0] == "source,c1,c2"

        frame_lines = (out / "solution_00_frame.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in frame_lines[1:]] == list(x.column_names)

    def test_report_roundtrip(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng)
        report = run(_tiny_manifest(tmp_path, path))
        loaded = SolutionReport.load(tmp_path / "out" / "report.json")
        assert len(loaded.solutions) == len(report.solutions)
        for a, b in zip(loaded.solutions, report.solutions):
            assert np.array_equal(a.frame.matrix, b.frame.matrix)
            assert float(a.search_index) == float(b.search_index)
            assert float(a.refined_index) == float(b.refined_index)
            assert a.restart_id == b.restart_id and a.seed == b.seed
        # saving the reconstruction reproduces the file byte for byte
        loaded.save(tmp_path / "report2.json")
        assert (tmp_path / "report2.json").read_bytes() == (
            tmp_path / "out" / "report.json"
        ).read_bytes()

    @pytest.mark.parametrize("missing", [False, True], ids=["wrong", "missing"])
    @pytest.mark.parametrize(
        "key, wrong",
        [
            ("degenerate", True),
            ("nonconverged", True),
            ("restarts_requested", 3),
            ("restarts_completed", 1),
            ("files", {"frame_csv": "solution_00_frame.csv"}),
        ],
    )
    def test_load_rejects_missing_or_wrong_derived_value(self, tmp_path, rng, key, wrong,
                                                         missing):
        path, _ = _write_data(tmp_path, rng)
        run(_tiny_manifest(tmp_path, path))
        raw = json.loads((tmp_path / "out" / "report.json").read_text())
        holder = raw["solutions"][1] if key == "files" else raw
        if missing:
            del holder[key]
        else:
            holder[key] = wrong
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="not a benchpursuit report"):
            SolutionReport.load(bad)

    @pytest.mark.parametrize(
        "field, value, message",
        [("center", [], "center must be nonempty"), ("median", None, "NoneType")],
    )
    def test_load_rejects_a_region_without_its_median(self, tmp_path, rng, field, value,
                                                      message):
        path, _ = _write_data(tmp_path, rng)
        run(_tiny_manifest(tmp_path, path))
        raw = json.loads((tmp_path / "out" / "report.json").read_text())
        raw["solutions"][0]["refined_index"]["region"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"not a benchpursuit report.*{message}"):
            SolutionReport.load(bad)

    @pytest.mark.parametrize(
        "out_dir, start", [("runs/B", "."), ("./runs/B", "."), ("B", "runs"), (".", "runs/B")]
    )
    def test_relocate_reads_data_from_where_the_run_started(self, tmp_path, out_dir, start):
        report = SolutionReport(_tiny_manifest(tmp_path, "d.csv", out_dir=out_dir), [])
        moved = relocate(report, tmp_path / "runs" / "B" / "report.json")
        assert moved.manifest.out_dir == str(tmp_path / "runs" / "B")
        assert moved.manifest.data_path == str(tmp_path / start / "d.csv")

    @pytest.mark.parametrize("out_dir", ["/elsewhere/B", "../B", "runs/C"])
    def test_relocate_keeps_data_path_when_run_directory_unknown(self, tmp_path, out_dir):
        report = SolutionReport(_tiny_manifest(tmp_path, "d.csv", out_dir=out_dir), [])
        moved = relocate(report, tmp_path / "runs" / "B" / "report.json")
        assert moved.manifest.out_dir == str(tmp_path / "runs" / "B")
        assert moved.manifest.data_path == "d.csv"

    def test_rerun_is_deterministic(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng)
        run(_tiny_manifest(tmp_path, path, out_dir=str(tmp_path / "a")))
        run(_tiny_manifest(tmp_path, path, out_dir=str(tmp_path / "b")))
        for name in (
            "solution_00_frame.csv",
            "solution_00_coords.csv",
            "solution_00_combined.svg",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_views_are_written_in_the_calling_process(self, tmp_path, rng, monkeypatch):
        """On one CPU and on two this process writes the views; every file has
        the same bytes, report.json apart from out_dir."""
        path, _ = _write_data(tmp_path, rng)
        real = pipeline._write_views
        writers = []

        def spy(*args):
            writers.append(os.getpid())
            real(*args)

        monkeypatch.setattr(pipeline, "_write_views", spy)
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "cpus", lambda: cpus)
            run(_tiny_manifest(tmp_path, path, out_dir=str(tmp_path / f"cpus{cpus}")))
        assert writers == [os.getpid()] * 2
        assert_no_child_left()
        one, two = tmp_path / "cpus1", tmp_path / "cpus2"
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir()) and len(names) == 9
        for name in names:
            a, b = (one / name).read_bytes(), (two / name).read_bytes()
            if name == "report.json":
                a = a.replace(str(one).encode(), str(two).encode())
            assert a == b, name

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_refine_failure_writes_no_views(self, tmp_path, rng, monkeypatch, cpus):
        """A failed refine leaves neither views nor report.json, on any CPU count."""
        monkeypatch.setattr(_fork, "cpus", lambda: cpus)

        def fails(*args):
            raise DataError("refine failed")

        monkeypatch.setattr(pipeline, "refine_index", fails)
        path, _ = _write_data(tmp_path, rng)
        with pytest.raises(PipelineError, match="stage 'refine': refine failed"):
            run(_tiny_manifest(tmp_path, path))
        assert_no_child_left()
        assert not (tmp_path / "out" / "report.json").exists()
        assert not list(tmp_path.glob("out/solution_*"))

    def test_degenerate_flag(self, tmp_path, rng):
        path, _ = _write_data(tmp_path, rng, n=12)
        manifest = _tiny_manifest(
            tmp_path,
            path,
            benchmark=BenchmarkSpec(kind="external", path=str(path)),
        )
        report = run(manifest)
        assert report.degenerate
        assert all(float(s.search_index) == 0.0 for s in report.solutions)

    def test_nonconverged_flag(self, tmp_path, rng, monkeypatch):
        # With no iterations allowed, no tolerance is met by rounding luck.
        monkeypatch.setattr(
            spatial, "spatial_median", functools.partial(spatial.spatial_median, max_iter=0)
        )
        path, _ = _write_data(tmp_path, rng, n=12)
        manifest = _tiny_manifest(
            tmp_path,
            path,
            index_cfg=IndexConfig(n_nodes=8, n_nodes_refine=16, median_tol=1e-30),
        )
        report = run(manifest)
        assert report.nonconverged

    def test_stage_named_on_failure(self, tmp_path):
        manifest = _tiny_manifest(tmp_path, tmp_path / "missing.csv")
        with pytest.raises(PipelineError) as err:
            run(manifest)
        assert "ingest" in str(err.value)


class TestSplitAndProject:
    def _report_with_frame(self, tmp_path, rng, matrix):
        path, x = _write_data(tmp_path, rng, n=10, p=matrix.shape[0])
        manifest = _tiny_manifest(tmp_path, path)
        frame = ProjectionFrame(matrix)
        median = SpatialMedianResult(np.zeros(matrix.shape[1]), 0.0, 0, True)
        region = RegionSpec(median, base_radius=1.0, multiplier=1.0)
        sol = SolutionProjection(
            frame=frame,
            search_index=IndexValue(value=0.5, n_nodes_used=8, region=region),
            restart_id=0,
            iterations_used=0,
            seed=3,
        )
        report = SolutionReport(manifest=manifest, solutions=[sol])
        return report, x

    def test_hand_partition(self, tmp_path, rng):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        report, x = self._report_with_frame(tmp_path, rng, matrix)
        split = split_and_project(report, 0, data=x)
        # default threshold sqrt(d/p) = sqrt(2/3); unit rows land high
        assert split.threshold == pytest.approx(np.sqrt(2.0 / 3.0))
        assert list(split.low_rows) == [2]
        assert list(split.high_rows) == [0, 1]
        assert np.array_equal(split.high_frame, matrix[[0, 1]])
        assert np.array_equal(split.high_sample.points, x.values[:, [0, 1]] @ matrix[[0, 1]])
        assert np.array_equal(split.low_sample.points, np.zeros((x.n, 2)))

    def test_threshold_override(self, tmp_path, rng):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        report, x = self._report_with_frame(tmp_path, rng, matrix)
        split = split_and_project(report, 0, data=x, threshold=0.0)
        # ties go high: every row norm >= 0
        assert list(split.high_rows) == [0, 1, 2]
        assert list(split.low_rows) == []

    def test_files_written(self, tmp_path, rng):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        report, x = self._report_with_frame(tmp_path, rng, matrix)
        split = split_and_project(report, 0, data=x)
        out = tmp_path / "out"
        assert sorted(split.files) == [
            "highnorm_coords_csv",
            "highnorm_frame_csv",
            "highnorm_svg",
            "lownorm_coords_csv",
            "lownorm_frame_csv",
            "lownorm_svg",
        ]
        for name in split.files.values():
            assert (out / name).is_file()
        high_frame = (out / split.files["highnorm_frame_csv"]).read_text().splitlines()
        assert [line.split(",")[0] for line in high_frame[1:]] == ["v0", "v1"]

    def test_solution_out_of_range(self, tmp_path, rng):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        report, x = self._report_with_frame(tmp_path, rng, matrix)
        with pytest.raises(DataError, match=r"solution 1 outside \[0, 0\]"):
            split_and_project(report, 1, data=x)

    def test_dimension_mismatch(self, tmp_path, rng):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        report, _ = self._report_with_frame(tmp_path, rng, matrix)
        wrong = DataMatrix(rng.standard_normal((5, 4)), ("a", "b", "c", "d"))
        with pytest.raises(DataError, match="data has 4 columns but frame has 3 rows"):
            split_and_project(report, 0, data=wrong)

    def test_default_data_from_manifest(self, tmp_path, rng):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        report, x = self._report_with_frame(tmp_path, rng, matrix)
        split = split_and_project(report, 0)
        assert np.array_equal(
            split.high_sample.points, x.values[:, [0, 1]] @ matrix[[0, 1]]
        )


# Label cells that csv.writer quotes (comma, quote, newline, carriage
# return) or might (leading and trailing spaces), with ``%`` signs for the
# row templates, an empty label and non-ASCII text.
_LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "  lead", "trail ", "%s %d %%", "",
           "plain", "é ü"]


class TestViewBytes:
    """The coordinates CSV, formatted a block of rows at a time, has the
    bytes of csv.writer writing one row at a time (tests/references.py)."""

    @staticmethod
    def _write_both(tmp_path, samples, d, label_name="class"):
        rng = np.random.default_rng(d)
        matrix = rng.standard_normal((4, d))
        variables = ["x,1", "y", 'z"', " w"]
        files = {"frame_csv": "frame.csv", "coords_csv": "coords.csv"}
        for name, write in (("new", pipeline._write_view), ("ref", write_view_reference)):
            (tmp_path / name).mkdir()
            write(tmp_path / name, files, matrix, variables, samples, label_name)
        for name in files.values():
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    @pytest.mark.parametrize("case", ["unlabelled", "labelled", "mixed"])
    @pytest.mark.parametrize("d, n", [(1, 4097), (2, 1), (2, 4095), (2, 4096), (3, 4097)])
    def test_coordinates_csv_has_csv_writer_bytes(self, tmp_path, case, d, n):
        rng = np.random.default_rng(n * 3 + d)
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
        edge = np.array([-0.0, 0.0, 5e-324, 0.1, 1e300, -2.5e-308, 1.0, 123456789.0])
        pts.flat[: min(pts.size, len(edge))] = edge[: pts.size]
        bench = rng.standard_normal((n // 2 + 3, d))
        labels = tuple(_LABELS[i % len(_LABELS)] + str(i % 7) * (i % 3) for i in range(n))
        bench_labels = tuple(_LABELS[::-1][i % len(_LABELS)] for i in range(len(bench)))
        samples = [
            (labels if case != "unlabelled" else None, ProjectedSample(pts, source="data")),
            (bench_labels if case == "labelled" else None,
             ProjectedSample(bench, source="bench,%d")),
        ]
        self._write_both(tmp_path, samples, d)

    def test_split_and_project_keeps_its_bytes(self, tmp_path, rng, monkeypatch):
        """split_and_project's six files, labelled rows included, have the
        bytes of the row-at-a-time CSVs and glyph-at-a-time SVGs."""
        x = DataMatrix(rng.standard_normal((4100, 3)), ("v0", "v1", "v2"),
                       row_labels=tuple(_LABELS[i % len(_LABELS)] for i in range(4100)),
                       label_name="kind")
        frame = ProjectionFrame(np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]]))
        median = SpatialMedianResult(np.zeros(2), 0.0, 0, True)
        sol = SolutionProjection(
            frame=frame,
            search_index=IndexValue(value=0.5, n_nodes_used=8,
                                    region=RegionSpec(median, base_radius=1.0, multiplier=1.0)),
            restart_id=0, iterations_used=0, seed=3,
        )
        written = {}
        for name in ("new", "ref"):
            if name == "ref":
                monkeypatch.setattr(pipeline, "_write_view", write_view_reference)
                monkeypatch.setattr(svgplot, "_glyphs", svg_glyphs_reference)
                monkeypatch.setattr(svgplot, "_glyph", svg_glyph)
            manifest = _tiny_manifest(tmp_path, tmp_path / "unused.csv", out_dir=str(tmp_path / name))
            split = split_and_project(SolutionReport(manifest=manifest, solutions=[sol]), 0, data=x)
            written[name] = {f: (tmp_path / name / f).read_bytes() for f in split.files.values()}
        assert len(written["new"]) == 6 and written["new"] == written["ref"]

    def test_views_are_streamed_to_their_files(self, tmp_path, rng):
        """Tracing allocations, a 20 000 x 6 pair's views at d = 2 (a 3.6 MB
        combined SVG) peaked at 4.4 MB: each file is written a block at a
        time. Whole documents in memory had peaked at 11.6 MB."""
        x = DataMatrix(rng.standard_normal((20_000, 6)), tuple(f"v{i}" for i in range(6)))
        bench = DataMatrix(rng.permuted(x.values, axis=0), x.column_names)
        frame = ProjectionFrame(np.linalg.qr(rng.standard_normal((6, 2)))[0])
        median = SpatialMedianResult(np.zeros(2), 0.0, 0, True)
        sol = SolutionProjection(
            frame=frame,
            search_index=IndexValue(value=0.5, n_nodes_used=8,
                                    region=RegionSpec(median, base_radius=1.0, multiplier=1.0)),
            restart_id=0, iterations_used=0, seed=3,
        )
        report = SolutionReport(_tiny_manifest(tmp_path, "unused.csv"), [sol])
        tracemalloc.start()
        try:
            pipeline._write_views(tmp_path / "out", report, x, bench)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out" / "solution_00_combined.svg").stat().st_size > 3e6
        assert peak < 6e6, f"the views peaked at {peak / 1e6:.2f} MB"

    def test_run_keeps_its_bytes(self, tmp_path, rng, monkeypatch):
        """A whole run's views, written in blocks, equal those written one row
        and one glyph at a time; report.json equal apart from out_dir."""
        path, _ = _write_data(tmp_path, rng, n=40)
        monkeypatch.setattr(_fork, "cpus", lambda: 1)
        run(_tiny_manifest(tmp_path, path, out_dir=str(tmp_path / "new")))
        monkeypatch.setattr(pipeline, "_write_view", write_view_reference)
        monkeypatch.setattr(svgplot, "_glyphs", svg_glyphs_reference)
        monkeypatch.setattr(svgplot, "_glyph", svg_glyph)
        run(_tiny_manifest(tmp_path, path, out_dir=str(tmp_path / "ref")))
        new, ref = tmp_path / "new", tmp_path / "ref"
        names = sorted(p.name for p in new.iterdir())
        assert names == sorted(p.name for p in ref.iterdir()) and len(names) == 9
        for name in names:
            a = (new / name).read_bytes()
            if name == "report.json":
                a = a.replace(str(new).encode(), str(ref).encode())
            assert a == (ref / name).read_bytes(), name
