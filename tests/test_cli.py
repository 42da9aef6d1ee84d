import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import benchpursuit
from benchpursuit import optimize, projection_index, spatial
from benchpursuit.benchmarks import lcg_triplets
from benchpursuit.cli import main, parse_benchmark
from benchpursuit.dataio import ingest_csv, write_csv
from benchpursuit.errors import ConfigError
from benchpursuit.frames import DataMatrix


@pytest.fixture
def data_csv(tmp_path, rng):
    x = DataMatrix(
        rng.standard_normal((20, 3)),
        ("v0", "v1", "v2"),
        row_labels=tuple("t" if i % 2 else "n" for i in range(20)),
        label_name="tissue",
    )
    path = tmp_path / "data.csv"
    write_csv(x, path)
    return path


def _run_args(data_csv, out_dir, *extra):
    return [
        "run",
        "--data", str(data_csv),
        "--label-column", "tissue",
        "--benchmark", "permute:7",
        "--out", str(out_dir),
        "--restarts", "2",
        "--iterations", "4",
        "--qmc-points", "8",
        "--qmc-refine", "16",
        "--seed", "3",
        *extra,
    ]


class TestParseBenchmark:
    def test_file(self):
        spec = parse_benchmark("file:/tmp/b.csv")
        assert spec.kind == "external" and spec.path == "/tmp/b.csv"

    def test_permute(self):
        spec = parse_benchmark("permute:17")
        assert spec.kind == "permutation" and spec.seed == 17

    def test_class(self):
        spec = parse_benchmark("class:tissue=tumor")
        assert spec.kind == "class_split"
        assert spec.label_column == "tissue" and spec.level == "tumor"

    def test_lcg_two_part(self):
        spec = parse_benchmark("lcg:randu,1")
        assert spec.kind == "lcg" and spec.generator == "randu"
        assert spec.seed == 1 and spec.n_rows is None

    def test_lcg_with_rows(self):
        spec = parse_benchmark("lcg:minstd,5,400")
        assert spec.generator == "minstd" and spec.n_rows == 400

    @pytest.mark.parametrize(
        "text",
        [
            "file",
            "permute:",
            "permute:xyz",
            "class:nocol",
            "class:=tumor",
            "lcg:randu",
            "lcg:randu,a",
            "lcg:randu,1,2,3",
            "magic:1",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_benchmark(text)


class TestRunCommand:
    def test_flags_only(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        assert (out / "report.json").is_file()
        stdout = capsys.readouterr().out
        assert "rank" in stdout and "report.json" in stdout

    def test_manifest_route(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        report = json.loads((out / "report.json").read_text())
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(report["manifest"]))
        out2 = tmp_path / "out2"
        assert main(["run", "--manifest", str(manifest_path), "--out", str(out2)]) == 0
        assert (out2 / "report.json").is_file()

    def test_flags_override_manifest(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        manifest_path = tmp_path / "m.json"
        report = json.loads((out / "report.json").read_text())
        manifest_path.write_text(json.dumps(report["manifest"]))
        out2 = tmp_path / "out2"
        code = main(
            ["run", "--manifest", str(manifest_path), "--out", str(out2), "--restarts", "3"]
        )
        assert code == 0
        report2 = json.loads((out2 / "report.json").read_text())
        assert report2["restarts_requested"] == 3
        assert report2["manifest"]["search"]["restarts"] == 3

    @pytest.mark.parametrize(
        "flag, value, section, key, expected",
        [
            ("--data", "data.csv", None, "data", "data.csv"),
            ("--label-column", "v0", None, "label_column", "v0"),
            ("--benchmark", "class:tissue=1", None, "benchmark",
             {"kind": "class_split", "label_column": "tissue", "level": "1"}),
            ("--dim", "1", None, "dim", 1),
            ("--standardize", None, None, "standardize", True),
            ("--out", "out3", None, "out_dir", "out3"),
            ("--k", "2.5", "index", "k", 2.5),
            ("--qmc-points", "11", "index", "n_nodes", 11),
            ("--qmc-refine", "33", "index", "n_nodes_refine", 33),
            ("--restarts", "3", "search", "restarts", 3),
            ("--iterations", "6", "search", "max_iterations", 6),
            ("--optimizer", "geodesic", "search", "optimizer", "geodesic"),
            ("--seed", "41", "search", "rng_seed", 41),
        ],
    )
    def test_config_flag_overrides_manifest(
        self, data_csv, tmp_path, monkeypatch, flag, value, section, key, expected
    ):
        """Each run flag lands in its manifest key, and only there."""
        monkeypatch.chdir(tmp_path)
        # Numeric tissue codes, so that either tissue or v0 can be the label column.
        x = ingest_csv(data_csv, label_column="tissue")
        codes = tuple("1" if label == "t" else "0" for label in x.row_labels)
        write_csv(DataMatrix(x.values, x.column_names, codes, "tissue"), "codes.csv")
        assert main(_run_args("codes.csv", "out")) == 0
        manifest = json.loads(Path("out", "report.json").read_text())["manifest"]
        manifest["out_dir"] = "out2"
        Path("m.json").write_text(json.dumps(manifest))
        flag_args = [flag] if value is None else [flag, value]
        assert main(["run", "--manifest", "m.json", *flag_args]) == 0
        (manifest[section] if section else manifest)[key] = expected
        report = json.loads(Path(manifest["out_dir"], "report.json").read_text())
        assert report["manifest"] == manifest

    @pytest.mark.parametrize(
        "settings",
        [
            {"search": {"anneal": {"t0": -1.0}}},
            {"search": {"geodesic": {"surprise": 1}}},
            {"dim": "x"},
            {"dim": 4},
            {"index": {"k": float("inf")}},
            {"search": {"anneal": {"t0": float("nan")}}},
        ],
        ids=["bad-anneal-value", "unknown-geodesic-key", "non-integer-dim", "dim-4", "k-inf",
             "t0-nan"],
    )
    def test_bad_manifest_setting_exits_1(self, data_csv, tmp_path, capsys, settings):
        manifest = {
            "data": str(data_csv),
            "label_column": "tissue",
            "benchmark": {"kind": "permutation", "seed": 7},
            "out_dir": str(tmp_path / "o"),
            **settings,
        }
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [True, 7.5, "7"])
    def test_manifest_benchmark_scalar_not_coerced_exits_1(self, data_csv, tmp_path, capsys,
                                                           seed):
        manifest = {
            "data": str(data_csv),
            "label_column": "tissue",
            "benchmark": {"kind": "permutation", "seed": seed},
            "out_dir": str(tmp_path / "o"),
            "index": {"n_nodes": 8, "n_nodes_refine": 16},
            "search": {"restarts": 1, "max_iterations": 2},
        }
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("settings", [{"standardize": "false"}, {"dim": 2.7}])
    def test_manifest_scalar_not_coerced_exits_1(self, data_csv, tmp_path, capsys, settings):
        """A manifest that would run but for one scalar of the wrong JSON type."""
        manifest = {
            "data": str(data_csv),
            "label_column": "tissue",
            "benchmark": {"kind": "permutation", "seed": 7},
            "out_dir": str(tmp_path / "o"),
            "index": {"n_nodes": 8, "n_nodes_refine": 16},
            "search": {"restarts": 1, "max_iterations": 2},
            **settings,
        }
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(manifest_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_dim_4_flag_exits_1(self, data_csv, tmp_path, capsys):
        assert main(_run_args(data_csv, tmp_path / "o", "--dim", "4")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dim" in err
        assert not (tmp_path / "o").exists()

    def test_dim_above_data_columns_exits_2(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        write_csv(DataMatrix(np.arange(20.0).reshape(10, 2) % 7, ("a", "b")), data)
        out = tmp_path / "o"
        code = main(["run", "--data", str(data), "--benchmark", "permute:1", "--out", str(out),
                     "--dim", "3", "--restarts", "2", "--iterations", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'search'") and err.count("\n") == 1
        assert not (out / "report.json").exists()

    def test_missing_required_flag(self, data_csv, tmp_path, capsys):
        code = main(["run", "--data", str(data_csv), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--benchmark" in capsys.readouterr().err

    def test_bad_benchmark_flag(self, data_csv, tmp_path):
        args = _run_args(data_csv, tmp_path / "o")
        args[args.index("permute:7")] = "magic:1"
        assert main(args) == 1

    @pytest.mark.parametrize("flag", ["lcg:randu,0", "lcg:minstd,2147483647", "permute:-1"])
    def test_benchmark_seed_out_of_range_exits_1(self, tmp_path, capsys, flag):
        """Rejected with the other settings, before the data is read."""
        data = tmp_path / "randu.csv"
        write_csv(lcg_triplets("randu", seed=1, n=20), data)
        out = tmp_path / "o"
        code = main(["run", "--data", str(data), "--benchmark", flag, "--out", str(out),
                     "--restarts", "1", "--iterations", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed must be" in err
        assert not (out / "report.json").exists()

    def test_bad_flag_value(self, data_csv, tmp_path):
        assert main(_run_args(data_csv, tmp_path / "o", "--restarts", "0")) == 1

    def test_data_as_its_own_benchmark_is_degenerate(self, tmp_path, rng, capsys):
        data = tmp_path / "plain.csv"
        write_csv(DataMatrix(rng.standard_normal((20, 3)), ("v0", "v1", "v2")), data)
        args = ["run", "--data", str(data), "--benchmark", f"file:{data}",
                "--out", str(tmp_path / "o"), "--restarts", "2", "--iterations", "4",
                "--qmc-points", "8", "--qmc-refine", "16"]
        assert main(args) == 0
        assert "degenerate run: every solution scored exactly zero" in capsys.readouterr().out

    def test_unparseable_data_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,huh\n")
        code = main(
            ["run", "--data", str(bad), "--benchmark", "permute:1",
             "--out", str(tmp_path / "o"), "--restarts", "1", "--iterations", "2"]
        )
        assert code == 2

    def test_missing_data_file_exits_2(self, tmp_path):
        code = main(
            ["run", "--data", str(tmp_path / "nope.csv"), "--benchmark", "permute:1",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_negative_seed_exits_1_before_the_data_is_read(self, tmp_path, capsys):
        code = main(
            ["run", "--data", str(tmp_path / "nope.csv"), "--benchmark", "permute:1",
             "--out", str(tmp_path / "o"), "--seed", "-1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rng_seed must be at least 0" in err

    def test_nonconvergence_exits_3(self, data_csv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        # With no iterations allowed, no tolerance is met by rounding luck.
        monkeypatch.setattr(
            spatial, "spatial_median", functools.partial(spatial.spatial_median, max_iter=0)
        )
        report = json.loads((out / "report.json").read_text())
        report["manifest"]["index"]["median_tol"] = 1e-30
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(report["manifest"]))
        out2 = tmp_path / "out2"
        code = main(["run", "--manifest", str(manifest_path), "--out", str(out2)])
        assert code == 3
        # outputs are still written
        assert (out2 / "report.json").is_file()
        assert "median" in capsys.readouterr().err

    def test_failed_restart_is_logged_and_counted(self, data_csv, tmp_path, capsys, caplog,
                                                  monkeypatch):
        real_search = optimize.anneal_search
        calls = []

        def second_call_fails(*args):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("forced failure")
            return real_search(*args)

        monkeypatch.setattr(optimize, "anneal_search", second_call_fails)
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out, "--restarts", "3")) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["restarts_completed"], report["restarts_requested"]) == (2, 3)
        assert sorted(s["restart_id"] for s in report["solutions"]) == [0, 2]
        assert "(2/3 restarts)" in capsys.readouterr().out
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "restart 1 (seed 4) failed: forced failure" in warnings[0].getMessage()

    def test_failed_restart_in_a_worker_is_logged_and_counted(self, data_csv, tmp_path,
                                                              capsys, caplog, monkeypatch):
        """The same run with its restarts on worker processes: the worker
        returns the failure and the parent logs it."""
        monkeypatch.setattr(optimize, "_POOL_PAIRS", 0)
        monkeypatch.setattr(optimize, "_cpus", lambda: 2)
        pools = []
        real_pool = optimize._on_workers
        monkeypatch.setattr(optimize, "_on_workers", lambda *a: pools.append(a) or real_pool(*a))
        real_search = optimize.anneal_search

        def seed_4_fails(objective, start, cfg, rng):
            if rng.bit_generator.seed_seq.entropy == 4:
                raise ValueError("forced failure")
            return real_search(objective, start, cfg, rng)

        monkeypatch.setattr(optimize, "anneal_search", seed_4_fails)
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out, "--restarts", "3")) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["restarts_completed"], report["restarts_requested"]) == (2, 3)
        assert sorted(s["restart_id"] for s in report["solutions"]) == [0, 2]
        assert "(2/3 restarts)" in capsys.readouterr().out
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "restart 1 (seed 4) failed: forced failure" in warnings[0].getMessage()
        assert len(pools) == 1

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "view-writer"])
    def test_report_write_failure_exits_2(self, data_csv, tmp_path, capsys, monkeypatch, cpus):
        """A directory where solution_00_data.svg goes: one error line names
        stage 'report' and the file, no report.json is written, and no child
        process is left, whether the views are written here or in a child."""
        monkeypatch.setattr(projection_index, "_cpus", lambda: cpus)
        out = tmp_path / "out"
        (out / "solution_00_data.svg").mkdir(parents=True)
        assert main(_run_args(data_csv, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'report': ") and err.count("\n") == 1
        assert str(out / "solution_00_data.svg") in err
        assert not (out / "report.json").exists()
        assert multiprocessing.active_children() == []

    def test_class_benchmark_names_the_label_column(self, data_csv, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--data", str(data_csv), "--benchmark", "class:tissue=t",
                "--out", str(out), "--restarts", "1", "--iterations", "2",
                "--qmc-points", "8", "--qmc-refine", "16"]
        assert main(args) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["label_column"] is None
        frame = (out / "solution_00_frame.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in frame[1:]] == ["v0", "v1", "v2"]
        coords = (out / "solution_00_coords.csv").read_text().splitlines()
        assert coords[0] == "tissue,source,c1,c2"
        # the 10 "t" rows are the data side, the 10 "n" rows the benchmark
        assert sorted(line.split(",")[:2] for line in coords[1:]) == (
            [["n", "benchmark"]] * 10 + [["t", "data"]] * 10
        )

    def test_class_column_after_byte_order_mark(self, data_csv, tmp_path):
        """A CSV saved as Excel's "CSV UTF-8" starts with a byte-order mark."""
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
        out = tmp_path / "out"
        args = ["run", "--data", str(bom_csv), "--benchmark", "class:tissue=t",
                "--out", str(out), "--restarts", "1", "--iterations", "2",
                "--qmc-points", "8", "--qmc-refine", "16"]
        assert main(args) == 0
        assert (out / "report.json").is_file()

    def test_dim_1_writes_report(self, tmp_path):
        data = tmp_path / "randu.csv"
        write_csv(lcg_triplets("randu", seed=1, n=400), data)
        out = tmp_path / "out"
        code = main(
            ["run", "--data", str(data), "--benchmark", "lcg:minstd,1", "--out", str(out),
             "--dim", "1", "--restarts", "2", "--iterations", "10"]
        )
        assert code in (0, 3)
        assert (out / "report.json").is_file()


class TestFilterCommand:
    def test_keep_labels(self, data_csv, tmp_path, capsys):
        out = tmp_path / "kept.csv"
        code = main(
            ["filter", "--data", str(data_csv), "--label-column", "tissue",
             "--labels", "t", "--mode", "keep", "--out", str(out)]
        )
        assert code == 0
        kept = ingest_csv(out, label_column="tissue")
        assert kept.n == 10 and set(kept.row_labels) == {"t"}
        assert "10 of 20" in capsys.readouterr().out

    def test_remove_by_index_file(self, data_csv, tmp_path):
        idx = tmp_path / "rows.txt"
        idx.write_text("0\n1\n2\n")
        out = tmp_path / "kept.csv"
        code = main(
            ["filter", "--data", str(data_csv), "--label-column", "tissue",
             "--index-file", str(idx), "--out", str(out)]
        )
        assert code == 0
        original = ingest_csv(data_csv, label_column="tissue")
        kept = ingest_csv(out, label_column="tissue")
        assert np.array_equal(kept.values, original.values[3:])
        # the same file as a spreadsheet program saves it, after a byte-order mark
        idx.write_bytes(b"\xef\xbb\xbf" + idx.read_bytes())
        assert main(["filter", "--data", str(data_csv), "--label-column", "tissue",
                     "--index-file", str(idx), "--out", str(out)]) == 0
        assert np.array_equal(ingest_csv(out, label_column="tissue").values, original.values[3:])

    def test_selector_required(self, data_csv, tmp_path):
        base = ["filter", "--data", str(data_csv), "--out", str(tmp_path / "o.csv")]
        assert main(base) == 1
        assert main(base + ["--labels", "t", "--index-file", "x"]) == 1

    def test_unknown_label_exits_2(self, data_csv, tmp_path):
        code = main(
            ["filter", "--data", str(data_csv), "--label-column", "tissue",
             "--labels", "zz", "--mode", "keep", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_bad_index_file(self, data_csv, tmp_path):
        idx = tmp_path / "rows.txt"
        idx.write_text("zero\n")
        code = main(
            ["filter", "--data", str(data_csv), "--label-column", "tissue",
             "--index-file", str(idx), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1

    def test_empty_result_exits_2(self, data_csv, tmp_path):
        code = main(
            ["filter", "--data", str(data_csv), "--label-column", "tissue",
             "--labels", "t,n", "--mode", "remove", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2


class TestSplitCommand:
    def test_split_after_run(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        capsys.readouterr()
        code = main(["split", "--report", str(out / "report.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "threshold" in stdout
        for tag in ("lownorm", "highnorm"):
            assert (out / f"solution_00_{tag}.svg").is_file()
            assert (out / f"solution_00_{tag}_frame.csv").is_file()
            assert (out / f"solution_00_{tag}_coords.csv").is_file()

    def test_threshold_flag(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        capsys.readouterr()
        code = main(
            ["split", "--report", str(out / "report.json"), "--threshold", "0.25"]
        )
        assert code == 0
        assert "threshold 0.25" in capsys.readouterr().out

    def test_relative_paths_from_another_directory(self, data_csv, tmp_path, monkeypatch):
        """split reads the run's relative data path and writes beside the report."""
        monkeypatch.chdir(tmp_path)
        Path("lab.csv").write_bytes(data_csv.read_bytes())
        assert main(_run_args("lab.csv", "runs/B")) == 0
        before = set(os.listdir("runs/B"))
        Path("sub").mkdir()
        monkeypatch.chdir("sub")
        assert main(["split", "--report", "../runs/B/report.json"]) == 0
        assert sorted(set(os.listdir("../runs/B")) - before) == [
            f"solution_00_{tag}{suffix}"
            for tag in ("highnorm", "lownorm")
            for suffix in (".svg", "_coords.csv", "_frame.csv")
        ]
        assert os.listdir(".") == []

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_bad_threshold_exits_1(self, data_csv, tmp_path, capsys, threshold):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        before = sorted(os.listdir(out))
        capsys.readouterr()
        code = main(["split", "--report", str(out / "report.json"), "--threshold", threshold])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "threshold" in captured.err and captured.out == ""
        assert sorted(os.listdir(out)) == before

    def test_solution_out_of_range_exits_2(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        code = main(["split", "--report", str(out / "report.json"), "--solution", "9"])
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",
            '{"solutions": []}',
            '{"manifest": {"data": "d.csv", "benchmark": {"kind": "permutation", "seed": 7},'
            ' "out_dir": "o"}}',
        ],
        ids=["invalid-json", "not-an-object", "no-manifest", "no-solutions"],
    )
    def test_not_a_report_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["split", "--report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda sol: sol.update(refined_index=None),
            lambda sol: sol.pop("refined_index"),
            lambda sol: sol.pop("duplicate_of"),
        ],
        ids=["null-refined-index", "no-refined-index", "no-duplicate-of"],
    )
    def test_solution_without_its_refine_exits_1(self, data_csv, tmp_path, capsys, edit):
        """Every run refines each solution and writes both keys."""
        out = tmp_path / "out"
        assert main(_run_args(data_csv, out)) == 0
        raw = json.loads((out / "report.json").read_text())
        edit(raw["solutions"][0])
        bad = out / "bad.json"
        bad.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["split", "--report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a benchpursuit report" in err

    def test_missing_report_exits_2(self, tmp_path):
        assert main(["split", "--report", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--benchmark", "permute:1", "--out", "o"],
        ["filter", "--index-file", "idx.txt", "--out", "f.csv"],
    ],
    ids=["run", "filter"],
)
def test_repeated_column_name_exits_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    Path("dup.csv").write_text("a,a,b\n1,2,3\n4,5,6\n")
    Path("idx.txt").write_text("0\n")
    assert main([*args, "--data", "dup.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and err.count("\n") == 1
    assert "dup.csv" in err and "'a'" in err


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--benchmark", "permute:1", "--out", "o"],
        ["filter", "--index-file", "idx.txt", "--out", "f.csv"],
    ],
    ids=["run", "filter"],
)
def test_no_numeric_column_exits_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    Path("onlylab.csv").write_text("class\nA\nB\n")
    Path("idx.txt").write_text("0\n")
    assert main([*args, "--data", "onlylab.csv", "--label-column", "class"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and err.count("\n") == 1
    assert "onlylab.csv" in err


@pytest.fixture
def bad_inputs(tmp_path, monkeypatch):
    """In a fresh working directory: a Latin-1 CSV, a JSON file holding byte
    0xff, 60 x 3 data whose index underflows on every frame, and the report of
    a run on that data in which every restart failed."""
    monkeypatch.chdir(tmp_path)
    rows = "".join(f"{i},{i % 7},{i % 3}\n" for i in range(30))
    Path("latin1.csv").write_bytes(("caf\xe9,b,c\n" + rows).encode("latin-1"))
    Path("ff.json").write_bytes(b'{"data": "\xff"}\n')
    Path("idx.txt").write_text("0\n")
    tiny = np.random.default_rng(5).standard_normal((60, 3)) * 1e-300
    write_csv(DataMatrix(tiny, ("a", "b", "c")), "tiny.csv")
    main(["run", "--data", "tiny.csv", "--benchmark", "permute:3", "--restarts", "2",
          "--iterations", "3", "--out", "failed"])


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["filter", "--data", "latin1.csv", "--index-file", "idx.txt", "--out", "f.csv"], 2,
         "error: latin1.csv: not UTF-8 text (byte 0xe9: invalid continuation byte)"),
        (["run", "--manifest", "ff.json"], 1,
         "error: manifest ff.json is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        (["split", "--report", "ff.json"], 1,
         "error: ff.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (["run", "--data", "latin1.csv", "--benchmark", "permute:3", "--out", "o"], 2,
         "error in stage 'ingest': latin1.csv: not UTF-8 text (byte 0xe9"),
        (["run", "--data", "tiny.csv", "--benchmark", "file:latin1.csv", "--out", "o"], 2,
         "error in stage 'benchmark': latin1.csv: not UTF-8 text (byte 0xe9"),
        (["run", "--data", "tiny.csv", "--benchmark", "permute:3", "--restarts", "2",
          "--iterations", "3", "--out", "o"], 2,
         "error: every restart failed (0/2 completed)"),
        (["split", "--report", "failed/report.json"], 2,
         "error: the report has no solutions: every restart failed (0/2 completed)"),
    ],
    ids=["filter-latin1-data", "run-ff-manifest", "split-ff-report", "run-latin1-data",
         "run-latin1-benchmark", "run-every-restart-fails", "split-report-without-solutions"],
)
def test_undecodable_file_or_failed_run_gives_one_error_line(bad_inputs, capsys, args, code,
                                                             message):
    assert main(args) == code
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith(message)


def test_run_where_every_restart_fails_writes_its_report(bad_inputs, capsys):
    args = ["run", "--data", "tiny.csv", "--benchmark", "permute:3", "--restarts", "2",
            "--iterations", "3", "--out", "o"]
    assert main(args) == 2
    assert capsys.readouterr().out.splitlines() == [
        "wrote o/report.json (0/2 restarts)",
        f"{'rank':>4} {'restart':>7} {'search':>12} {'refined':>12}  note",
    ]
    report = json.loads(Path("o/report.json").read_text())
    assert (report["restarts_completed"], report["solutions"]) == (0, [])


@pytest.mark.parametrize(
    "args", [["run", "--dim", "x"], ["run", "--optimizer", "bogus"], ["bogus"], []]
)
def test_usage_error_exits_1(args, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_module_entry_help():
    # The child finds the package where this process found it, installed or not.
    src = str(Path(benchpursuit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "benchpursuit", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
