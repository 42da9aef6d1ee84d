"""The seed study on one workload and seed, and the scripts the README names."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
NAME = "class-geodesic-3d"


def _study(*args, cwd):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seed_study.py"), "--workload", NAME,
         "--seeds", "110", *args], capture_output=True, text=True, cwd=cwd, timeout=300)
    assert proc.stdout, proc.stderr
    return proc.returncode, proc.stderr, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("study")
    code, err, result = _study(cwd=cwd)
    assert code == 0, err
    return cwd, result


def test_hits_are_the_checks_of_the_written_report(study, monkeypatch):
    cwd, result = study
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import checks
    import workloads

    run_dir = cwd / "runs" / "seed-study" / f"{NAME}-s110"
    values, _ = workloads.read_input(str(run_dir / "input.csv"))
    report = checks.load_report(run_dir / "out")
    hits = sum(checks.recovered(NAME, np.asarray(s["frame"]), values) for s in report["solutions"])
    [run] = result["workloads"][NAME]["runs"]
    assert run["exit"] == 0 and run["hits"] == hits == result["workloads"][NAME]["hits"]
    assert report["manifest"]["search"]["rng_seed"] == 110


def test_against_itself_shows_no_difference(study):
    cwd, result = study
    (cwd / "saved.json").write_text(json.dumps(result))
    code, err, again = _study("--against", "saved.json", cwd=cwd)
    assert code == 0 and f"{NAME}: 0 differences over 1 seeds" in err
    assert again == result


def test_against_more_hits_fails(study):
    cwd, result = study
    edited = json.loads(json.dumps(result))
    edited["workloads"][NAME]["runs"][0]["hits"] += 100
    (cwd / "more.json").write_text(json.dumps(edited))
    code, err, _ = _study("--against", "more.json", cwd=cwd)
    assert code == 1 and "WORSE" in err


@pytest.fixture
def seed_study(monkeypatch):
    """scripts/seed_study.py as a module; the paths it adds go after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("seed_study", ROOT / "scripts" / "seed_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _saved(best_index):
    runs = [{"seed": 100 + 10 * i, "hits": 1, "best_index": b} for i, b in enumerate(best_index)]
    return {"workloads": {NAME: {"runs": runs}}}


@pytest.mark.parametrize("lower, tied, code", [
    (0, 20, 0),  # identical runs
    (11, 0, 0),  # lower at 11 of 20, higher at 9: p = 0.41, though the median falls
    (15, 0, 1),  # lower at 15 of 20: p = 0.021
    (5, 15, 1),  # lower at all 5 seeds that differ: p = 0.031
])
def test_sign_test_on_the_best_index(seed_study, capsys, lower, tied, code):
    before = [100.0 + i for i in range(20)]
    after = [b - 1.0 if i < lower else b if i < lower + tied else b + 1.0
             for i, b in enumerate(before)]
    assert seed_study.compare(_saved(after), _saved(before)) == code
    err = capsys.readouterr().err
    assert f"lower at {lower} of {20 - tied} seeds that differ" in err
    assert ("WORSE" in err) == bool(code)
    if lower == 11:
        assert "median best index 109.5 -> 108.5" in err


def test_sign_p_is_the_binomial_tail(seed_study):
    assert seed_study.sign_p([1.0] * 3, [1.0] * 3) == (0, 0, 1.0)
    assert seed_study.sign_p([2.0] * 4, [1.0, 1.0, 1.0, 3.0]) == (3, 4, 5 / 16)


def test_scripts_named_in_the_readme_exist():
    named = set(re.findall(r"scripts/\w+\.py", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert named and all((ROOT / path).is_file() for path in named)
