"""Smoke runs of the experiment scripts named in the README."""

import os
import re
import subprocess
import sys
from pathlib import Path

import benchpursuit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, *args, cwd):
    # The child finds the package where this process found it, installed or not.
    src = str(Path(benchpursuit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_randu_study(tmp_path):
    out = tmp_path / "randu"
    lines = _run_script(
        "randu_study.py", "--out", str(out), "--restarts", "2", "--iterations", "5",
        cwd=tmp_path,
    )
    assert lines[-1] == f"outputs in {out}/"
    assert (out / "report.json").is_file()


def test_permutation_study(tmp_path):
    lines = _run_script(
        "permutation_study.py", "--reps", "1", "--restarts", "2", "--iterations", "5",
        cwd=tmp_path,
    )
    assert re.fullmatch(
        r"[01]/1 repetitions found the correlated pair and beat the independent control",
        lines[-1],
    )
