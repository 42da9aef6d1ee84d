"""Show that every output check fails on a deliberately corrupted run.

    python3 bench/selftest.py

For each workload this runs one `run` command at seed 1, checks that the untouched
outputs pass, then copies them and applies one corruption at a time (a
scaled index, a rotated or skewed frame, an edited CSV cell, a moved centre,
an asymmetric index function, frames turned away from the planted
structure, differing reruns). Each corruption must make its named check fail.
Prints one line per case and exits non-zero if any case is not caught.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import benchpursuit  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from run import _round  # noqa: E402

SEED = 1


def _edit_report(out: Path, edit) -> None:
    report = checks.load_report(out)
    edit(report, checks.best_solution(report))
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")


def _set_frame(out: Path, pos: int, frame: np.ndarray) -> None:
    """Put ``frame`` into solution ``pos`` of report.json and its frame CSV."""

    def edit(report, best):
        report["solutions"][pos]["frame"] = frame.tolist()

    _edit_report(out, edit)
    sol = checks.load_report(out)["solutions"][pos]
    path = out / sol["files"]["frame_csv"]
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [lines[0]] + [
        ",".join([line.split(",")[0]] + [repr(float(v)) for v in frame[i]])
        for i, line in enumerate(lines[1:])
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _away(basis: np.ndarray, p: int, d: int) -> np.ndarray:
    """A p x d frame orthogonal to the columns of ``basis``."""
    full = np.linalg.qr(np.column_stack([basis, np.eye(p)]))[0]
    return full[:, basis.shape[1]:basis.shape[1] + d]


def _cases(name: str):
    """(label, check expected to fail, corruption of (input_csv, out_dir))."""

    def scale_refined(inp, out):
        _edit_report(out, lambda r, b: r["solutions"][b]["refined_index"].update(
            value=r["solutions"][b]["refined_index"]["value"] * 1.05))

    def scale_search(inp, out):
        _edit_report(out, lambda r, b: r["solutions"][b]["search_index"].update(
            value=r["solutions"][b]["search_index"]["value"] * 1.01))

    def rotate_frame(inp, out):
        report = checks.load_report(out)
        best = checks.best_solution(report)
        frame = np.asarray(report["solutions"][best]["frame"])
        other = _away(frame, frame.shape[0], 1)[:, 0]
        angle = np.radians(5.0)
        rotated = frame.copy()
        rotated[:, 0] = np.cos(angle) * frame[:, 0] + np.sin(angle) * other
        _set_frame(out, best, rotated)

    def skew_frame(inp, out):
        report = checks.load_report(out)
        pos = len(report["solutions"]) - 1
        frame = np.asarray(report["solutions"][pos]["frame"])
        frame[0, 0] *= 1.001
        _set_frame(out, pos, frame)

    def edit_coords(inp, out):
        sol = checks.load_report(out)["solutions"][checks.best_solution(checks.load_report(out))]
        path = out / sol["files"]["coords_csv"]
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-3)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def move_centre(inp, out):
        def edit(report, best):
            region = report["solutions"][best]["refined_index"]["region"]
            region["center"][0] += 0.01 * region["base_radius"]
        _edit_report(out, edit)

    def asymmetric_index(inp, out):
        original = benchpursuit.index

        def index(frame, x, y, cfg=None):
            value = original(frame, x, y, cfg)
            return dataclasses.replace(value, value=value.value + 1e-12 * x.n)

        benchpursuit.index = index

    cases = [
        ("scaled refined index", "index_vs_grid", scale_refined),
        ("scaled search index", "index_symmetric", scale_search),
        ("frame rotated by 5 deg", "coords_match_input", rotate_frame),
        ("frame entry scaled by 1.001", "frames_orthonormal", skew_frame),
        ("coords CSV cell edited", "coords_match_input", edit_coords),
        ("centre moved by 1% of radius", "median_optimal", move_centre),
        ("asymmetric index function", "index_symmetric", asymmetric_index),
        ("reruns differ", "reruns_identical", None),
    ]
    if name == "randu-anneal":
        def edit_triple(inp, out):
            lines = inp.read_text(encoding="utf-8").splitlines()
            cells = lines[1].split(",")
            cells[2] = repr(float(cells[2]) + 2.0**-31)
            lines[1] = ",".join(cells)
            inp.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def turn_frames(inp, out):
            n = len(checks.load_report(out)["solutions"])
            for pos in range(n):
                _set_frame(out, pos, _away(wl.LATTICE_NORMAL[:, None], 3, 2))

        cases += [("RANDU triple edited", "randu_lattice_triples", edit_triple),
                  ("frames orthogonal to the lattice normal", "randu_lattice_hits", turn_frames)]
    elif name == "class-geodesic-3d":
        def turn_best(inp, out):
            values, _ = wl.read_input(str(inp))
            report = checks.load_report(out)
            _set_frame(out, checks.best_solution(report),
                       _away(checks.class_basis(values), wl.CLASS_COLUMNS, 3))

        cases.append(("best frame orthogonal to the planted subspace",
                      "class_planted_subspace", turn_best))
    else:
        def turn_best(inp, out):
            pair = np.eye(wl.PERMUTE_COLUMNS)[:, list(wl.PERMUTE_PAIR)]
            report = checks.load_report(out)
            _set_frame(out, checks.best_solution(report), _away(pair, wl.PERMUTE_COLUMNS, 2))

        cases.append(("best frame off the planted pair", "permute_planted_pair", turn_best))
    return cases


def _failed(name, seed, inp, out, digests=None) -> set[str]:
    return {c for c, ok, _ in checks.run_checks(name, seed, inp, out, digests) if not ok}


def main() -> int:
    missed = 0
    for name in wl.WORKLOADS:
        base = ROOT / "runs" / "bench" / "selftest" / name
        shutil.rmtree(base, ignore_errors=True)
        (base / "out").mkdir(parents=True)
        wl.make_input(name, SEED, str(base / "input.csv"))
        _round(wl.WORKLOADS[name].argv(SEED, str(base / "input.csv"), str(base / "out")), None)
        clean = _failed(name, SEED, base / "input.csv", base / "out")
        verdict = "pass" if not clean else "FAIL " + ", ".join(sorted(clean))
        print(f"{name}: untouched outputs {verdict}")
        missed += bool(clean)
        for label, check, corrupt in _cases(name):
            case = base / "case"
            shutil.rmtree(case, ignore_errors=True)
            shutil.copytree(base / "out", case / "out")
            shutil.copy(base / "input.csv", case / "input.csv")
            digests = ["a", "b"] if corrupt is None else None
            original = benchpursuit.index
            if corrupt is not None:
                corrupt(case / "input.csv", case / "out")
            try:
                failed = _failed(name, SEED, case / "input.csv", case / "out", digests)
            finally:
                benchpursuit.index = original
            caught = check in failed
            missed += not caught
            print(f"  {'caught' if caught else 'MISSED'}: {label} -> {check} fails"
                  f" (failing: {', '.join(sorted(failed)) or 'none'})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
