"""Checks of a finished `run` against computations made apart from the program.

Every check reads the files the command wrote (report.json and the best
solution's CSVs) and recomputes what they claim from the benchmark's own copy
of the input: projections, standardization, the 1-median optimality
condition and a dense-grid integration of the index. Only the exact
symmetry check calls the program, because it is a property of the program's
index function. Each check yields (name, ok, detail).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl
from oracles import grid_index_disc, sdf_loop_many

ORTHO_TOL = 1e-10
# Relative gap allowed between the refined index and the dense-grid integral;
# the QMC error of the refined index was up to 0.5% at 1000-2000 nodes on
# permute-large, and the grids below are within 1.5e-3 of finer ones.
GRID_TOL = 0.02
LATTICE_MIN_HITS = 3
LATTICE_MAX_DEG = 10.0
# Random 3-frames in R^8 lie 52 deg (median) and 38 deg (1st percentile)
# RMS from a fixed 3-d subspace.
CLASS_MAX_RMS_DEG = 35.0
PERMUTE_MIN_WEIGHT = 0.7


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def load_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def best_solution(report: dict) -> int:
    """Position of the solution with the highest refined index."""
    values = [s["refined_index"]["value"] for s in report["solutions"]]
    return int(np.argmax(values))


def sides(name: str, values: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray | None]:
    """Data and benchmark rows as the program should have built them.

    The permutation benchmark's rows are the program's own draw, so for
    permute-large only the data side is returned.
    """
    if name == "randu-anneal":
        return values, wl.minstd_triples(1, 400)
    if name == "class-geodesic-3d":
        std = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
        return std[labels == "A"], std[labels != "A"]
    return values, None


def class_basis(values: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the planted subspace in standardized coordinates.

    Standardizing maps x to D^-1 (x - m), with D the column standard
    deviations, so class A's extra spread along span(B) in raw coordinates
    lies along span(D^-1 B) after it.
    """
    return np.linalg.qr(wl.CLASS_SUBSPACE / values.std(axis=0, ddof=1)[:, None])[0]


def planted_score(name: str, frame: np.ndarray, values: np.ndarray) -> float:
    """How close one frame comes to the workload's planted structure.

    randu-anneal: angle in degrees between the lattice normal and the frame's
    span. class-geodesic-3d: root-mean-square principal angle in degrees to
    the planted subspace, carried into standardized coordinates.
    permute-large: share of the frame's squared weight on the planted pair.
    """
    if name == "randu-anneal":
        cos = float(np.linalg.norm(frame.T @ wl.LATTICE_NORMAL))
        return math.degrees(math.acos(min(cos, 1.0)))
    if name == "class-geodesic-3d":
        basis = class_basis(values)
        cos2 = float((np.linalg.svd(frame.T @ basis, compute_uv=False) ** 2).mean())
        return math.degrees(math.acos(math.sqrt(min(cos2, 1.0))))
    i, j = wl.PERMUTE_PAIR
    return float((frame[i] @ frame[i] + frame[j] @ frame[j]) / frame.shape[1])


def recovered(name: str, frame: np.ndarray, values: np.ndarray) -> bool:
    score = planted_score(name, frame, values)
    if name == "randu-anneal":
        return score <= LATTICE_MAX_DEG
    if name == "class-geodesic-3d":
        return score <= CLASS_MAX_RMS_DEG
    return score >= PERMUTE_MIN_WEIGHT


def grid_index_ball(px, py, center, radius, n_r: int, n_u: int, n_theta: int) -> float:
    """Midpoint integration of ||G_X - G_Y|| over a 3-d ball.

    Cells are midpoints in (rho, u = cos(polar angle), theta), where the
    volume element is rho^2 d_rho d_u d_theta.
    """
    rho = (np.arange(n_r) + 0.5) * (radius / n_r)
    u = -1.0 + (np.arange(n_u) + 0.5) * (2.0 / n_u)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    r, uu, th = np.meshgrid(rho, u, theta, indexing="ij")
    s = np.sqrt(1.0 - uu**2)
    nodes = np.stack([r * s * np.cos(th), r * s * np.sin(th), r * uu], axis=-1).reshape(-1, 3)
    nodes += np.asarray(center, dtype=float)
    gap = np.linalg.norm(sdf_loop_many(px, nodes) - sdf_loop_many(py, nodes), axis=1)
    cell = (radius / n_r) * (2.0 / n_u) * (2.0 * np.pi / n_theta)
    return float((gap * r.reshape(-1) ** 2).sum() * cell)


def grid_index(px: np.ndarray, py: np.ndarray, center, radius: float) -> float:
    """Dense-grid integral of the index, sized so each call takes a few seconds.

    The oracle loops over sample points, so the large workload gets a coarse
    grid; its SDF is smooth, and that grid was within 1.5e-3 of a 25 x 100 one.
    """
    pooled = len(px) + len(py)
    if px.shape[1] == 2:
        n_r, n_theta = (100, 200) if pooled <= 2000 else (12, 48)
        return grid_index_disc(px, py, center, radius, n_r=n_r, n_theta=n_theta)
    return grid_index_ball(px, py, center, radius, 24, 24, 48)


def run_checks(name: str, seed: int, input_csv: Path, out_dir: Path,
               report_digests: list[str] | None = None) -> list[tuple[str, bool, str]]:
    """All checks of one workload's outputs; returns (name, ok, detail) triples."""
    from benchpursuit import DataMatrix, IndexConfig, ProjectionFrame, index
    from benchpursuit.benchmarks import permutation_benchmark

    values, labels = wl.read_input(str(input_csv))
    x_side, y_side = sides(name, values, labels)
    report = load_report(out_dir)
    sols = report["solutions"]
    best = best_solution(report)
    sol = sols[best]
    frame = np.asarray(sol["frame"], dtype=float)
    d = frame.shape[1]
    results: list[tuple[str, bool, str]] = []

    def record(check: str, ok: bool, detail: str) -> None:
        results.append((check, bool(ok), detail))

    # Every reported frame is orthonormal, and the best one's CSV matches it.
    worst = max(
        float(np.abs(np.asarray(s["frame"]).T @ np.asarray(s["frame"]) - np.eye(d)).max())
        for s in sols
    )
    header, rows = _table(out_dir / sol["files"]["frame_csv"])
    csv_frame = np.array([r[1:] for r in rows], dtype=float)
    record("frames_orthonormal", worst <= ORTHO_TOL and np.array_equal(csv_frame, frame),
           f"max |F'F - I| {worst:.2e} over {len(sols)} frames")

    # The coordinate CSV is the input times the frame.
    header, rows = _table(out_dir / sol["files"]["coords_csv"])
    src = header.index("source")
    cells = np.array([r[src + 1:] for r in rows], dtype=float)
    source = np.array([r[src] for r in rows])
    px, py = cells[source == "data"], cells[source == "benchmark"]
    want_x = x_side @ frame
    scale = 1.0 + float(np.abs(want_x).max())
    gap_x = float(np.abs(px - want_x).max()) if px.shape == want_x.shape else math.inf
    if y_side is not None:
        want_y = y_side @ frame
        gap_y = float(np.abs(py - want_y).max()) if py.shape == want_y.shape else math.inf
    else:
        # A permutation keeps every column's sum, so the projected sums agree.
        gap_y = float(np.abs(py.sum(axis=0) - values.sum(axis=0) @ frame).max()) / len(values)
        gap_y = gap_y if len(py) == len(values) else math.inf
    labels_ok = True
    if labels is not None:
        tagged = np.array([r[0] for r in rows])
        labels_ok = bool((tagged[source == "data"] == "A").all()) and bool(
            (tagged[source == "benchmark"] != "A").all())
    record("coords_match_input", max(gap_x, gap_y) <= 1e-9 * scale and labels_ok,
           f"max gap data {gap_x:.2e}, benchmark {gap_y:.2e}, labels ok {labels_ok}")

    # The reported centre is a 1-median of the pooled projected points.
    region = sol["refined_index"]["region"]
    center = np.asarray(region["center"], dtype=float)
    pooled = np.vstack([px, py])
    dist = np.sqrt(((pooled - center) ** 2).sum(axis=1))
    at = dist <= 1e-9 * float(np.abs(pooled).max())
    pull = float(np.linalg.norm(((pooled[~at] - center) / dist[~at, None]).sum(axis=0)))
    radius_gap = abs(region["base_radius"] - float(dist.max())) / float(dist.max())
    record("median_optimal", pull <= at.sum() + 1e-6 and radius_gap <= 1e-12,
           f"|sum of unit vectors| {pull:.2e} with {int(at.sum())} coincident points, "
           f"radius rel gap {radius_gap:.1e}")

    # The refined index agrees with a dense-grid integration over that region.
    value = sol["refined_index"]["value"]
    oracle = grid_index(px, py, center, region["multiplier"] * region["base_radius"])
    rel = abs(value - oracle) / oracle
    record("index_vs_grid", rel <= GRID_TOL,
           f"refined {value:.6g}, grid {oracle:.6g}, rel gap {rel:.2e}")

    # Exact symmetry and zero self-distance of the program's index at the best frame,
    # and the reported search index is the index of the reported frame.
    names = tuple(f"v{j}" for j in range(values.shape[1]))
    x_dm = DataMatrix(x_side, names)
    y_dm = DataMatrix(y_side, names) if y_side is not None else permutation_benchmark(x_dm, seed)
    cfg = IndexConfig(**report["manifest"]["index"])
    try:
        frame_obj = ProjectionFrame(frame)
    except ValueError as err:  # the program refuses to score a frame that is not orthonormal
        record("index_symmetric", False, f"best frame cannot be scored: {err}")
    else:
        xy = index(frame_obj, x_dm, y_dm, cfg).value
        yx = index(frame_obj, y_dm, x_dm, cfg).value
        xx = index(frame_obj, x_dm, x_dm, cfg).value
        searched = sol["search_index"]["value"]
        record("index_symmetric",
               xy == yx and xx == 0.0 and abs(xy - searched) <= 1e-6 * abs(searched),
               f"I(x,y)-I(y,x) {xy - yx:.1e}, I(x,x) {xx:.1e}, "
               f"reported search index gap {xy - searched:.1e}")

    # The workload's own bar.
    score = planted_score(name, frame, values)
    if name == "randu-anneal":
        raw = values * float(wl.RANDU_MODULUS)
        ints = np.rint(raw).astype(np.int64)
        obey = (raw == ints).all(axis=1) & (
            (6 * ints[:, 1] - 9 * ints[:, 0] - ints[:, 2]) % wl.RANDU_MODULUS == 0)
        record("randu_lattice_triples", obey.all(),
               f"{int(obey.sum())}/{len(obey)} triples obey x3 = 6 x2 - 9 x1 mod 2^31")
        hits = sum(recovered(name, np.asarray(s["frame"]), values) for s in sols)
        record("randu_lattice_hits", hits >= LATTICE_MIN_HITS and len(sols) == 10,
               f"{hits}/{len(sols)} solutions within {LATTICE_MAX_DEG:g} deg of the lattice normal")
    elif name == "class-geodesic-3d":
        record("class_planted_subspace", score <= CLASS_MAX_RMS_DEG,
               f"best span {score:.1f} deg (rms principal angle) from the planted subspace")
    else:
        record("permute_planted_pair", score >= PERMUTE_MIN_WEIGHT,
               f"best plane puts {score:.3f} of its squared weight on the planted pair")

    # Only a run of several rounds has reruns to compare.
    if report_digests is not None and len(report_digests) > 1:
        record("reruns_identical", len(set(report_digests)) == 1,
               f"{len(report_digests)} reruns, {len(set(report_digests))} distinct report.json")
    return results
