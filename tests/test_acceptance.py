"""End-to-end behavior bars for the whole package.

Each test checks one committed bar and reports a single PASS/FAIL line
through the ``acceptance`` fixture (echoed after the run summary). Seeds
are frozen; the margins quoted in the detail strings were measured when
the bars were frozen and should stay stable on any platform with IEEE
doubles.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import benchpursuit as bp
from benchpursuit import DataMatrix, IndexConfig, ProjectionFrame, SearchConfig
from benchpursuit.benchmarks import GENERATORS
from benchpursuit.dataio import write_csv
from benchpursuit.optimize import random_frame
from benchpursuit.pipeline import RunManifest, run
from benchpursuit.projection_index import refine_index
from benchpursuit.spatial import combined_region, spatial_median

from oracles import (
    brute_median_objective,
    grid_index_disc,
    median_objective,
    random_orthogonal,
)

from benchpursuit.benchmarks import BenchmarkSpec, permutation_benchmark


def test_criterion_01_index_matches_grid_integration(acceptance):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        nx = int(rng.integers(5, 11))
        ny = int(rng.integers(5, 11))
        px = rng.standard_normal((nx, 2)) * rng.uniform(0.5, 2) + rng.standard_normal(2)
        py = rng.standard_normal((ny, 2)) * rng.uniform(0.5, 2) + rng.standard_normal(2)
        x = DataMatrix(px, ("a", "b"))
        y = DataMatrix(py, ("a", "b"))
        val = float(
            refine_index(ProjectionFrame(np.eye(2)), x, y, IndexConfig(n_nodes_refine=4096))
        )
        region = combined_region(px, py, 1.0, 1e-8)
        oracle = grid_index_disc(px, py, region.center, region.effective_radius)
        worst = max(worst, abs(val - oracle) / oracle)
    acceptance.record(
        1,
        "index at 4096 nodes matches dense polar-grid integration within 1% "
        "relative on 20 random planar instances",
        worst <= 0.01,
        f"max relative gap {worst:.2e}",
    )


def test_criterion_02_identity_and_symmetry(acceptance):
    rng = np.random.default_rng(2)
    cfg = IndexConfig(n_nodes=50)
    ok = True
    for _ in range(100):
        p = int(rng.integers(2, 5))
        d = int(rng.integers(1, min(3, p) + 1))
        n = int(rng.integers(5, 16))
        m = int(rng.integers(5, 16))
        x = DataMatrix(rng.standard_normal((n, p)), tuple(f"v{i}" for i in range(p)))
        y = DataMatrix(rng.standard_normal((m, p)), tuple(f"v{i}" for i in range(p)))
        frame = random_frame(p, d, rng)
        ok = ok and float(bp.index(frame, x, x, cfg)) == 0.0
        ok = ok and float(bp.index(frame, x, y, cfg)) == float(bp.index(frame, y, x, cfg))
    acceptance.record(
        2,
        "index is exactly zero on identical samples and exactly symmetric "
        "in the two samples, 100-case sweep",
        ok,
    )


def test_criterion_03_rotation_invariance(acceptance):
    rng = np.random.default_rng(11)
    cfg = IndexConfig(n_nodes_refine=5000)
    worst = 0.0
    for _ in range(50):
        mix_x = rng.standard_normal((3, 3))
        mix_y = rng.standard_normal((3, 3))
        px = rng.standard_normal((40, 3)) @ mix_x + rng.uniform(-1, 1, 3)
        py = rng.standard_normal((40, 3)) @ mix_y + rng.uniform(-1, 1, 3) + (1.0, 0.0, 0.0)
        x = DataMatrix(px, ("a", "b", "c"))
        y = DataMatrix(py, ("a", "b", "c"))
        frame = random_frame(3, 2, rng)
        q = random_orthogonal(2, rng)
        base = float(refine_index(frame, x, y, cfg))
        rotated = float(refine_index(ProjectionFrame(frame.matrix @ q), x, y, cfg))
        worst = max(worst, abs(rotated - base) / base)
    acceptance.record(
        3,
        "rotating a frame within its own span moves the index by at most 2% "
        "relative at 5000 nodes, 50 random frame/rotation pairs",
        worst <= 0.02,
        f"max relative shift {worst:.2e}",
    )


def test_criterion_04_spatial_median_vs_grid(acceptance):
    rng = np.random.default_rng(23)
    worst_gap = -np.inf
    worst_grad = 0.0
    all_converged = True
    for _ in range(50):
        pts = rng.standard_normal((5, 2)) * rng.uniform(0.5, 2) + rng.standard_normal(2)
        res = spatial_median(pts, tol=1e-8)
        all_converged = all_converged and res.converged
        worst_grad = max(worst_grad, res.gradient_norm)
        gap = median_objective(pts, res.location) - brute_median_objective(pts, cells=2000)
        worst_gap = max(worst_gap, gap)
    acceptance.record(
        4,
        "spatial-median objective is within 1e-6 of a 2000x2000 bounding-box grid "
        "minimum with gradient norm at 1e-8, 50 random 5-point planar sets",
        all_converged and worst_grad <= 1e-8 and worst_gap <= 1e-6,
        f"max objective excess {worst_gap:.2e}, max gradient norm {worst_grad:.2e}",
    )


def test_criterion_05_randu_lattice_recovery(acceptance):
    x = bp.lcg_triplets("randu", seed=1, n=400)
    y = bp.lcg_triplets("minstd", seed=1, n=400)

    # every generated triple obeys the exact integer recurrence of the
    # multiplier 65539 stream: x3 = 6*x2 - 9*x1 (mod 2**31)
    raw = np.rint(x.values * float(GENERATORS["randu"][0])).astype(np.int64)
    identity = (6 * raw[:, 1] - 9 * raw[:, 0] - raw[:, 2]) % GENERATORS["randu"][0]
    assert np.all(identity == 0)

    sols = bp.run_search(
        x,
        y,
        d=2,
        idx_cfg=IndexConfig(k=1.0, n_nodes=50),
        search_cfg=SearchConfig(
            optimizer="anneal", restarts=10, max_iterations=200, rng_seed=100
        ),
    )
    normal = np.array([9.0, -6.0, 1.0]) / np.sqrt(118.0)
    # cosine of the angle between the lattice normal and its nearest unit
    # vector inside the solution plane
    aligns = [float(np.linalg.norm(s.frame.matrix.T @ normal)) for s in sols]
    hits = sum(a >= np.cos(np.radians(10.0)) for a in aligns)
    acceptance.record(
        5,
        "at least 3 of 10 search solutions on 400 RANDU vs 400 MINSTD triples "
        "contain a direction within 10 degrees of the lattice normal",
        hits >= 3,
        f"{hits}/10 solutions aligned, best cosines "
        + " ".join(f"{a:.4f}" for a in sorted(aligns, reverse=True)[:4]),
    )


def _correlated_pair_rep(rep: int) -> tuple[float, float, float]:
    """One paired repetition: search correlated data and its independent twin.

    Returns (best index on correlated data, squared-weight fraction its best
    frame places on the correlated variable pair, best index on independent
    data).
    """
    rng = np.random.default_rng(3000 + rep)
    z = rng.standard_normal((300, 3))
    corr = z.copy()
    corr[:, 1] = 0.9 * z[:, 0] + np.sqrt(1.0 - 0.81) * z[:, 1]
    cfg = SearchConfig(optimizer="anneal", restarts=10, max_iterations=100, rng_seed=0)
    out = {}
    for tag, vals in (("corr", corr), ("ind", z)):
        x = DataMatrix(vals, ("v1", "v2", "v3"))
        y = permutation_benchmark(x, seed=4000 + rep)
        sols = bp.run_search(x, y, d=2, idx_cfg=IndexConfig(k=2.0), search_cfg=cfg)
        w = sols[0].frame.matrix
        out[tag] = (float(sols[0].search_index), float((w[0] @ w[0] + w[1] @ w[1]) / 2.0))
    return out["corr"][0], out["corr"][1], out["ind"][0]


def test_criterion_06_correlated_pair_detection(acceptance):
    with multiprocessing.get_context("fork").Pool(5) as pool:
        reps = pool.map(_correlated_pair_rep, range(10))
    hits = sum(frac >= 0.7 and corr_val > ind_val for corr_val, frac, ind_val in reps)
    detail = ", ".join(
        f"rep {i}: frac {frac:.2f} {'>' if cv > iv else '<='} control"
        for i, (cv, frac, iv) in enumerate(reps)
    )
    acceptance.record(
        6,
        "on 300x3 Gaussian data with one pair correlated at 0.9, the best "
        "plane loads >= 0.7 of its squared weight on that pair and beats the "
        "independent control in at least 9 of 10 paired repetitions",
        hits >= 9,
        f"{hits}/10 hits; {detail}",
    )


def test_criterion_07_lcg_streams_exact(acceptance):
    # Distinct draws divided by one modulus stay distinct floats, so comparing
    # the scaled draws with the oracle's quotients is an exact comparison.
    ok = True
    for name in ("randu", "minstd"):
        modulus, multiplier = GENERATORS[name]
        draws = bp.lcg_triplets(name, seed=1, n=3334).values.ravel()
        running = 1
        for value in draws:
            running = (running * multiplier) % modulus
            ok = ok and value == running / modulus
    acceptance.record(
        7,
        "the first 10^4 draws of the seed-1 RANDU and MINSTD streams match a "
        "big-integer modular oracle exactly",
        ok,
    )


def test_criterion_08_byte_identical_reruns(acceptance, tmp_path):
    data_path = tmp_path / "randu.csv"
    write_csv(bp.lcg_triplets("randu", seed=1, n=400), data_path)
    manifest = RunManifest(
        data_path=str(data_path),
        benchmark=BenchmarkSpec(kind="lcg", generator="minstd", seed=1, n_rows=400),
        out_dir=str(tmp_path / "out"),
        dim=2,
        index_cfg=IndexConfig(k=1.0, n_nodes=50),
        search_cfg=SearchConfig(
            optimizer="anneal", restarts=10, max_iterations=200, rng_seed=100
        ),
    )
    report = run(manifest)
    out = tmp_path / "out"
    names = ["report.json"]
    for entry in report.files:
        names.extend(entry[key] for key in ("coords_csv", "data_svg", "combined_svg"))
    first = {name: (out / name).read_bytes() for name in names}

    run(manifest)
    stable = all((out / name).read_bytes() == first[name] for name in names)
    acceptance.record(
        8,
        "re-running one manifest reproduces report.json, coordinate CSVs, "
        "and SVGs byte for byte",
        stable,
        f"{len(names)} files compared",
    )


def test_criterion_09_full_scale_levels_out_of_reach(acceptance):
    reason = (
        "absolute index levels and split counts quoted for the original "
        "full-scale case studies depend on preprocessing, seeds, and "
        "normalization that were never published; the behavior they "
        "witness is covered by criteria 1-8"
    )
    acceptance.skip(9, "absolute levels of the original full-scale studies", reason)
    pytest.skip(reason)
