import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

import benchpursuit as bp
from benchpursuit import (
    _fork,
    AnnealConfig,
    DataMatrix,
    GeodesicConfig,
    IndexConfig,
    ProjectionFrame,
    SearchConfig,
    optimize,
    projection_index,
)
from benchpursuit.benchmarks import BenchmarkSpec
from benchpursuit.dataio import write_csv
from benchpursuit.errors import ConfigError, PipelineError
from benchpursuit.optimize import _GeodesicPath, largest_principal_angle, flag_duplicates
from benchpursuit.pipeline import RunManifest, run
from conftest import assert_no_child_left
from oracles import random_orthogonal


def _frobenius_objective(target):
    def objective(frame):
        return -float(np.sum((frame.matrix - target.matrix) ** 2))

    return objective


class TestConfigs:
    def test_search_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(optimizer="newton")
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(max_iterations=-1)
        with pytest.raises(ValueError, match="rng_seed"):
            SearchConfig(rng_seed=-1)
        SearchConfig(rng_seed=0)

    def test_anneal_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(t0=0.0)
        with pytest.raises(ValueError):
            AnnealConfig(cooling=1.5)
        with pytest.raises(ValueError):
            AnnealConfig(step_scale0=-1.0)

    def test_geodesic_config_validation(self):
        with pytest.raises(ValueError):
            GeodesicConfig(max_angle=0.0)
        with pytest.raises(ValueError):
            GeodesicConfig(shrink=1.0)
        with pytest.raises(ValueError):
            GeodesicConfig(n_probes=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (IndexConfig, "k"),
            (IndexConfig, "median_tol"),
            (AnnealConfig, "t0"),
            (AnnealConfig, "step_scale0"),
            (GeodesicConfig, "max_angle"),
            (GeodesicConfig, "min_angle"),
        ],
    )
    def test_non_finite_setting_is_rejected(self, cls, name, value):
        """Built from Python as from a manifest: infinite k or median_tol
        would integrate over an infinite ball or stop the median at once."""
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})


class TestRandomFrame:
    def test_shape_and_orthonormal(self, rng):
        f = bp.random_frame(6, 3, rng)
        assert f.p == 6 and f.d == 3
        assert np.abs(f.matrix.T @ f.matrix - np.eye(3)).max() < 1e-10

    def test_deterministic(self):
        a = bp.random_frame(5, 2, np.random.default_rng(3))
        b = bp.random_frame(5, 2, np.random.default_rng(3))
        assert np.array_equal(a.matrix, b.matrix)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            bp.random_frame(2, 3, np.random.default_rng(0))


def _span_objective(target):
    proj = target.matrix @ target.matrix.T

    def objective(frame):
        return -float(np.linalg.norm(frame.matrix @ frame.matrix.T - proj))

    return objective


class TestSyntheticConvergence:
    """Objectives with a known optimum, from 5 random starts. Anneal moves
    frames and must land within 0.1 Frobenius of the target frame; geodesic
    search moves spans and must land within 0.01 deg of the target span."""

    def _starts(self, n=5):
        target = bp.random_frame(5, 2, np.random.default_rng(99))
        starts = [bp.random_frame(5, 2, np.random.default_rng(s)) for s in range(n)]
        return target, starts

    def test_anneal_converges(self):
        target, starts = self._starts()
        objective = _frobenius_objective(target)
        for s, start in enumerate(starts):
            sol = bp.anneal_search(
                objective, start, SearchConfig(max_iterations=200), np.random.default_rng(s)
            )
            dist = np.linalg.norm(sol.frame.matrix - target.matrix)
            assert dist <= 0.1, f"anneal start {s}: {dist:.4f}"

    def test_geodesic_converges(self):
        # 200 starts of this kind ended at most 0.0056 deg from the target span
        target, starts = self._starts()
        objective = _span_objective(target)
        for s, start in enumerate(starts):
            sol = bp.geodesic_search(
                objective,
                start,
                SearchConfig(optimizer="geodesic", max_iterations=200),
                np.random.default_rng(s),
            )
            angle = np.degrees(largest_principal_angle(sol.frame, target))
            assert angle <= 0.01, f"geodesic start {s}: {angle:.5f} deg"


class TestAnnealSearch:
    def test_constant_objective_returns_start_value(self):
        start = bp.random_frame(4, 2, np.random.default_rng(1))
        sol = bp.anneal_search(
            lambda f: 1.0, start, SearchConfig(max_iterations=50), np.random.default_rng(2)
        )
        assert float(sol.search_index) == 1.0
        assert sol.iterations_used == 50

    def test_trace_is_monotone_best(self):
        target = bp.random_frame(4, 2, np.random.default_rng(5))
        start = bp.random_frame(4, 2, np.random.default_rng(6))
        sol = bp.anneal_search(
            _frobenius_objective(target), start, SearchConfig(max_iterations=80), np.random.default_rng(7)
        )
        trace = np.array(sol.best_trace)
        assert len(trace) == 81
        assert np.all(np.diff(trace) >= 0.0)

    def test_deterministic(self):
        target = bp.random_frame(4, 2, np.random.default_rng(5))
        start = bp.random_frame(4, 2, np.random.default_rng(6))
        runs = [
            bp.anneal_search(
                _frobenius_objective(target),
                start,
                SearchConfig(max_iterations=40),
                np.random.default_rng(8),
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].frame.matrix, runs[1].frame.matrix)
        assert runs[0].best_trace == runs[1].best_trace

    def test_zero_iterations_scores_start(self):
        start = bp.random_frame(3, 1, np.random.default_rng(0))
        sol = bp.anneal_search(
            lambda f: 2.5, start, SearchConfig(max_iterations=0), np.random.default_rng(0)
        )
        assert float(sol.search_index) == 2.5
        assert np.array_equal(sol.frame.matrix, start.matrix)

    def test_zero_temperature_rejects_lower_values_without_a_draw(self):
        """With cooling 0.5 the temperature underflows to 0 at step 1075;
        from there a lower proposal is rejected and no acceptance draw made,
        so the generator has drawn one proposal per step and one acceptance
        draw per lower proposal while the temperature was positive."""
        calls = []

        def falling(frame):  # every proposal is lower than the frame before
            calls.append(frame)
            return -float(len(calls))

        start = bp.random_frame(4, 2, np.random.default_rng(0))
        cfg = SearchConfig(max_iterations=1200, anneal=AnnealConfig(cooling=0.5))
        rng = np.random.default_rng(9)
        sol = bp.anneal_search(falling, start, cfg, rng)
        assert sol.frame is start and float(sol.search_index) == -1.0
        assert sol.iterations_used == 1200
        want = np.random.default_rng(9)
        for i in range(1200):
            want.standard_normal((4, 2))
            if 0.5**i > 0:
                want.random()
        assert 0.5**1074 > 0 == 0.5**1075
        assert rng.random() == want.random()


def _principal_angles(a, b):
    sig = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.sort(np.arccos(np.clip(sig, -1.0, 1.0)))


class TestGeodesicPath:
    def test_endpoints(self, rng):
        a = bp.random_frame(5, 2, rng)
        b = bp.random_frame(5, 2, rng)
        path = _GeodesicPath(a, b)
        assert np.allclose(path.at(0.0), a.matrix, atol=1e-12)
        # at(1) spans the target: the sine of the largest principal angle is
        # ||(I - B B^T) at(1)||_2; arccos of the cosine resolves only ~1e-8
        end = path.at(1.0)
        assert np.linalg.norm(end - b.matrix @ (b.matrix.T @ end), 2) < 1e-12

    def test_angles_grow_linearly_along_path(self, rng):
        a = bp.random_frame(6, 3, rng)
        b = bp.random_frame(6, 3, rng)
        tau = _principal_angles(a.matrix, b.matrix)
        path = _GeodesicPath(a, b)
        for t in (0.1, 0.37, 0.5, 0.8, 1.0):
            assert np.allclose(_principal_angles(a.matrix, path.at(t)), t * tau, atol=1e-9)

    def test_midpoint_is_orthonormal(self, rng):
        a = bp.random_frame(6, 3, rng)
        b = bp.random_frame(6, 3, rng)
        m = _GeodesicPath(a, b).at(0.37)
        assert np.abs(m.T @ m - np.eye(3)).max() < 1e-10

    def test_span_angle_against_principal_angles(self, rng):
        a = bp.random_frame(5, 2, rng)
        b = bp.random_frame(5, 2, rng)
        path = _GeodesicPath(a, b)
        expected = np.linalg.norm(_principal_angles(a.matrix, b.matrix))
        assert path.span_angle == pytest.approx(expected, abs=1e-12)


class TestGeodesicSearch:
    def test_never_worse_than_start(self):
        start = bp.random_frame(5, 2, np.random.default_rng(11))
        target = bp.random_frame(5, 2, np.random.default_rng(12))
        objective = _frobenius_objective(target)
        sol = bp.geodesic_search(
            objective,
            start,
            SearchConfig(optimizer="geodesic", max_iterations=30),
            np.random.default_rng(13),
        )
        assert float(sol.search_index) >= objective(start)

    def test_constant_objective_keeps_start(self):
        start = bp.random_frame(5, 2, np.random.default_rng(14))
        sol = bp.geodesic_search(
            lambda f: 0.0,
            start,
            SearchConfig(optimizer="geodesic", max_iterations=100),
            np.random.default_rng(15),
        )
        assert np.array_equal(sol.frame.matrix, start.matrix)
        # constant objective shrinks the angle budget to the floor quickly
        assert sol.iterations_used < 100

    def test_full_dimension_keeps_start(self):
        # at d = p every frame has the same span, so no path has a probe
        start = bp.random_frame(3, 3, np.random.default_rng(17))
        frame_objective = _frobenius_objective(bp.random_frame(3, 3, np.random.default_rng(18)))
        scored = []

        def objective(frame):
            scored.append(frame)
            return frame_objective(frame)

        sol = bp.geodesic_search(
            objective,
            start,
            SearchConfig(optimizer="geodesic", max_iterations=30),
            np.random.default_rng(19),
        )
        assert np.array_equal(sol.frame.matrix, start.matrix)
        assert len(scored) == 1

    def test_deterministic(self):
        target = bp.random_frame(4, 2, np.random.default_rng(5))
        start = bp.random_frame(4, 2, np.random.default_rng(6))
        runs = [
            bp.geodesic_search(
                _frobenius_objective(target),
                start,
                SearchConfig(optimizer="geodesic", max_iterations=25),
                np.random.default_rng(16),
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].frame.matrix, runs[1].frame.matrix)


class TestPrincipalAngle:
    def test_identical_spans(self):
        f = bp.random_frame(5, 2, np.random.default_rng(0))
        assert largest_principal_angle(f, f) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_spans(self):
        a = ProjectionFrame(np.eye(4)[:, :2])
        b = ProjectionFrame(np.eye(4)[:, 2:])
        assert largest_principal_angle(a, b) == pytest.approx(np.pi / 2)

    def test_same_span_pairs_read_zero(self):
        """Equal spans read zero to rounding; arccos of the smallest singular
        value alone read >= 1e-9 on most such pairs."""
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = bp.random_frame(5, 2, rng)
            b = ProjectionFrame(a.matrix @ random_orthogonal(2, rng))
            assert largest_principal_angle(a, b) < 1e-12

    def test_rotation_within_span_is_zero(self):
        a = ProjectionFrame(np.eye(4)[:, :2])
        q = np.array([[0.0, -1.0], [1.0, 0.0]])
        b = ProjectionFrame(a.matrix @ q)
        assert largest_principal_angle(a, b) == pytest.approx(0.0, abs=1e-7)


class TestFlagDuplicates:
    def test_flags_near_repeats(self):
        f = bp.random_frame(5, 2, np.random.default_rng(1))
        sols = [
            bp.SolutionProjection(frame=f, search_index=2.0, restart_id=0),
            bp.SolutionProjection(frame=f, search_index=1.9, restart_id=4),
            bp.SolutionProjection(
                frame=bp.random_frame(5, 2, np.random.default_rng(2)),
                search_index=1.5,
                restart_id=7,
            ),
        ]
        flag_duplicates(sols)
        assert sols[0].duplicate_of is None
        assert sols[1].duplicate_of == 0
        assert sols[2].duplicate_of is None


class TestRunSearch:
    def _data(self):
        rng = np.random.default_rng(21)
        x = DataMatrix(rng.standard_normal((30, 3)) + [2.0, 0.0, 0.0], ("a", "b", "c"))
        y = DataMatrix(rng.standard_normal((30, 3)), ("a", "b", "c"))
        return x, y

    def test_sorted_and_complete(self):
        x, y = self._data()
        sols = bp.run_search(
            x, y, d=2, search_cfg=SearchConfig(restarts=4, max_iterations=20, rng_seed=5)
        )
        assert len(sols) == 4
        vals = [float(s.search_index) for s in sols]
        assert vals == sorted(vals, reverse=True)
        assert sorted(s.restart_id for s in sols) == [0, 1, 2, 3]
        assert all(s.seed == 5 + s.restart_id for s in sols)

    def test_identical_samples_all_zero(self):
        x, _ = self._data()
        sols = bp.run_search(
            x, x, d=2, search_cfg=SearchConfig(restarts=2, max_iterations=5, rng_seed=0)
        )
        assert all(float(s.search_index) == 0.0 for s in sols)

    def test_deterministic_restarts(self):
        """Each restart derives its own seed, so a subset reruns identically."""
        x, y = self._data()
        full = bp.run_search(
            x, y, d=2, search_cfg=SearchConfig(restarts=3, max_iterations=15, rng_seed=9)
        )
        sub = bp.run_search(
            x, y, d=2, search_cfg=SearchConfig(restarts=2, max_iterations=15, rng_seed=9)
        )
        full_by_id = {s.restart_id: s for s in full}
        for s in sub:
            assert np.array_equal(s.frame.matrix, full_by_id[s.restart_id].frame.matrix)

    @pytest.mark.parametrize("d", [0, 4])
    def test_dim_outside_data_columns_raises_before_any_restart(self, d):
        x, y = self._data()
        with pytest.raises(bp.DataError, match="3 data columns"):
            bp.run_search(x, y, d=d, search_cfg=SearchConfig(restarts=2, max_iterations=2))

    def test_search_uses_configured_node_count(self):
        x, y = self._data()
        sols = bp.run_search(
            x,
            y,
            d=2,
            idx_cfg=IndexConfig(n_nodes=17),
            search_cfg=SearchConfig(restarts=1, max_iterations=4, rng_seed=0),
        )
        assert sols[0].search_index.n_nodes_used == 17


@pytest.fixture
def pooled(monkeypatch):
    """Every search of two or more restarts, or of one geodesic restart,
    runs on worker processes, and every index in this process uses the SDF
    helper, on any machine; the list records the worker count of each pool
    started. Afterwards the helper is closed and no child may be left."""
    started = []
    real = optimize._on_workers

    def spy(job, restart_ids, workers):
        started.append(workers)
        return real(job, restart_ids, workers)

    monkeypatch.setattr(_fork, "TASK_PAIRS", 0)
    monkeypatch.setattr(_fork, "cpus", lambda: 2)
    monkeypatch.setattr(optimize, "_on_workers", spy)
    yield started
    assert_no_child_left()


def _fingerprint(solutions):
    return [
        (s.restart_id, s.seed, s.frame.matrix.tobytes(), float(s.search_index).hex(),
         s.search_index.region.center.tobytes(), s.best_trace, s.iterations_used,
         s.duplicate_of)
        for s in solutions
    ]


def _fail_on_seed(monkeypatch, seed, error):
    """anneal_search raises ``error`` in the restart drawing from ``seed``."""
    real = optimize.anneal_search

    def search(objective, start, cfg, rng):
        if rng.bit_generator.seed_seq.entropy == seed:
            raise error
        return real(objective, start, cfg, rng)

    monkeypatch.setattr(optimize, "anneal_search", search)


def _no_pool(*args):
    raise AssertionError("restart pool started")


def _search_in_daemon(x, y, cfg, want):
    """Runs in a daemonic forked child; a mismatch exits non-zero."""
    assert _fingerprint(bp.run_search(x, y, d=2, search_cfg=cfg)) == want


class TestRestartPool:
    """run_search runs its restarts on forked workers above a work gate; the
    pool changes no bit, and leaves no process behind."""

    def _data(self, p=4):
        rng = np.random.default_rng(31)
        names = tuple(f"v{i}" for i in range(p))
        x = DataMatrix(rng.standard_normal((25, p)) + np.eye(p)[0] * 1.5, names)
        y = DataMatrix(rng.standard_normal((35, p)), names)
        return x, y

    @pytest.mark.parametrize("optimizer", ["anneal", "geodesic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pool_matches_serial(self, monkeypatch, tmp_path, pooled, optimizer, d):
        """Solutions, traces and report.json bytes, run by run."""
        x, _ = self._data()
        data_path = tmp_path / "data.csv"
        write_csv(x, data_path)
        cfg = SearchConfig(optimizer=optimizer, restarts=3, max_iterations=6, rng_seed=40 + d,
                           geodesic=GeodesicConfig(n_probes=4))

        def both():
            out = tmp_path / f"out-{len(pooled)}"
            report = run(RunManifest(
                data_path=str(data_path), benchmark=BenchmarkSpec(kind="permutation", seed=5),
                out_dir=str(out), dim=d, index_cfg=IndexConfig(n_nodes=16, n_nodes_refine=32),
                search_cfg=cfg))
            return _fingerprint(report.solutions), (out / "report.json").read_bytes()

        got = both()
        assert pooled == [2]
        assert_no_child_left()
        monkeypatch.setattr(_fork, "TASK_PAIRS", math.inf)
        want = both()
        assert pooled == [2]
        assert got[0] == want[0]
        assert got[1] == want[1].replace(b"out-1", b"out-0")

    def test_subsets_of_restarts_reproduce(self, pooled):
        x, y = self._data()
        full = bp.run_search(x, y, d=2, search_cfg=SearchConfig(restarts=5, max_iterations=8,
                                                                 rng_seed=60))
        by_seed = {s.seed: s for s in full}
        for seed, restarts in ((60, 2), (62, 3), (64, 1)):
            part = bp.run_search(x, y, d=2, search_cfg=SearchConfig(
                restarts=restarts, max_iterations=8, rng_seed=seed))
            assert len(part) == restarts
            for s in part:
                assert s.frame.matrix.tobytes() == by_seed[s.seed].frame.matrix.tobytes()
                assert s.best_trace == by_seed[s.seed].best_trace
        # one anneal restart never starts a pool
        assert pooled == [2, 2, 2]

    def test_restarts_run_in_workers_without_sdf_helper(self, monkeypatch, pooled):
        """With the gate at 0 on two CPUs, the parent would use its SDF
        helper; the workers compute each index themselves, forking none."""
        x, y = self._data()
        cfg = SearchConfig(restarts=3, max_iterations=5, rng_seed=7)
        monkeypatch.setattr(_fork, "TASK_PAIRS", math.inf)
        want = _fingerprint(bp.run_search(x, y, d=2, search_cfg=cfg))
        monkeypatch.setattr(_fork, "TASK_PAIRS", 0)
        parent = os.getpid()
        real = projection_index.estimate_sdf_batch

        def in_worker_thread_only(sample, targets):
            assert os.getpid() != parent, "restart ran in the parent"
            assert os.getppid() == parent, "a worker forked an SDF helper"
            return real(sample, targets)

        monkeypatch.setattr(projection_index, "estimate_sdf_batch", in_worker_thread_only)
        assert _fingerprint(bp.run_search(x, y, d=2, search_cfg=cfg)) == want
        assert pooled == [2]

    def test_failed_restarts_are_logged_in_order(self, monkeypatch, caplog, pooled):
        x, y = self._data()
        cfg = SearchConfig(restarts=4, max_iterations=4, rng_seed=20)
        for seed in (23, 21):
            _fail_on_seed(monkeypatch, seed, ValueError(f"forced failure {seed}"))
        sols = bp.run_search(x, y, d=2, search_cfg=cfg)
        assert sorted(s.restart_id for s in sols) == [0, 2]
        messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert messages == ["restart 1 (seed 21) failed: forced failure 21",
                            "restart 3 (seed 23) failed: forced failure 23"]
        assert pooled == [2]

    def test_unsupported_dim_raises_before_any_restart(self, caplog, pooled):
        """A d the ball map does not support is a configuration error: it is
        raised up front, not logged as a failure of every restart."""
        x, y = self._data(p=5)
        cfg = SearchConfig(restarts=2, max_iterations=2)
        with pytest.raises(ConfigError, match="ball map implemented for d <= 3, got d=4"):
            bp.run_search(x, y, d=4, search_cfg=cfg)
        assert [r for r in caplog.records if "restart" in r.getMessage()] == []
        assert pooled == []

    def test_uncaught_worker_error_reaches_parent(self, monkeypatch, tmp_path, pooled):
        x, y = self._data()
        _fail_on_seed(monkeypatch, 11, RuntimeError("worker crash"))
        cfg = SearchConfig(restarts=3, max_iterations=4, rng_seed=10)
        with pytest.raises(RuntimeError, match="worker crash"):
            bp.run_search(x, y, d=2, search_cfg=cfg)
        assert_no_child_left()
        data_path = tmp_path / "data.csv"
        write_csv(x, data_path)
        manifest = RunManifest(data_path=str(data_path),
                               benchmark=BenchmarkSpec(kind="permutation", seed=5),
                               out_dir=str(tmp_path / "out"),
                               index_cfg=IndexConfig(n_nodes=8, n_nodes_refine=16),
                               search_cfg=cfg)
        with pytest.raises(PipelineError) as info:
            run(manifest)
        assert info.value.stage == "search"
        assert isinstance(info.value.cause, RuntimeError)
        assert_no_child_left()
        assert pooled == [2, 2]

    def test_dead_worker_raises(self, monkeypatch, pooled):
        """A worker that dies mid-restart (killed, say) fails the search
        instead of leaving it waiting for the lost restart."""
        real = optimize.anneal_search

        def exit_on_seed_12(objective, start, cfg, rng):
            if rng.bit_generator.seed_seq.entropy == 12:
                os._exit(3)
            return real(objective, start, cfg, rng)

        monkeypatch.setattr(optimize, "anneal_search", exit_on_seed_12)
        x, y = self._data()
        with pytest.raises(RuntimeError, match=r"^the restart worker \d \(pid \d+\) died "
                                               r"with exit status 3$"):
            bp.run_search(x, y, d=2, search_cfg=SearchConfig(restarts=3, max_iterations=4,
                                                             rng_seed=10))
        assert_no_child_left()
        assert pooled == [2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_daemonic_caller_runs_serially(self, monkeypatch):
        """A pool's worker may not start children: the search runs in it,
        several restarts and a single geodesic restart's probes alike."""
        x, y = self._data()
        cfgs = (SearchConfig(restarts=3, max_iterations=4, rng_seed=2),
                SearchConfig(optimizer="geodesic", restarts=1, max_iterations=3, rng_seed=2))
        wants = [_fingerprint(bp.run_search(x, y, d=2, search_cfg=cfg)) for cfg in cfgs]
        monkeypatch.setattr(_fork, "TASK_PAIRS", 0)
        monkeypatch.setattr(_fork, "cpus", lambda: 2)
        monkeypatch.setattr(optimize, "_on_workers", _no_pool)
        for cfg, want in zip(cfgs, wants):
            child = multiprocessing.get_context("fork").Process(
                target=_search_in_daemon, args=(x, y, cfg, want), daemon=True)
            child.start()
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
                pytest.fail("search hung in a daemonic child")
            assert child.exitcode == 0

    def test_when_the_pool_is_used(self, monkeypatch):
        """Units, CPUs, fork and the size of a task against the one gate. Two
        or more restarts are tasks of (1 + iterations x probes) evaluations,
        a single geodesic restart's probes tasks of ceil(probes / children)
        evaluations, and a single anneal restart one task; an evaluation is
        (n_x + n_y) x n_nodes pairs."""
        x, y = self._data()
        idx = IndexConfig(n_nodes=10)
        anneal = SearchConfig(restarts=3, max_iterations=4)
        geodesic = SearchConfig(optimizer="geodesic", restarts=3, max_iterations=4,
                                geodesic=GeodesicConfig(n_probes=6))
        probes = replace(geodesic, restarts=1)
        monkeypatch.setattr(_fork, "cpus", lambda: 2)
        for cfg, task in ((anneal, 5 * 60 * 10), (geodesic, 25 * 60 * 10),
                          (probes, 3 * 60 * 10)):
            monkeypatch.setattr(_fork, "TASK_PAIRS", task)
            assert optimize._workers(x, y, idx, cfg) == 2
            monkeypatch.setattr(_fork, "TASK_PAIRS", task + 1)
            assert optimize._workers(x, y, idx, cfg) == 1
        monkeypatch.setattr(_fork, "cpus", lambda: 8)
        monkeypatch.setattr(_fork, "TASK_PAIRS", 1 * 60 * 10)  # one probe per child
        assert optimize._workers(x, y, idx, probes) == 6
        monkeypatch.setattr(_fork, "TASK_PAIRS", 0)
        assert optimize._workers(x, y, idx, anneal) == 3
        assert optimize._workers(x, y, idx, geodesic) == 3
        assert optimize._workers(x, y, idx, SearchConfig(restarts=1)) == 1
        one_probe = replace(probes, geodesic=GeodesicConfig(n_probes=1))
        assert optimize._workers(x, y, idx, one_probe) == 1
        monkeypatch.setattr(_fork, "cpus", lambda: 1)
        assert optimize._workers(x, y, idx, anneal) == 1
        monkeypatch.setattr(_fork, "cpus", lambda: 2)
        monkeypatch.delattr(os, "fork", raising=False)
        assert optimize._workers(x, y, idx, anneal) == 1

    def test_choices_at_the_bench_sizes(self, monkeypatch):
        """On two CPUs, the bench workloads' choices, as the gates before the
        one rule made them, and four points of the sweep in BENCH_31.json;
        under the earlier whole-search gate the second and third went the
        other, slower way."""
        monkeypatch.setattr(_fork, "cpus", lambda: 2)
        asked = []
        real = _fork.workers

        def recorded(units, task_pairs):  # the choice made; nothing is forked
            asked.append(real(units, task_pairs))
            return 1

        monkeypatch.setattr(_fork, "workers", recorded)
        monkeypatch.setattr(projection_index, "estimate_sdf_batch", lambda sample, targets: None)

        def search(n_x, n_y, nodes, optimizer, restarts, iterations):
            x, y = (DataMatrix(np.zeros((n, 2)), ("a", "b")) for n in (n_x, n_y))
            cfg = SearchConfig(optimizer=optimizer, restarts=restarts, max_iterations=iterations)
            optimize._workers(x, y, IndexConfig(n_nodes=nodes), cfg)
            return asked.pop()

        def helper(n_x, n_y, nodes):
            projection_index._sdf_pair(np.zeros((n_x, 2)), np.zeros((n_y, 2)),
                                       np.zeros((nodes, 2)))
            return asked.pop() == 2

        # randu-anneal: 10 x 200 anneal on 400 + 400 rows at 50 nodes, refined at 5000
        assert search(400, 400, 50, "anneal", 10, 200) == 2
        assert not helper(400, 400, 50) and helper(400, 400, 5000)
        # class-geodesic-3d: 1 x 30 geodesic on 300 + 600 rows at 200 nodes, refined at 5000
        assert search(300, 600, 200, "geodesic", 1, 30) == 2
        assert not helper(300, 600, 200) and helper(300, 600, 5000)
        # permute-large: 1 x 60 anneal on 20 000 + 20 000 rows at 50 nodes, refined at 2000
        assert search(20_000, 20_000, 50, "anneal", 1, 60) == 1
        assert helper(20_000, 20_000, 50) and helper(20_000, 20_000, 2000)
        # sweep points at 50 nodes, by rows per sample
        assert search(60, 60, 50, "anneal", 2, 50) == 1
        assert search(120, 120, 50, "anneal", 2, 50) == 2
        assert search(240, 240, 50, "geodesic", 1, 10) == 1
        assert search(480, 480, 50, "geodesic", 1, 10) == 2

    def test_one_cpu_affinity_runs_serially(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(_fork, "TASK_PAIRS", 0)
        monkeypatch.setattr(optimize, "_on_workers", _no_pool)
        x, y = self._data()
        sols = bp.run_search(x, y, d=2, search_cfg=SearchConfig(restarts=3, max_iterations=3))
        assert len(sols) == 3
        geodesic = SearchConfig(optimizer="geodesic", restarts=1, max_iterations=3)
        assert len(bp.run_search(x, y, d=2, search_cfg=geodesic)) == 1


def _frame_of(call, monkeypatch, x, y, cfg):
    """The frame of the ``call``-th index evaluation of a serial search."""
    frames = []
    real = optimize.index

    def recording(frame, *args):
        frames.append(frame.matrix.tobytes())
        return real(frame, *args)

    with monkeypatch.context() as m:
        m.setattr(_fork, "TASK_PAIRS", math.inf)
        m.setattr(optimize, "index", recording)
        bp.run_search(x, y, d=2, search_cfg=cfg)
    return frames[call]


class TestProbePool:
    """A single geodesic restart scores each iteration's probes on forked
    workers; the pool changes no bit, and leaves no process behind."""

    _data = TestRestartPool._data

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        assert_no_child_left()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pool_matches_serial(self, monkeypatch, tmp_path, pooled, d):
        """Solutions, traces and report.json bytes, run by run."""
        x, _ = self._data()
        data_path = tmp_path / "data.csv"
        write_csv(x, data_path)
        cfg = SearchConfig(optimizer="geodesic", restarts=1, max_iterations=8, rng_seed=70 + d,
                           geodesic=GeodesicConfig(n_probes=5))

        def both():
            out = tmp_path / f"out-{len(pooled)}"
            report = run(RunManifest(
                data_path=str(data_path), benchmark=BenchmarkSpec(kind="permutation", seed=5),
                out_dir=str(out), dim=d, index_cfg=IndexConfig(n_nodes=16, n_nodes_refine=32),
                search_cfg=cfg))
            return _fingerprint(report.solutions), (out / "report.json").read_bytes()

        got = both()
        assert pooled == [2]
        monkeypatch.setattr(_fork, "TASK_PAIRS", math.inf)
        want = both()
        assert pooled == [2]
        assert got[0] == want[0]
        assert got[1] == want[1].replace(b"out-1", b"out-0")

    def test_failed_probe_is_logged_as_serial(self, monkeypatch, caplog, pooled):
        """A probe that raises DataError in a worker ends its restart as the
        same probe does in this process: one warning, nothing survives."""
        x, y = self._data()
        cfg = SearchConfig(optimizer="geodesic", restarts=1, max_iterations=6, rng_seed=8,
                           geodesic=GeodesicConfig(n_probes=4))
        failing = _frame_of(9, monkeypatch, x, y, cfg)
        parent = os.getpid()
        in_parent = []
        real = optimize.index

        def fails_on_one_frame(frame, *args):
            if frame.matrix.tobytes() == failing:
                in_parent.append(os.getpid() == parent)
                raise bp.DataError("forced probe failure")
            return real(frame, *args)

        monkeypatch.setattr(optimize, "index", fails_on_one_frame)
        outcomes = []
        for pool_pairs in (0, math.inf):
            monkeypatch.setattr(_fork, "TASK_PAIRS", pool_pairs)
            caplog.clear()
            sols = bp.run_search(x, y, d=2, search_cfg=cfg)
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            outcomes.append((_fingerprint(sols), warnings))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == ([], ["restart 0 (seed 8) failed: forced probe failure"])
        # the pooled run met the frame in a worker only, the serial one here
        assert in_parent == [True]
        assert pooled == [2]

    def test_dead_probe_worker_raises(self, monkeypatch, pooled):
        """A worker that dies while scoring a probe fails the search instead
        of leaving it waiting for the lost probe."""
        x, y = self._data()
        cfg = SearchConfig(optimizer="geodesic", restarts=1, max_iterations=4, rng_seed=3,
                           geodesic=GeodesicConfig(n_probes=4))
        parent = os.getpid()
        real = optimize.index

        def exit_in_worker(frame, *args):
            if os.getpid() != parent:
                os._exit(3)
            return real(frame, *args)

        monkeypatch.setattr(optimize, "index", exit_in_worker)
        with pytest.raises(RuntimeError, match=r"^the probe worker \d \(pid \d+\) died "
                                               r"with exit status 3$"):
            bp.run_search(x, y, d=2, search_cfg=cfg)
        assert pooled == [2]
