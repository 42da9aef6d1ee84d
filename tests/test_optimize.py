import numpy as np
import pytest

import benchpursuit as bp
from benchpursuit import (
    AnnealConfig,
    DataMatrix,
    GeodesicConfig,
    IndexConfig,
    ProjectionFrame,
    SearchConfig,
)
from benchpursuit.optimize import _GeodesicPath, largest_principal_angle, flag_duplicates


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


class TestSyntheticConvergence:
    """Distance-to-target objective with a known optimum: from 5 random
    starts, both optimizers must land within 0.1 Frobenius of the target."""

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
        target, starts = self._starts()
        objective = _frobenius_objective(target)
        for s, start in enumerate(starts):
            sol = bp.geodesic_search(
                objective,
                start,
                SearchConfig(optimizer="geodesic", max_iterations=200),
                np.random.default_rng(s),
            )
            dist = np.linalg.norm(sol.frame.matrix - target.matrix)
            assert dist <= 0.1, f"geodesic start {s}: {dist:.4f}"


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


class TestGeodesicPath:
    def test_endpoints(self, rng):
        a = bp.random_frame(5, 2, rng)
        b = bp.random_frame(5, 2, rng)
        path = _GeodesicPath(a, b)
        assert np.allclose(path.at(0.0), a.matrix, atol=1e-12)
        assert np.allclose(path.at(1.0), b.matrix, atol=1e-9)

    def test_midpoint_is_orthonormal(self, rng):
        a = bp.random_frame(6, 3, rng)
        b = bp.random_frame(6, 3, rng)
        m = _GeodesicPath(a, b).at(0.37)
        assert np.abs(m.T @ m - np.eye(3)).max() < 1e-10

    def test_span_angle_against_principal_angles(self, rng):
        a = bp.random_frame(5, 2, rng)
        b = bp.random_frame(5, 2, rng)
        path = _GeodesicPath(a, b)
        sig = np.clip(np.linalg.svd(a.matrix.T @ b.matrix, compute_uv=False), -1, 1)
        expected = np.linalg.norm(np.arccos(sig))
        # the path may flip one target column to stay in SO(d); the span
        # angle then differs, but never below the principal-angle norm
        assert path.span_angle >= expected - 1e-9

    def test_same_span_path_rotates_basis(self):
        a = ProjectionFrame(np.eye(4)[:, :2])
        q = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
        b = ProjectionFrame(a.matrix @ q)
        path = _GeodesicPath(a, b)
        assert path.span_angle < 1e-9
        assert path.rotation_gap > 0.1
        assert np.allclose(path.at(1.0), b.matrix, atol=1e-9)


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
        with pytest.raises(bp.DimensionMismatch, match="3 data columns"):
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
