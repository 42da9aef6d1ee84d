import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import benchpursuit as bp
from benchpursuit import spatial
from benchpursuit.errors import DataError
from benchpursuit.spatial import (
    RegionSpec,
    SpatialMedianResult,
    combined_region,
    data_radius,
    estimate_sdf_batch,
    spatial_median,
)
from oracles import (
    brute_median_objective,
    median_objective,
    sdf_loop,
    sdf_loop_many,
    weiszfeld_median,
)
from references import data_radius_reference, newton_median_reference

SCALES = st.sampled_from([1e-6, 1.0, 1e6])


def _minimizer_is_unique(pts: np.ndarray) -> bool:
    """The 1-median is unique unless the points are collinear (up to
    rounding) with an even count whose two middle positions differ."""
    centred = pts - pts[0]
    spread = np.linalg.svd(centred, compute_uv=False)
    if len(spread) > 1 and spread[1] > 1e-9 * spread[0]:
        return True
    direction = centred[int(np.argmax(np.abs(centred).sum(axis=1)))]
    along = np.sort(centred @ direction)
    half = len(along) // 2
    return len(along) % 2 == 1 or along[half - 1] == along[half]


def _check_solver(pts: np.ndarray) -> None:
    """Converged; objective no worse than the reference Weiszfeld's nor, in
    the plane, than a grid's. Where the minimizer is unique, both solvers
    run to a gradient norm of 1e-12 land within 1e-9 of the coordinate
    scale of each other (at 1e-8 an ill-conditioned set leaves either one
    up to about 6e-9 away)."""
    res = spatial_median(pts)
    assert res.converged
    ref, _ = weiszfeld_median(pts)
    f = median_objective(pts, res.location)
    assert f <= median_objective(pts, ref) * (1.0 + 1e-12)
    if pts.shape[1] == 2:
        assert f <= brute_median_objective(pts, cells=200) * (1.0 + 1e-12)
    if _minimizer_is_unique(pts):
        tight = spatial_median(pts, tol=1e-12)
        ref, ref_converged = weiszfeld_median(pts, tol=1e-12, max_iter=5000)
        assert tight.converged
        if ref_converged:
            assert np.abs(tight.location - ref).max() <= 1e-9 * np.abs(pts).max()


class TestEstimateSdf:
    def test_hand_value(self):
        """Three points, evaluated at a point coinciding with one of them.

        The coincident point contributes nothing; the two others contribute
        unit vectors (0,1) and (-2,1)/sqrt(5), averaged over all three.
        """
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [-2.0, 1.0]])
        g = estimate_sdf_batch(pts, np.array([[0.0, 0.0]]))[0]
        expected = (np.array([0.0, 1.0]) + np.array([-2.0, 1.0]) / np.sqrt(5.0)) / 3.0
        assert np.allclose(g, expected)

    def test_matches_loop_oracle(self, rng):
        pts = rng.standard_normal((17, 3))
        nodes = rng.standard_normal((29, 3))
        fast = estimate_sdf_batch(pts, nodes)
        slow = np.array([sdf_loop(pts, t) for t in nodes])
        assert np.allclose(fast, slow, atol=1e-12)

    def test_blocking_invariant(self, rng, monkeypatch):
        """Chunked evaluation must not change results."""
        import benchpursuit.spatial as spatial

        pts = rng.standard_normal((40, 2))
        nodes = rng.standard_normal((100, 2))
        full = estimate_sdf_batch(pts, nodes)
        monkeypatch.setattr(spatial, "_BLOCK_ELEMS", 64)
        tiny = estimate_sdf_batch(pts, nodes)
        assert np.array_equal(full, tiny)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("per_block", ["one", "two", "all"])
    def test_bitwise_equal_to_point_loop(self, rng, monkeypatch, d, per_block):
        """Points are summed strictly in sample order, whatever the blocking.

        A pairwise or reordered sum over the points moves the last bits, so
        exact equality with the oracle, which adds one point at a time, pins
        the order. One sample point coincides with the first target.
        """
        import benchpursuit.spatial as spatial

        pts = rng.standard_normal((300, d)) * 3.0
        nodes = rng.standard_normal((23, d))
        nodes[0] = pts[117]
        targets = {"one": 1, "two": 2, "all": len(nodes)}[per_block]
        monkeypatch.setattr(spatial, "_BLOCK_ELEMS", targets * len(pts) * d)
        expected = sdf_loop_many(pts, nodes)
        assert np.array_equal(estimate_sdf_batch(pts, nodes), expected)
        assert np.array_equal(estimate_sdf_batch(pts, nodes[0][None])[0], expected[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_target_tiles_carry_sums(self, rng, monkeypatch, d):
        """One target per tile and three points per tile, so each sum is
        carried through 34 row tiles; a coincident point sits in a late one."""
        import benchpursuit.spatial as spatial

        pts = rng.standard_normal((100, d))
        nodes = rng.standard_normal((7, d))
        nodes[2] = pts[85]
        monkeypatch.setattr(spatial, "_BLOCK_ELEMS", 3)
        assert _same_bits(estimate_sdf_batch(pts, nodes), sdf_loop_many(pts, nodes))

    def test_norm_bounded_by_one(self, rng):
        pts = rng.standard_normal((11, 2))
        g = estimate_sdf_batch(pts, rng.standard_normal((50, 2)))
        assert np.linalg.norm(g, axis=1).max() <= 1.0 + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DataError, match="sample has d=2 but targets have d=3"):
            estimate_sdf_batch(rng.standard_normal((5, 2)), rng.standard_normal((3, 3)))

    def test_vector_is_not_a_sample(self, rng):
        """Points are rows of an (n, d) array; a 1-d vector is not read as d = 1."""
        with pytest.raises(ValueError, match=r"\(n, d\) array"):
            estimate_sdf_batch(rng.standard_normal(5), rng.standard_normal((3, 1)))

    def test_far_field_is_unit_direction(self):
        # far away from the cloud every unit vector is nearly the same
        pts = np.zeros((4, 2))
        g = estimate_sdf_batch(pts, np.array([[1e9, 0.0]]))[0]
        assert np.allclose(g, [-1.0, 0.0], atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), m=st.integers(1, 200), n=st.sampled_from([1, 50, 300]),
           low=st.integers(-300, 300), high=st.integers(-300, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_differences_are_exact_at_any_scale(self, d, m, n, low, high, seed):
        """The differences formed by the kernel's matrix product have the
        bits of a plain subtraction: the result equals the point loop, run
        on the points after the kernel's power-of-two scaling, bit for bit.

        Coordinates spread over the decades between ``low`` and ``high``
        (up to 600 of them), with subnormal and signed-zero ones mixed in.
        Targets are fresh points, copies of a sample point, a point with
        one coordinate replaced, or a point moved by 1e-300 of its scale;
        300 targets take two target tiles and, past 128 points, two point
        tiles.
        """
        rng = np.random.default_rng(seed)
        low, high = min(low, high), max(low, high)

        def coords(shape):
            c = rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(low, high + 1, shape)
            c *= rng.choice([-1.0, 1.0], shape)
            special = rng.random(shape) < 0.1
            c[special] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 2.5e-320], special.sum())
            return c

        pts = coords((m, d))
        nodes = coords((n, d))
        near = pts[rng.integers(0, m, n)]
        kind = rng.integers(0, 4, n)
        nodes[kind == 1] = near[kind == 1]
        one = rng.integers(0, d, n)
        nodes[kind == 2, one[kind == 2]] = near[kind == 2, one[kind == 2]]
        tiny = np.abs(near).max(axis=1, keepdims=True) * 1e-300 * rng.standard_normal((n, d))
        nodes[kind == 3] = (near + tiny)[kind == 3]
        scale = spatial._pow2_scale(pts, nodes)
        want = sdf_loop_many(pts * scale, nodes * scale)
        assert _same_bits(estimate_sdf_batch(pts, nodes), want)


# Prints the sha256 of the SDF's bytes on fixed inputs: coordinates over 6 and
# over 600 decades, with coincident targets and targets sharing a coordinate.
_SDF_DIGEST = """
import hashlib
import numpy as np
from benchpursuit.spatial import estimate_sdf_batch
rng = np.random.default_rng(31)
digest = hashlib.sha256()
for decades in (3, 300):
    for d in (1, 2, 3):
        pts, nodes = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-decades, decades, (n, d))
                      for n in (400, 300))
        nodes[::3] = pts[:100]
        nodes[1::3, 0] = pts[100:200, 0]
        digest.update(estimate_sdf_batch(pts, nodes).tobytes())
print(digest.hexdigest())
"""


def _dynamic_openblas() -> bool:
    """Whether numpy's OpenBLAS picks its kernel at run time, so that
    ``OPENBLAS_CORETYPE`` can choose another one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH "
                    "OpenBLAS, so OPENBLAS_CORETYPE cannot switch its kernel")
def test_sdf_bits_do_not_depend_on_the_blas_kernel():
    """The SDF has the same bytes under the machine's own OpenBLAS kernel and
    under Prescott's, which has no fused multiply-add."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    digests = [subprocess.run([sys.executable, "-c", _SDF_DIGEST], env={**env, **core}, timeout=120,
                              capture_output=True, text=True, check=True).stdout
               for core in ({}, {"OPENBLAS_CORETYPE": "Prescott"})]
    assert digests[0] == digests[1] and len(digests[0]) == 65



def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSdfScratch:
    """estimate_sdf_batch's work buffer lives for one call and is written
    before it is read."""

    def test_poisoned_scratch_is_overwritten(self, rng, monkeypatch):
        """A work buffer that starts as NaN changes no bit, for d = 1-3, with
        one-target tiles (block 3) up to a whole call in one tile (2**16)."""
        import benchpursuit.spatial as spatial

        class NanEmpty:
            calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape):
                NanEmpty.calls += 1
                return np.full(shape, np.nan)

        monkeypatch.setattr(spatial, "np", NanEmpty())
        cases = [(200, 7, 3), (9, 40, 3), (30, 3, 1), (700, 5, 1), (13, 11, 2), (301, 4, 2)]
        for block in [3, 64, 600, 1 << 16]:
            monkeypatch.setattr(spatial, "_BLOCK_ELEMS", block)
            for m, n, d in cases:
                pts = rng.standard_normal((m, d))
                nodes = rng.standard_normal((n, d))
                nodes[0] = pts[m // 2]
                want = sdf_loop_many(pts, nodes)
                assert _same_bits(estimate_sdf_batch(pts, nodes), want)
                assert _same_bits(estimate_sdf_batch(pts, nodes[0][None])[0], want[0])
        assert NanEmpty.calls == 4 * 2 * len(cases)

    def test_cold_call_stays_small(self, rng):
        """A call on 20 000 points and 2 000 targets allocates one half-full
        tile (1.1 MB at d = 2, 1.3 MB at d = 3), not a (points, targets)
        block."""
        for d in (2, 3):
            pts = rng.standard_normal((20_000, d))
            nodes = rng.standard_normal((2_000, d))
            tracemalloc.start()
            try:
                estimate_sdf_batch(pts, nodes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, d

    def test_tiles_start_on_cache_lines(self, rng, monkeypatch):
        """Wherever in a 64-byte cache line the buffer starts (each of its
        eight 8-byte offsets, NaN-filled), the results keep their bits and
        every difference block that the matrix product fills starts on a
        line boundary."""
        import benchpursuit.spatial as spatial

        class Placed:
            offset = 0
            outs = []

            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape):
                raw = np.full(shape + 16, np.nan)
                skip = -(raw.__array_interface__["data"][0] // 8) % 8 + Placed.offset
                return raw[skip : skip + shape]

            def matmul(self, a, b, out):
                start = out.__array_interface__["data"][0]
                Placed.outs += [start + j * out.strides[0] for j in range(len(out))]
                return np.matmul(a, b, out=out)

        cases = [(200, 7, 3), (9, 40, 3), (30, 3, 1), (13, 11, 2), (301, 300, 2), (400, 50, 2),
                 (40, 1, 3), (1, 5, 2), (1, 1, 3)]
        data = []
        for m, n, d in cases:
            pts = rng.standard_normal((m, d))
            nodes = rng.standard_normal((n, d))
            nodes[0] = pts[m // 2]
            data.append((pts, nodes, sdf_loop_many(pts, nodes)))
        monkeypatch.setattr(spatial, "np", Placed())
        for block in [64, 600, 1 << 16]:
            monkeypatch.setattr(spatial, "_BLOCK_ELEMS", block)
            for offset in range(0, 64, 8):
                Placed.offset = offset // 8
                for pts, nodes, want in data:
                    assert _same_bits(estimate_sdf_batch(pts, nodes), want), (offset, pts.shape)
        assert Placed.outs and all(start % 64 == 0 for start in Placed.outs)

    def test_result_not_aliased(self, rng):
        pts = rng.standard_normal((60, 3))
        nodes = rng.standard_normal((25, 3))
        first = estimate_sdf_batch(pts, nodes)
        kept = first.copy()
        second = estimate_sdf_batch(rng.standard_normal((60, 3)), rng.standard_normal((25, 3)))
        assert first.flags.owndata and not np.shares_memory(first, second)
        assert _same_bits(first, kept)

    def test_threads_do_not_share_scratch(self, rng):
        """More threads than cores, switching often, each calling with its own shapes."""
        jobs = []
        for k in range(4):
            d = 1 + k % 3
            shapes = [(300 + 50 * k, 20 + 5 * k), (7 + k, 90), (400 - 60 * k, 1 + k)]
            jobs.append([(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
                         for m, n in shapes * 20])
        serial = [[estimate_sdf_batch(pts, nodes) for pts, nodes in job] for job in jobs]
        results = [None] * len(jobs)

        def work(k):
            results[k] = [estimate_sdf_batch(pts, nodes) for pts, nodes in jobs[k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial):
            assert got is not None
            assert all(_same_bits(g, w) for g, w in zip(got, want))


class TestSpatialMedian:
    def test_singleton(self):
        res = spatial_median(np.array([[3.0, -1.0]]))
        assert res.converged and res.gradient_norm == 0.0
        assert np.allclose(res.location, [3.0, -1.0])

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("where", [0.0, 1e-300, 1.0, -3.7e5, 1e300])
    def test_identical_points(self, m, d, where):
        """All points coincide: converged at the point after 0 iterations."""
        point = where * (1.0 + np.arange(d))
        res = spatial_median(np.tile(point, (m, 1)))
        assert res.converged and res.iterations == 0 and res.gradient_norm == 0.0
        assert (np.abs(res.location - point) <= np.spacing(np.abs(point))).all()

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 801, 800])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_start_has_the_bits_of_np_median(self, m, d, ties):
        """The coordinate-wise median the iteration starts from (and d = 1
        returns) has the bits of np.median, odd and even m, tied or not; the
        tied values include -0.0."""
        rng = np.random.default_rng(m * 10 + d)
        cols = rng.standard_normal((d, m)) * 1e3
        if ties:
            cols = np.round(cols / 500.0)
        got = spatial._coordinate_median(cols.copy())
        assert got.tobytes() == np.median(cols, axis=1).tobytes()
        if d == 1:
            assert spatial_median(cols.T).location.tobytes() == got.tobytes()

    def test_two_points_midline(self):
        """Any point on the segment minimizes; the solver must converge on it."""
        res = spatial_median(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert res.converged
        assert median_objective(np.array([[0.0, 0.0], [2.0, 0.0]]), res.location) <= 2.0 + 1e-12

    def test_collinear_odd(self):
        res = spatial_median(np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]))
        assert np.allclose(res.location, [1.0, 0.0], atol=1e-10)

    def test_coincident_majority(self):
        """Three of four points coincide: the cluster wins outright."""
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 7.0]])
        res = spatial_median(pts)
        assert res.converged
        assert np.allclose(res.location, [0.0, 0.0])
        assert res.gradient_norm == 0.0

    def test_equilateral_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        res = spatial_median(pts, tol=1e-10)
        assert np.allclose(res.location, pts.mean(axis=0), atol=1e-8)

    def test_data_point_optimum(self):
        """A dominant central point with light satellites is the optimum."""
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [-0.9, 0.2], [0.05, 1.0]])
        res = spatial_median(pts)
        assert res.converged
        f_at = median_objective(pts, res.location)
        for p in pts:
            assert f_at <= median_objective(pts, p) + 1e-12

    @given(st.integers(0, 10_000))
    @example(163)
    @example(362)
    @example(512)
    @example(906)
    @example(1155)
    @settings(max_examples=20, deadline=None)
    def test_beats_every_data_point(self, seed):
        pts = np.random.default_rng(seed).standard_normal((7, 2))
        res = spatial_median(pts)
        assert res.converged
        f_at = median_objective(pts, res.location)
        for p in pts:
            assert f_at <= median_objective(pts, p) + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_translation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((9, 3))
        shift = rng.standard_normal(3)
        a = spatial_median(pts).location
        b = spatial_median(pts + shift).location
        assert np.allclose(b, a + shift, atol=1e-7)

    def test_nonconvergence_is_flagged_not_fatal(self):
        res = spatial_median(np.random.default_rng(0).standard_normal((30, 2)), max_iter=1)
        assert not res.converged
        assert res.iterations == 1

    def test_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            spatial_median(pts, tol=0.0)
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                spatial_median(pts, tol=tol)
        with pytest.raises(ValueError):
            spatial_median(pts, max_iter=-1)
        with pytest.raises(ValueError, match=r"\(n, d\) array"):
            spatial_median(np.arange(5.0))


class TestSolverAgainstReference:
    """Property tests of the Newton solver against the reference Weiszfeld."""

    @given(st.integers(0, 10_000), st.integers(1, 3), SCALES)
    @settings(max_examples=25, deadline=None)
    def test_general_position(self, seed, d, scale):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 40))
        _check_solver((rng.standard_normal((m, d)) + 3.0 * rng.standard_normal(d)) * scale)

    @given(st.integers(0, 10_000), st.integers(1, 3), SCALES)
    @settings(max_examples=25, deadline=None)
    def test_coincident_clusters(self, seed, d, scale):
        rng = np.random.default_rng(seed)
        centres = rng.standard_normal((int(rng.integers(2, 5)), d)) * scale
        pts = np.repeat(centres, rng.integers(1, 6, size=len(centres)), axis=0)
        _check_solver(rng.permutation(pts))

    @given(st.integers(0, 10_000), st.integers(2, 3), SCALES)
    @settings(max_examples=25, deadline=None)
    def test_collinear(self, seed, d, scale):
        rng = np.random.default_rng(seed)
        along = rng.standard_normal(int(rng.integers(2, 13)))
        _check_solver((rng.standard_normal(d) + along[:, None] * rng.standard_normal(d)) * scale)

    @given(st.integers(0, 10_000), st.integers(1, 3), SCALES)
    @example(43, 2, 1.0)  # a median 5.9e-5 from a doubled point: converged at the rounding floor
    @settings(max_examples=25, deadline=None)
    def test_duplicated_pool(self, seed, d, scale):
        """Pooling a sample with itself, as the index does for identical samples."""
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((int(rng.integers(2, 20)), d)) * scale
        _check_solver(np.vstack([pts, pts]))
        if _minimizer_is_unique(pts):
            pooled = spatial_median(np.vstack([pts, pts]), tol=1e-12).location
            alone = spatial_median(pts, tol=1e-12).location
            assert np.abs(pooled - alone).max() <= 1e-9 * np.abs(pts).max()


class TestRegion:
    def test_data_radius(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert data_radius(pts, [0.0, 0.0]) == 5.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_data_radius_has_the_bits_of_a_row_norm(self, d):
        """Distances summed left to right from (d, m) offsets, as
        np.linalg.norm(..., axis=1) sums them on (m, d)."""
        rng = np.random.default_rng(d)
        for scale in (1e-3, 1.0, 7.3e4):
            pts = rng.standard_normal((20_000, d)) * scale
            center = rng.standard_normal(d) * scale
            want = float(np.max(np.linalg.norm(pts - center, axis=1)))
            assert data_radius(pts, center) == want

    @staticmethod
    def _median(location) -> SpatialMedianResult:
        return SpatialMedianResult(np.asarray(location, dtype=float), 0.0, 0, True)

    def test_region_spec_validation(self):
        with pytest.raises(ValueError, match="center must be nonempty"):
            RegionSpec(self._median([]), base_radius=1.0, multiplier=1.0)
        with pytest.raises(ValueError, match="base_radius"):
            RegionSpec(self._median([0.0]), base_radius=-1.0, multiplier=1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RegionSpec(self._median([0.0]), base_radius=1.0, multiplier=0.0)

    def test_effective_radius(self):
        r = RegionSpec(self._median([0.0, 0.0]), base_radius=2.0, multiplier=1.5)
        assert r.effective_radius == 3.0
        assert r.center is r.median.location

    def test_combined_region_symmetry_exact(self, rng):
        """Swapping the two samples gives bit-identical regions."""
        a = rng.standard_normal((12, 2))
        b = rng.standard_normal((20, 2)) + 0.5
        r1 = combined_region(a, b, k=1.0)
        r2 = combined_region(b, a, k=1.0)
        assert np.array_equal(r1.center, r2.center)
        assert r1.base_radius == r2.base_radius

    @pytest.mark.parametrize("case", ["last_element", "sizes", "identical", "signed_zero"])
    def test_pool_order_is_canonical(self, rng, case):
        """Both argument orders pool the same array, down to the last bit and
        the sign of a zero, and the centre is the pooled 1-median."""
        a = rng.standard_normal((15, 2))
        b = a.copy()
        if case == "last_element":
            b[-1, -1] = np.nextafter(b[-1, -1], np.inf)
        elif case == "sizes":
            b = rng.standard_normal((9, 2)) + 0.5
        elif case == "signed_zero":
            a[3, 0] = 0.0
            b[3, 0] = -0.0
        r1 = combined_region(a, b, k=1.0)
        r2 = combined_region(b, a, k=1.0)
        assert _same_bits(r1.center, r2.center)
        assert r1.base_radius.hex() == r2.base_radius.hex()
        assert r1.median.gradient_norm == r2.median.gradient_norm
        assert r1.median.iterations == r2.median.iterations
        pooled = np.vstack([a, b])
        ref, converged = weiszfeld_median(pooled, tol=1e-12, max_iter=5000)
        assert converged
        assert np.abs(r1.center - ref).max() <= 1e-12 * np.abs(pooled).max()

    def test_combined_region_covers_pool(self, rng):
        a = rng.standard_normal((10, 2))
        b = rng.standard_normal((10, 2))
        r = combined_region(a, b, k=1.0)
        dists = np.linalg.norm(np.vstack([a, b]) - r.center, axis=1)
        assert dists.max() <= r.base_radius + 1e-12

    def test_multiplier_scales_radius(self, rng):
        a = rng.standard_normal((8, 2))
        b = rng.standard_normal((8, 2))
        r1 = combined_region(a, b, k=1.0)
        r2 = combined_region(a, b, k=2.5)
        assert np.isclose(r2.effective_radius, 2.5 * r1.base_radius)
        assert r1.base_radius == r2.base_radius

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DataError, match="projected samples have d=2 and d=3"):
            combined_region(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)), k=1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_empty_sample_raises(d):
    empty = np.empty((0, d))
    for call in (lambda: estimate_sdf_batch(empty, np.zeros((4, d))),
                 lambda: spatial_median(empty), lambda: data_radius(empty, np.zeros(d))):
        with pytest.raises(ValueError, match="the sample is empty"):
            call()
    assert estimate_sdf_batch(np.ones((3, d)), empty).shape == (0, d)


def _square(s: float) -> np.ndarray:
    """Four points whose 1-median is the doubled point (s, 0)."""
    return np.array([[s, 0.0], [s, 0.0], [-s, s], [0.0, -s]])


class TestExtremeScales:
    """The routines scale the points by a power of two first, so squared
    offsets neither overflow nor underflow at any finite scale."""

    @pytest.mark.parametrize("s", [1e150, 1e154, 1e155, 1e200, 1e300, 1e-300])
    def test_square_set(self, s):
        """Up to the fix, (0.5 s, 0) was returned from 1e155 up, marked
        converged, the radius read inf and the SDF zero."""
        pts = _square(s)
        res = spatial_median(pts)
        assert res.converged
        assert np.array_equal(res.location, [s, 0.0])
        assert data_radius(pts, res.location) == pytest.approx(np.sqrt(5.0) * s, rel=1e-15)
        at_unit = estimate_sdf_batch(_square(1.0), [[0.5, 0.25], [0.0, 0.0]])
        assert np.allclose(estimate_sdf_batch(pts, [[0.5 * s, 0.25 * s], [0.0, 0.0]]), at_unit,
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k", [-1000, -600, 520, 1000])
    def test_power_of_two_scales_keep_the_bits(self, k):
        """At a scale of 2**k every result is the unit-scale one, scaled."""
        f = 2.0**k
        pts = np.random.default_rng(k % 97).standard_normal((30, 2))
        tgt = pts[:5] * 0.5
        ref = spatial_median(pts)
        res = spatial_median(pts * f)
        assert res.location.tobytes() == (ref.location * f).tobytes()
        assert (res.gradient_norm, res.iterations) == (ref.gradient_norm, ref.iterations)
        assert estimate_sdf_batch(pts * f, tgt * f).tobytes() == estimate_sdf_batch(pts, tgt).tobytes()
        assert data_radius(pts * f, ref.location * f) == data_radius(pts, ref.location) * f

    def test_coincident_points_at_the_largest_scale(self):
        """Five copies of (1e308, -1e308): once a NaN after 1000 iterations,
        then [inf, -inf] from the overflowing mean, both marked converged."""
        res = spatial_median(np.tile([1e308, -1e308], (5, 1)))
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.location, [1e308, -1e308])
        one_d = spatial_median(np.array([[1e308], [1.5e308], [-1e308], [1.7e308]]))
        assert np.array_equal(one_d.location, [1.25e308])

    def test_radius_beyond_the_largest_float_is_inf(self):
        assert data_radius(np.array([[1.5e308, 0.0]]), [-1.5e308, 0.0]) == np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_raise(self, bad):
        pts = _square(1.0)
        pts[2, 1] = bad
        with pytest.raises(DataError, match="points contain NaN or infinite values"):
            spatial_median(pts)
        with pytest.raises(DataError, match="points contain NaN or infinite values"):
            estimate_sdf_batch(pts, [[0.0, 0.0]])
        with pytest.raises(DataError, match="points contain NaN or infinite values"):
            estimate_sdf_batch(_square(1.0), pts)
        with pytest.raises(DataError, match="points contain NaN or infinite values"):
            data_radius(pts, [0.0, 0.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 3.0, 1e5])
    def test_scaling_keeps_todays_bits(self, monkeypatch, d, magnitude):
        """On seeded frames, index values and their regions have the bits of
        the computation without the scaling (the scale pinned at 1)."""
        rng = np.random.default_rng(int(100 * d + np.log10(magnitude)))
        names = ("a", "b", "c", "e")
        x = bp.DataMatrix(magnitude * (rng.standard_normal((40, 4)) + 1.0), names)
        y = bp.DataMatrix(magnitude * rng.standard_normal((30, 4)), names)
        frames = [bp.random_frame(4, d, np.random.default_rng(seed)) for seed in range(4)]
        cfg = bp.IndexConfig(n_nodes=60, n_nodes_refine=300)

        def values():
            out = []
            for f in frames:
                for v in (bp.index(f, x, y, cfg), bp.refine_index(f, x, y, cfg)):
                    med = v.region.median
                    out.append((float(v).hex(), v.region.center.tobytes(),
                                float(v.region.base_radius).hex(),
                                med.gradient_norm, med.iterations))
            return out

        scaled = values()
        monkeypatch.setattr(spatial, "_pow2_scale", lambda *arrays: 1.0)
        assert scaled == values()


_KINDS = ("general", "clusters", "collinear", "duplicated", "identical")
_SIZES = (3, 4, 5, 8, 17, 800, 801, 4000, 40_000)


def _median_points(d: int, m: int, kind: str) -> np.ndarray:
    """m points in d dimensions for the bit comparisons: in general position,
    in three coincident clusters with a quarter of them moved off, on a line,
    a sample pooled with itself, or all at one point."""
    rng = np.random.default_rng([d, m, _KINDS.index(kind)])
    if kind == "general":
        return rng.standard_normal((m, d)) @ (rng.standard_normal((d, d)) + 2.0 * np.eye(d))
    if kind == "clusters":
        pts = np.repeat(rng.standard_normal((3, d)), -(-m // 3), axis=0)[:m]
        pts[: m // 4] += rng.standard_normal((m // 4, d))
        return pts
    if kind == "collinear":
        return rng.standard_normal(d) + rng.standard_normal((m, 1)) * rng.standard_normal(d)
    if kind == "duplicated":
        return np.tile(rng.standard_normal((-(-m // 2), d)), (2, 1))[:m]
    return np.tile(rng.standard_normal(d), (m, 1))


def _reference_region(pts: np.ndarray, tol: float = 1e-8):
    """(location, gradient norm, iterations, converged, radius) by the references."""
    scale = spatial._pow2_scale(pts)
    loc, gnorm, iterations, converged = newton_median_reference(pts, scale, tol, 1000)
    loc = loc / scale
    return loc, gnorm, iterations, converged, data_radius_reference(pts, loc)


def _region_bits(res: SpatialMedianResult, radius: float):
    return (res.location.tobytes(), res.gradient_norm.hex(), res.iterations, res.converged,
            radius.hex())


def _reference_bits(ref):
    loc, gnorm, iterations, converged, radius = ref
    return (loc.tobytes(), float(gnorm).hex(), iterations, converged, radius.hex())


class TestMedianBits:
    """spatial_median, data_radius and combined_region have the bits of their
    versions before the workspace (tests/references.py), computed in the
    same process, so under whatever BLAS kernel the tests run with."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("m", _SIZES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bits_as_the_reference(self, d, m, kind):
        """Also at the power-of-two extremes of 1e-300 and 1e300."""
        for scale in (1.0, 1e-300, 1e300):
            pts = _median_points(d, m, kind) * scale
            for tol in (1e-8, 1e-12):
                res = spatial_median(pts, tol=tol)
                assert _region_bits(res, data_radius(pts, res.location)) == _reference_bits(
                    _reference_region(pts, tol)), (scale, tol)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_combined_region_same_bits(self, d):
        rng = np.random.default_rng(d)
        for n in (5, 400, 20_000):
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n + 1, d)) * 0.8 + 0.3
            region = combined_region(b, a, k=1.5)
            want = _reference_bits(_reference_region(np.vstack([a, b])))
            assert _region_bits(region.median, region.base_radius) == want


class TestMedianWorkspace:
    """spatial_median and data_radius each allocate one workspace per call,
    which every step writes before it reads."""

    class Poisoned:
        """``np`` for the spatial module, with an ``empty`` that returns NaNs
        starting ``offset`` 8-byte words into a 64-byte cache line."""

        def __init__(self):
            self.offset = 0
            self.sizes = []

        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, size):
            self.sizes.append(size)
            raw = np.full(size + 16, np.nan)
            skip = -(raw.__array_interface__["data"][0] // 8) % 8 + self.offset
            return raw[skip : skip + size]

    def test_poisoned_workspace_is_overwritten(self, monkeypatch):
        """NaN workspaces at each of the eight offsets in a cache line change
        no bit; one workspace per spatial_median and per data_radius call."""
        cases = [_median_points(d, m, kind) for d in (1, 2, 3) for m in _SIZES[:7]
                 for kind in _KINDS]
        want = [_reference_bits(_reference_region(pts)) for pts in cases]
        fake = self.Poisoned()
        monkeypatch.setattr(spatial, "np", fake)
        for offset in range(8):
            fake.offset = offset
            for pts, bits in zip(cases, want):
                res = spatial_median(pts)
                assert _region_bits(res, data_radius(pts, res.location)) == bits, (pts.shape, offset)
        assert len(fake.sizes) == 8 * 2 * len(cases)

    def test_rows_start_on_cache_lines(self, monkeypatch):
        """Wherever in a cache line the buffer starts, every workspace row
        starts on a 64-byte boundary, and rows hold m elements."""
        fake = self.Poisoned()
        monkeypatch.setattr(spatial, "np", fake)
        for offset in range(8):
            fake.offset = offset
            for n, m in [(1, 1), (3, 5), (12, 800), (16, 801), (3, 40_000)]:
                rows = spatial._line_rows(n, m)
                assert rows.shape == (n, m)
                assert all(row.__array_interface__["data"][0] % 64 == 0 for row in rows)

    def test_one_workspace_under_4_mib(self, monkeypatch):
        """40 000 x 2 points: one workspace of (4d + 4) rows of m for the
        median and one of d + 1 rows for the radius, plus 7 elements to
        shift to a cache line, each under the 4 MiB from which numpy asks
        for huge pages (and resident memory grows in 2 MB steps)."""
        pts = np.random.default_rng(7).standard_normal((40_000, 2))
        fake = self.Poisoned()
        monkeypatch.setattr(spatial, "np", fake)
        res = spatial_median(pts)
        data_radius(pts, res.location)
        assert fake.sizes == [7 + (4 * 2 + 4) * 40_000, 7 + (2 + 1) * 40_000]
        assert all(8 * size < 4 * 2**20 for size in fake.sizes)

    def test_peak_is_the_workspace(self):
        """The traced peak of a call on 40 000 x 2 points is its workspace
        plus small arrays: measured 3 848 352 bytes for the median (3 840 056
        of workspace; 3 843 112 before it) and 961 936 for the radius
        (1 601 216 before)."""
        pts = np.random.default_rng(7).standard_normal((40_000, 2))
        res = spatial_median(pts)
        for call, workspace in ((lambda: spatial_median(pts), (7 + (4 * 2 + 4) * 40_000) * 8),
                                (lambda: data_radius(pts, res.location), (7 + (2 + 1) * 40_000) * 8)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert workspace <= peak < workspace + 2**15
