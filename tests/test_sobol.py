import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchpursuit.errors import ConfigError
from benchpursuit.sobol import MAX_POINTS, SobolStream

scipy_qmc = pytest.importorskip("scipy.stats.qmc")


class TestKnownPrefix:
    def test_first_points_d1(self):
        pts = SobolStream(1).take(4)
        assert np.allclose(pts[:, 0], [0.0, 0.5, 0.75, 0.25])

    def test_first_points_d2(self):
        pts = SobolStream(2).take(4)
        expected = np.array([[0.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75]])
        assert np.allclose(pts, expected)


class TestScipyCrossCheck:
    """The scipy Sobol generator is an independent implementation of the
    same construction; unscrambled streams must agree exactly."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_prefix_matches(self, dim):
        ours = SobolStream(dim).take(256)
        ref = scipy_qmc.Sobol(d=dim, scramble=False).random(256)
        assert np.array_equal(ours, ref)

    def test_skip_matches_slice(self):
        ref = SobolStream(3).take(64)
        skipped = SobolStream(3, skip=16).take(48)
        assert np.array_equal(skipped, ref[16:])


class TestStreamBehavior:
    def test_take_advances(self):
        s = SobolStream(2)
        a = s.take(8)
        b = s.take(8)
        whole = SobolStream(2).take(16)
        assert np.array_equal(np.vstack([a, b]), whole)

    def test_next_single(self):
        s = SobolStream(2)
        first = s.next()
        assert first.shape == (2,)
        assert np.allclose(first, [0.0, 0.0])
        assert s.next_index == 1

    def test_determinism(self):
        a = SobolStream(5, skip=7).take(100)
        b = SobolStream(5, skip=7).take(100)
        assert np.array_equal(a, b)

    def test_take_zero(self):
        assert SobolStream(2).take(0).shape == (0, 2)

    def test_dimension_limits(self):
        with pytest.raises(ConfigError, match=r"dimension must be in \[1, 8\], got 0"):
            SobolStream(0)
        with pytest.raises(ConfigError, match=r"dimension must be in \[1, 8\], got 9"):
            SobolStream(9)

    def test_negative_skip(self):
        with pytest.raises(ValueError):
            SobolStream(2, skip=-1)

    def test_negative_take(self):
        with pytest.raises(ValueError):
            SobolStream(2).take(-1)

    def test_take_past_last_distinct_point(self):
        """32-bit direction integers give 2^32 distinct points; point 2^32 + i
        would be point i again."""
        s = SobolStream(2, skip=MAX_POINTS - 2)
        last = s.take(2)
        assert last[1, 0] == 2.0**-32 and s.next_index == MAX_POINTS
        with pytest.raises(ValueError):
            s.take(1)
        assert s.take(0).shape == (0, 2)
        with pytest.raises(ValueError):
            SobolStream(2, skip=MAX_POINTS - 2).take(3)
        with pytest.raises(ValueError):
            SobolStream(2, skip=2**33).take(4)

    @given(st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_range_half_open(self, dim):
        pts = SobolStream(dim).take(512)
        assert pts.min() >= 0.0
        assert pts.max() < 1.0


class TestUniformity:
    def test_mean_near_half(self):
        """At 4096 points every coordinate mean is very close to 1/2."""
        pts = SobolStream(4).take(4096)
        assert np.abs(pts.mean(axis=0) - 0.5).max() < 1e-3

    def test_low_discrepancy_beats_random_grid_counts(self):
        # count points in each quadrant of [0,1)^2: a (t,m,s)-net balances them
        pts = SobolStream(2).take(1024)
        quad = (pts[:, 0] >= 0.5).astype(int) * 2 + (pts[:, 1] >= 0.5).astype(int)
        counts = np.bincount(quad, minlength=4)
        assert counts.tolist() == [256, 256, 256, 256]
