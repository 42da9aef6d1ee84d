import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchpursuit import (
    DataError,
    DataMatrix,
    ProjectionFrame,
    orthonormalize,
    project,
    split_by_row_norm,
    subset_rows,
)
from benchpursuit.projection_index import index
from benchpursuit.spatial import RegionSpec, SpatialMedianResult, spatial_median


def _gaussian(rows, cols, seed=0):
    return np.random.default_rng(seed).standard_normal((rows, cols))


class TestDataMatrix:
    def test_basic_properties(self):
        x = DataMatrix(_gaussian(7, 3), ("a", "b", "c"))
        assert x.n == 7 and x.p == 3
        assert x.column_names == ("a", "b", "c")
        assert x.values.dtype == np.float64

    def test_values_read_only(self):
        x = DataMatrix(_gaussian(4, 2), ("a", "b"))
        with pytest.raises(ValueError):
            x.values[0, 0] = 1.0

    def test_rejects_nan(self):
        vals = _gaussian(4, 2)
        vals[2, 1] = np.nan
        with pytest.raises(DataError, match="data contains NaN or infinite entries"):
            DataMatrix(vals, ("a", "b"))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            DataMatrix(_gaussian(3, 2), ("a", "a"))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError):
            DataMatrix(_gaussian(3, 2), ("a", "b", "c"))

    def test_row_labels(self):
        x = DataMatrix(_gaussian(3, 2), ("a", "b"), row_labels=("t", "n", "t"), label_name="tissue")
        assert x.row_labels == ("t", "n", "t")
        assert x.label_name == "tissue"


class TestOrthonormalize:
    def test_identity_passthrough(self):
        f = orthonormalize(np.eye(3))
        assert np.array_equal(f.matrix, np.eye(3))

    def test_scaled_column(self):
        f = orthonormalize(np.array([[2.0], [0.0]]))
        assert np.allclose(f.matrix, [[1.0], [0.0]])

    def test_sign_convention(self):
        """First nonzero entry of each column comes out positive."""
        f = orthonormalize(np.array([[-3.0, 0.0], [0.0, -5.0]]))
        assert np.allclose(f.matrix, np.eye(2))

    def test_rank_deficient(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DataError, match="column 1 is linearly dependent on earlier columns"):
            orthonormalize(m)

    def test_more_columns_than_rows(self):
        with pytest.raises(DataError, match="3 columns of length 2 cannot be independent"):
            orthonormalize(_gaussian(2, 3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_gram_property(self, seed):
        m = _gaussian(6, 3, seed=seed)
        f = orthonormalize(m)
        assert np.abs(f.matrix.T @ f.matrix - np.eye(3)).max() < 1e-10
        # span is preserved: original columns lie in the output's column space
        coeff = f.matrix.T @ m
        assert np.allclose(f.matrix @ coeff, m, atol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_bit_for_bit(self, seed):
        f = orthonormalize(_gaussian(5, 2, seed=seed))
        again = orthonormalize(f.matrix)
        assert np.array_equal(again.matrix, f.matrix)


class TestProjectionFrame:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionFrame(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_dims(self):
        f = ProjectionFrame(np.eye(4)[:, :2])
        assert f.p == 4 and f.d == 2

    def test_full_dimension_allowed(self):
        f = ProjectionFrame(np.eye(3))
        assert f.d == f.p == 3


class TestProject:
    def test_identity_frame_returns_data(self):
        x = DataMatrix(_gaussian(6, 3), ("a", "b", "c"))
        sample = project(x, ProjectionFrame(np.eye(3)))
        assert np.allclose(sample.points, x.values)

    def test_projection_values(self):
        x = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), ("a", "b"))
        f = ProjectionFrame(np.array([[1.0], [0.0]]))
        sample = project(x, f)
        assert np.allclose(sample.points, [[1.0], [3.0]])

    def test_dimension_mismatch(self):
        x = DataMatrix(_gaussian(5, 3), ("a", "b", "c"))
        with pytest.raises(DataError, match="data has 3 columns but frame has 2 rows"):
            project(x, ProjectionFrame(np.eye(2)))


class TestSplitByRowNorm:
    def test_hand_example(self):
        # rows 0 and 2 carry all the weight; row 1 carries none
        m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        f = ProjectionFrame(m)
        low, high = split_by_row_norm(f)
        assert list(high) == [0, 2]
        assert list(low) == [1]

    def test_partition(self):
        f = ProjectionFrame(orthonormalize(_gaussian(8, 2, seed=3)).matrix)
        low, high = split_by_row_norm(f)
        assert sorted(list(low) + list(high)) == list(range(8))

    def test_threshold_override(self):
        f = ProjectionFrame(np.eye(3)[:, :2])
        low, high = split_by_row_norm(f, threshold=2.0)
        assert list(high) == [] and list(low) == [0, 1, 2]

    def test_tie_goes_high(self):
        # default threshold is sqrt(d/p); identity rows hit it exactly
        f = ProjectionFrame(np.eye(2))
        low, high = split_by_row_norm(f)
        assert list(high) == [0, 1] and list(low) == []


class TestSubsetRows:
    def test_keeps_selected(self):
        x = DataMatrix(np.arange(12.0).reshape(4, 3), ("a", "b", "c"), row_labels=("w", "x", "y", "z"))
        sub = subset_rows(x, [2, 0])
        assert np.allclose(sub.values, x.values[[0, 2]])
        assert sub.row_labels == ("w", "y")

    def test_deduplicates(self):
        x = DataMatrix(np.arange(6.0).reshape(3, 2), ("a", "b"))
        sub = subset_rows(x, [1, 1, 1])
        assert sub.n == 1

    def test_empty(self):
        x = DataMatrix(_gaussian(3, 2), ("a", "b"))
        with pytest.raises(DataError, match="no rows selected"):
            subset_rows(x, [])

    def test_out_of_range(self):
        x = DataMatrix(_gaussian(3, 2), ("a", "b"))
        with pytest.raises(DataError, match=r"row index 3 outside \[0, 2\]"):
            subset_rows(x, [3])
        with pytest.raises(DataError, match=r"row index -1 outside \[0, 2\]"):
            subset_rows(x, [-1])


def _arrays(obj):
    """Every numpy array reachable through the object's fields."""
    if isinstance(obj, np.ndarray):
        return [obj]
    return [a for v in getattr(obj, "__dict__", {}).values() for a in _arrays(v)]


_PICKLED = {
    "DataMatrix": lambda: DataMatrix(_gaussian(5, 3), ("a", "b", "c"), ("x",) * 5, "lab"),
    "ProjectionFrame": lambda: orthonormalize(_gaussian(4, 2)),
    "ProjectedSample": lambda: project(DataMatrix(_gaussian(5, 2), ("a", "b")),
                                       ProjectionFrame(np.eye(2)), "benchmark"),
    "SpatialMedianResult": lambda: spatial_median(_gaussian(9, 2)),
    "RegionSpec": lambda: RegionSpec(spatial_median(_gaussian(9, 2)), 1.5, 2.0),
    "IndexValue": lambda: index(ProjectionFrame(np.eye(2)), DataMatrix(_gaussian(9, 2), ("a", "b")),
                                DataMatrix(_gaussian(7, 2, seed=1), ("a", "b"))),
}


class TestPickle:
    """A pickle round trip, as between pool workers and their parent, keeps
    every field's bits and every array read-only."""

    @pytest.mark.parametrize("kind", list(_PICKLED))
    def test_round_trip_keeps_bits_and_read_only(self, kind):
        obj = _PICKLED[kind]()
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        before, after = _arrays(obj), _arrays(back)
        assert len(after) == len(before) >= 1
        for a, b in zip(before, after):
            assert b.tobytes() == a.tobytes() and b.shape == a.shape
            assert not b.flags.writeable
        assert repr(back) == repr(obj)
