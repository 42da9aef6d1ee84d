"""Datasets, semi-orthogonal projection frames, and the maps between them."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError

# Orthonormality tolerance for frames and the rank test in orthonormalize.
ORTHO_TOL = 1e-10


def _readonly(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _pickle_by_fields(obj):
    """``__reduce__`` of a frozen holder of read-only arrays: unpickling
    calls the constructor, so ``__post_init__`` runs again and the arrays
    come back read-only."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


@dataclass(frozen=True)
class DataMatrix:
    """An n x p table of finite real observations with named columns.

    ``row_labels`` optionally carries one string per observation (for example
    a class label extracted at ingest time); ``label_name`` records the column
    those labels came from.
    """

    values: np.ndarray
    column_names: tuple[str, ...]
    row_labels: tuple[str, ...] | None = None
    label_name: str | None = None

    __reduce__ = _pickle_by_fields

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        n, p = values.shape
        if n < 1 or p < 1:
            raise ValueError("need at least one row and one column")
        if not np.all(np.isfinite(values)):
            raise DataError("data contains NaN or infinite entries")
        names = tuple(str(c) for c in self.column_names)
        if len(names) != p:
            raise ValueError(f"expected {p} column names, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("column names must be distinct")
        labels = self.row_labels
        if labels is not None:
            labels = tuple(str(lab) for lab in labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} row labels, got {len(labels)}")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "row_labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ProjectionFrame:
    """A p x d matrix with orthonormal columns defining a linear projection.

    d == p is permitted so a full-dimensional (identity-like) view can be
    scored like any other frame.
    """

    matrix: np.ndarray

    __reduce__ = _pickle_by_fields

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("frame matrix must be 2-d")
        p, d = m.shape
        if not 1 <= d <= p:
            raise ValueError(f"need 1 <= d <= p, got p={p}, d={d}")
        if not np.all(np.isfinite(m)):
            raise DataError("frame contains NaN or infinite entries")
        gram_err = float(np.max(np.abs(m.T @ m - np.eye(d))))
        if gram_err > ORTHO_TOL:
            raise ValueError(f"columns not orthonormal (error {gram_err:.3e})")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @property
    def rms_row_norm(self) -> float:
        """sqrt(d/p): the root-mean-square row norm, the same for any p x d frame."""
        return math.sqrt(self.d / self.p)


@dataclass(frozen=True)
class ProjectedSample:
    """Points of one dataset pushed through a frame, tagged by origin."""

    points: np.ndarray
    source: str = "data"

    __reduce__ = _pickle_by_fields

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array")
        if not np.all(np.isfinite(pts)):
            raise DataError("projected points contain NaN or infinite entries")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _sign_fixed(q: np.ndarray) -> np.ndarray:
    """Flip columns so the first nonzero entry of each is positive."""
    out = q.copy()
    for j in range(out.shape[1]):
        nz = np.flatnonzero(out[:, j])
        if nz.size and out[nz[0], j] < 0:
            out[:, j] = -out[:, j]
    return out


def orthonormalize(raw) -> ProjectionFrame:
    """Orthonormalize the columns of ``raw`` into a :class:`ProjectionFrame`.

    Modified Gram-Schmidt with a second sweep per column to control
    cancellation error, followed by a sign fix making the first nonzero entry
    of every column positive. Input that is already orthonormal within
    tolerance is passed through with only the (exact) sign fix, which makes
    the operation idempotent bit for bit.

    Raises:
        DataError: if the columns are linearly dependent beyond
            tolerance ``ORTHO_TOL`` relative to the column scale.
    """
    m = np.array(np.asarray(raw, dtype=float))
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    p, d = m.shape
    if d < 1 or p < 1:
        raise ValueError("matrix must be nonempty")
    if d > p:
        raise DataError(f"{d} columns of length {p} cannot be independent")
    if not np.all(np.isfinite(m)):
        raise DataError("matrix contains NaN or infinite entries")

    if float(np.max(np.abs(m.T @ m - np.eye(d)))) <= ORTHO_TOL:
        return ProjectionFrame(_sign_fixed(m))

    col_scale = np.linalg.norm(m, axis=0)
    q = m.copy()
    for j in range(d):
        v = q[:, j]
        for _sweep in range(2):
            for i in range(j):
                v -= (q[:, i] @ v) * q[:, i]
        nv = float(np.linalg.norm(v))
        if nv <= ORTHO_TOL * col_scale[j]:
            raise DataError(f"column {j} is linearly dependent on earlier columns")
        q[:, j] = v / nv
    return ProjectionFrame(_sign_fixed(q))


def project(data: DataMatrix, frame: ProjectionFrame, source: str = "data") -> ProjectedSample:
    """Project the rows of ``data`` through ``frame``."""
    if data.p != frame.p:
        raise DataError(f"data has {data.p} columns but frame has {frame.p} rows")
    return ProjectedSample(points=data.values @ frame.matrix, source=source)


def split_by_row_norm(
    frame: ProjectionFrame, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the row indices of a frame by Euclidean row norm.

    The default threshold is ``frame.rms_row_norm``, sqrt(d/p), so rows above
    it carry more than an even share of the projection weight. Ties go to
    the high side. Returns ``(low, high)`` as sorted 0-based index arrays.
    """
    threshold = frame.rms_row_norm if threshold is None else threshold
    if not threshold >= 0:
        raise ConfigError(f"threshold must be a nonnegative number, got {threshold!r}")
    norms = np.linalg.norm(frame.matrix, axis=1)
    high = np.flatnonzero(norms >= threshold)
    low = np.flatnonzero(norms < threshold)
    return low, high


def subset_rows(data: DataMatrix, rows) -> DataMatrix:
    """Select observation rows by 0-based index, preserving data order.

    ``rows`` is treated as a set: duplicates collapse and the output keeps
    the original row order.
    """
    idx = sorted({int(r) for r in rows})
    if len(idx) == 0:
        raise DataError("no rows selected")
    if idx[0] < 0 or idx[-1] >= data.n:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise DataError(f"row index {bad} outside [0, {data.n - 1}]")
    labels = None
    if data.row_labels is not None:
        labels = tuple(data.row_labels[i] for i in idx)
    return DataMatrix(
        values=data.values[idx],
        column_names=data.column_names,
        row_labels=labels,
        label_name=data.label_name,
    )
