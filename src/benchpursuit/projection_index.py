"""Quasi-Monte-Carlo evaluation of the two-sample projection index.

The index of a frame is the integral, over a ball around the pooled spatial
median of the two projected samples, of the norm of the difference between
their spatial distribution functions. It is estimated as the ball volume
times the average integrand over Sobol nodes mapped into the ball, so larger
values mean the projected data and benchmark disagree more.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import _fork
from .errors import ConfigError, DataError
from .frames import DataMatrix, ProjectionFrame
from .sobol import MAX_POINTS, SobolStream
from .spatial import RegionSpec, combined_region, estimate_sdf_batch

# Smallest min(n_x, n_y) x n_nodes at which index computes the two samples'
# SDFs at the same time, one of them in the SDF helper. On a 2-vCPU VM, with
# the kernel that forms its differences as a matrix product, that ran at
# 0.63-1.12x of serial speed up to 1.3e5 pairs, 1.20-1.33x at 2.6e5 and
# 1.25-1.84x from 5.1e5 up (sweep in BENCH_31.json).
_CONCURRENT_PAIRS = 1 << 19

# This process's SDF helper; one whose pipe is closed, by Child.close or by
# a fork in the forked process, is replaced on the next use.
_helper: _fork.Child | None = None
_helper_busy = threading.Lock()


def _sdf_pair(px, py, targets) -> tuple[np.ndarray, np.ndarray]:
    """The SDFs of ``px`` and ``py`` at ``targets``: ``px``'s computed in the
    helper while this thread computes ``py``'s, from ``_CONCURRENT_PAIRS``
    pairs up if ``_fork.may_fork()`` and no other thread is using it."""
    global _helper
    if (min(len(px), len(py)) * len(targets) < _CONCURRENT_PAIRS or not _fork.may_fork()
            or not _helper_busy.acquire(blocking=False)):
        return estimate_sdf_batch(px, targets), estimate_sdf_batch(py, targets)
    try:
        if _helper is None or _helper.conn.closed:
            _helper = _fork.Child(estimate_sdf_batch, "SDF helper")
        _helper.send(px, targets)
        try:
            fy = estimate_sdf_batch(py, targets)
        finally:
            fx = _helper.recv()
    finally:
        _helper_busy.release()
    return fx, fy


@dataclass(frozen=True)
class IndexConfig:
    """Settings for index evaluation.

    ``k`` scales the integration radius relative to the pooled data radius
    (0.5 to 3 is the useful range); ``n_nodes`` is the node count used while
    searching and ``n_nodes_refine`` the one used to re-score winners;
    ``sobol_skip`` discards that many initial Sobol points; ``median_tol``
    is the spatial-median gradient tolerance.

    ``median_tol`` is absolute: it bounds the norm of the unit vectors
    summed over all m pooled points (net of any coincident points), not a
    per-point average, so it is stricter per point as m grows. It is kept
    absolute because ``median_optimal`` in ``bench/checks.py`` requires that
    norm to be at most the coincident count plus 1e-6, which a per-point
    1e-8 would not guarantee: it allows 4e-4 on 40 000 pooled points.
    """

    k: float = 1.0
    n_nodes: int = 50
    n_nodes_refine: int = 5000
    sobol_skip: int = 0
    median_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError("k must be positive and finite")
        if self.n_nodes < 1 or self.n_nodes_refine < 1:
            raise ValueError("node counts must be at least 1")
        if self.sobol_skip < 0:
            raise ValueError("sobol_skip must be nonnegative")
        if self.sobol_skip + max(self.n_nodes, self.n_nodes_refine) > MAX_POINTS:
            raise ValueError(f"sobol_skip plus the node count must be at most {MAX_POINTS}")
        if not 0 < self.median_tol < math.inf:
            raise ValueError("median_tol must be positive and finite")


@dataclass(frozen=True)
class IndexValue:
    """An evaluated index together with how it was computed."""

    value: float
    n_nodes_used: int
    region: RegionSpec

    def __float__(self) -> float:
        return self.value

    @property
    def median_converged(self) -> bool:
        return self.region.median.converged


def ball_volume(d: int, radius: float) -> float:
    """Volume of the d-ball of the given radius, inf beyond the largest float."""
    try:
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius**d
    except OverflowError:
        return math.inf


def map_to_ball(u: np.ndarray) -> np.ndarray:
    """Measure-preserving map from the unit cube onto the unit ball.

    Maps an (n, d) batch of points. Implemented for d <= 3: an affine
    stretch in one dimension, the polar area-preserving map in two, and the
    radial/cosine map in three.
    """
    d = u.shape[1]
    if d == 1:
        return 2.0 * u - 1.0
    if d == 2:
        rho = np.sqrt(u[:, 0])
        theta = 2.0 * math.pi * u[:, 1]
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])
    if d == 3:
        rho = np.cbrt(u[:, 0])
        cos_phi = 1.0 - 2.0 * u[:, 1]
        sin_phi = np.sqrt(np.maximum(1.0 - cos_phi**2, 0.0))
        theta = 2.0 * math.pi * u[:, 2]
        return np.column_stack(
            [rho * sin_phi * np.cos(theta), rho * sin_phi * np.sin(theta), rho * cos_phi]
        )
    raise ConfigError(f"ball map implemented for d <= 3, got d={d}")


@functools.lru_cache(maxsize=16)
def _unit_ball_nodes(d: int, skip: int, n: int) -> np.ndarray:
    """The first ``n`` Sobol nodes after ``skip``, mapped into the unit d-ball.

    Read-only and shared: every region's nodes are
    ``center + radius * _unit_ball_nodes(...)``.
    """
    nodes = map_to_ball(SobolStream(d, skip=skip).take(n))
    nodes.setflags(write=False)
    return nodes


def index(
    frame: ProjectionFrame, x: DataMatrix, y: DataMatrix, cfg: IndexConfig | None = None
) -> IndexValue:
    """Index of ``frame`` for data ``x`` against benchmark ``y``, scored at
    ``cfg.n_nodes`` nodes.

    The two samples' SDFs come from ``_sdf_pair``, which computes ``x``'s in
    the process's SDF helper when the smaller sample times ``cfg.n_nodes``
    reaches ``_CONCURRENT_PAIRS``. Each target's sums keep their order in
    either process, so the value has the same bits on either path.

    Raises:
        DataError: if the projections, the integration ball's volume or
            the index itself is beyond the largest float, or if the samples
            differ but the index is below the smallest normal float.
    """
    cfg = cfg if cfg is not None else IndexConfig()
    if x.p != frame.p:
        raise DataError(f"data has {x.p} columns but frame has {frame.p} rows")
    if y.p != frame.p:
        raise DataError(f"benchmark has {y.p} columns but frame has {frame.p} rows")
    with np.errstate(over="ignore"):  # an overflow raises DataError below
        px = x.values @ frame.matrix
        py = y.values @ frame.matrix
    region = combined_region(px, py, cfg.k, tol=cfg.median_tol)
    volume = ball_volume(frame.d, region.effective_radius)
    if not math.isfinite(volume):
        raise DataError(f"the integration ball has radius {region.effective_radius:.3g}")
    targets = region.center + region.effective_radius * _unit_ball_nodes(
        frame.d, cfg.sobol_skip, cfg.n_nodes
    )
    fx, fy = _sdf_pair(px, py, targets)
    gap = float(np.linalg.norm(fx - fy, axis=1).mean())
    value = volume * gap
    if not math.isfinite(value):
        raise DataError(f"the index is {value} on a ball of volume {volume:.3g}")
    if gap > 0.0 and value < sys.float_info.min:
        raise DataError(
            f"the index underflows ({value:.3g}) on a ball of radius "
            f"{region.effective_radius:.3g}; rescale the data, e.g. with --standardize"
        )
    return IndexValue(value=value, n_nodes_used=cfg.n_nodes, region=region)


def refine_index(
    frame: ProjectionFrame, x: DataMatrix, y: DataMatrix, cfg: IndexConfig | None = None
) -> IndexValue:
    """Re-score ``frame`` at the refinement node count ``cfg.n_nodes_refine``."""
    cfg = cfg if cfg is not None else IndexConfig()
    return index(frame, x, y, replace(cfg, n_nodes=cfg.n_nodes_refine))
