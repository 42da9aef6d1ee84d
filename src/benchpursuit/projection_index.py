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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .frames import DataMatrix, ProjectionFrame
from .sobol import MAX_POINTS, SobolStream
from .spatial import RegionSpec, combined_region, estimate_sdf_batch

# Smallest min(n_x, n_y) x n_nodes at which index computes the two samples'
# SDFs on two threads at the same time. On a 2-vCPU VM that gave two
# threads twice one thread's speed only in spells, the two threads ran at
# 0.80-1.04x of serial speed below 2^19 pairs and 0.98-1.52x from 2^19 up in
# its slow spells, and at 1.06-1.78x throughout in its fast ones (sweep in
# BENCH_16.json).
_CONCURRENT_PAIRS = 1 << 19


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _worker(pid: int) -> ThreadPoolExecutor:
    """The one worker thread of process ``pid``, started on first use; a
    forked child has a new pid, so it starts its own."""
    return ThreadPoolExecutor(1, thread_name_prefix="benchpursuit-sdf")


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
        if not self.k > 0:
            raise ValueError("k must be positive")
        if self.n_nodes < 1 or self.n_nodes_refine < 1:
            raise ValueError("node counts must be at least 1")
        if self.sobol_skip < 0:
            raise ValueError("sobol_skip must be nonnegative")
        if self.sobol_skip + max(self.n_nodes, self.n_nodes_refine) > MAX_POINTS:
            raise ValueError(f"sobol_skip plus the node count must be at most {MAX_POINTS}")
        if not self.median_tol > 0:
            raise ValueError("median_tol must be positive")


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
    frame: ProjectionFrame,
    x: DataMatrix,
    y: DataMatrix,
    cfg: IndexConfig | None = None,
    n_nodes: int | None = None,
) -> IndexValue:
    """Index of ``frame`` for data ``x`` against benchmark ``y``.

    ``n_nodes`` defaults to the search-phase node count ``cfg.n_nodes``.

    When the smaller sample times ``n_nodes`` reaches ``_CONCURRENT_PAIRS``
    and the process may run on two CPUs, ``x``'s SDF is computed on the
    process's worker thread while the calling thread computes ``y``'s. The
    value has the same bits on either path.

    Raises:
        DataError: if the projections, the integration ball's volume or
            the index itself is beyond the largest float, or if the samples
            differ but the index is below the smallest normal float.
    """
    cfg = cfg if cfg is not None else IndexConfig()
    n_nodes = n_nodes if n_nodes is not None else cfg.n_nodes
    if n_nodes < 1:
        raise ValueError("node counts must be at least 1")
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
        frame.d, cfg.sobol_skip, n_nodes
    )
    if min(len(px), len(py)) * len(targets) < _CONCURRENT_PAIRS or _cpus() < 2:
        fx = estimate_sdf_batch(px, targets)
        fy = estimate_sdf_batch(py, targets)
    else:
        # Each target's sums keep their order on either thread, so the bits
        # are those of the serial path; numpy releases the GIL in the tiles.
        future = _worker(os.getpid()).submit(estimate_sdf_batch, px, targets)
        try:
            fy = estimate_sdf_batch(py, targets)
        finally:
            fx = future.result()
    gap = float(np.linalg.norm(fx - fy, axis=1).mean())
    value = volume * gap
    if not math.isfinite(value):
        raise DataError(f"the index is {value} on a ball of volume {volume:.3g}")
    if gap > 0.0 and value < sys.float_info.min:
        raise DataError(
            f"the index underflows ({value:.3g}) on a ball of radius "
            f"{region.effective_radius:.3g}; rescale the data, e.g. with --standardize"
        )
    return IndexValue(value=value, n_nodes_used=n_nodes, region=region)


def refine_index(
    frame: ProjectionFrame, x: DataMatrix, y: DataMatrix, cfg: IndexConfig | None = None
) -> IndexValue:
    """Re-score ``frame`` at the refinement node count ``cfg.n_nodes_refine``."""
    cfg = cfg if cfg is not None else IndexConfig()
    return index(frame, x, y, cfg, cfg.n_nodes_refine)
