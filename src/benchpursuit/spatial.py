"""Spatial distribution function, spatial median, and region geometry.

The spatial distribution function of a point cloud is the average unit
vector pointing from the argument towards the sample points; its zero is
the spatial median. Everything here is plain plug-in estimation with a
fixed evaluation order, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .frames import _pickle_by_fields, _readonly

# Elements in a full (points, targets) tile of batch SDF evaluation. A call
# fills only half of one, so the d + 2 arrays of its tile (1.0-1.3 MB for
# d = 2-3) fit a per-core L2 cache, and so do the two tiles of the calls that
# ``index`` runs at the same time.
_BLOCK_ELEMS = 1 << 16

_EPS = float(np.finfo(float).eps)

# Halvings of a Newton step that does not lower the objective before the
# Weiszfeld step is taken instead.
_HALVINGS = 4


@dataclass(frozen=True)
class SpatialMedianResult:
    """Location estimate plus convergence diagnostics."""

    location: np.ndarray
    gradient_norm: float
    iterations: int
    converged: bool

    __reduce__ = _pickle_by_fields

    def __post_init__(self):
        object.__setattr__(self, "location", _readonly(self.location))


@dataclass(frozen=True)
class RegionSpec:
    """Ball-shaped integration region around a spatial median:
    radius = multiplier x base_radius."""

    median: SpatialMedianResult
    base_radius: float
    multiplier: float

    __reduce__ = _pickle_by_fields

    def __post_init__(self):
        if self.median.location.size < 1:
            raise ValueError("center must be nonempty")
        if self.base_radius < 0:
            raise ValueError("base_radius must be nonnegative")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        object.__setattr__(self, "base_radius", float(self.base_radius))
        object.__setattr__(self, "multiplier", float(self.multiplier))

    @property
    def center(self) -> np.ndarray:
        return self.median.location

    @property
    def effective_radius(self) -> float:
        return self.multiplier * self.base_radius


def _points(obj) -> np.ndarray:
    """``obj`` as an (n, d) float array."""
    pts = np.asarray(obj, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected an (n, d) array of points")
    return pts


def _pow2_scale(*arrays: np.ndarray) -> float:
    """The power of two that takes the largest magnitude in ``arrays`` into
    [0.5, 1), or 1.0 if there is none.

    Multiplying by it is exact, and the computations here are homogeneous in
    the coordinates, so a result computed from scaled points has the bits of
    the unscaled computation wherever that one neither overflows nor
    underflows, while squared offsets now do neither at any finite scale.

    Raises:
        DataError: if an array holds NaN or an infinity.
    """
    top = 0.0
    for a in arrays:
        peak = float(np.abs(a).max()) if a.size else 0.0
        if not math.isfinite(peak):
            raise DataError("points contain NaN or infinite values")
        top = max(top, peak)
    # Capped so that subnormal points get a finite scale.
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1023)) if top else 1.0


def estimate_sdf_batch(sample, targets) -> np.ndarray:
    """Plug-in spatial distribution function at many target points.

    Returns the (n_targets, d) array of mean unit vectors from each target
    to the sample points; sample points exactly coincident with a target
    contribute the zero vector.

    Each coordinate is handled as its own contiguous (points, targets)
    array: the differences point - target, their length
    sqrt(dx*dx + dy*dy + ...) summed in coordinate order, each difference
    divided by that length, and the quotients summed over the points
    strictly in sample order before dividing by the sample size. That order
    is the contract: a target's result is the same bits however the work is
    tiled and equals a loop that adds one point's unit vector at a time,
    starting from zero.

    The work is tiled so that it stays in cache: every call uses one rule, a
    tile of at most isqrt(_BLOCK_ELEMS) targets and _BLOCK_ELEMS // 2 //
    targets points. Each target's running sum is carried in row 0 of the
    next point tile, so the sum over all points is still one running sum in
    sample order.

    The per-tile arrays (d quotients, the lengths and one array of squares,
    each with the carry row) are views of one float64 buffer that the call
    allocates for its largest tile, (d + 2) x (rows + 1) x targets elements
    (about 1.3 MB at d = 3, whatever the sample size), and frees on return.
    Every element a call reads was written earlier in the same call.

    Points and targets are first scaled by one power of two (see
    ``_pow2_scale``), which leaves every unit vector's bits as they are
    while the offsets and their squares stay finite and normal.
    """
    pts = _points(sample)
    tgt = _points(targets)
    m, d = pts.shape
    if tgt.shape[1] != d:
        raise DataError(f"sample has d={d} but targets have d={tgt.shape[1]}")
    scale = _pow2_scale(pts, tgt)
    pts, tgt = pts * scale, tgt * scale
    cols = [pts[:, j, None] for j in range(d)]
    out = np.empty_like(tgt)
    width = max(1, min(len(tgt), math.isqrt(_BLOCK_ELEMS)))
    height = max(1, min(m, _BLOCK_ELEMS // 2 // width))
    buf = np.empty((d + 2) * (height + 1) * width)
    # A coincident point divides 0 by 0; its quotient is then set to 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(tgt), width):
            chunk = tgt[start : start + width]
            n = len(chunk)
            work = buf[: (d + 2) * (height + 1) * n].reshape(d + 2, height + 1, n)
            sums, dist, sq = work[:d], work[d, 1:], work[d + 1, 1:]
            sums[:, 0] = 0.0
            for lo in range(0, m, height):
                rows = min(height, m - lo)
                diffs = sums[:, 1 : rows + 1]
                for j, diff in enumerate(diffs):
                    np.subtract(cols[j][lo : lo + rows], chunk[:, j], out=diff)
                length = dist[:rows]
                np.multiply(diffs[0], diffs[0], out=length)
                for diff in diffs[1:]:
                    np.multiply(diff, diff, out=sq[:rows])
                    length += sq[:rows]
                np.sqrt(length, out=length)
                coincident = None if length.all() else length == 0.0
                for j, diff in enumerate(diffs):
                    np.divide(diff, length, out=diff)
                    if coincident is not None:
                        diff[coincident] = 0.0
                    sums[j, 0] = _sum_in_order(sums[j, : rows + 1])
            out[start : start + width] = sums[:, 0].T / m
    return out


def _sum_in_order(a: np.ndarray) -> np.ndarray:
    """Column sums of ``a``, adding its rows one after another.

    numpy reduces over axis 0 row by row when rows hold two or more
    elements, but a single column is summed pairwise, so that case runs a
    running sum instead.
    """
    if a.shape[1] == 1 and a.shape[0] > 0:
        return np.add.accumulate(a[:, 0])[-1:]
    return a.sum(axis=0)


def _lengths(offsets: np.ndarray) -> np.ndarray:
    """Column lengths of a (d, m) array of offsets."""
    return np.sqrt((offsets * offsets).sum(axis=0))


def _coordinate_median(cols: np.ndarray) -> np.ndarray:
    """Row medians of a (d, m) array, with the bits of ``np.median(cols,
    axis=1)``: one partition, plus a max over the lower half when m is even,
    whose mean with the middle element is the median. np.median's mean adds
    from +0.0, which turns a median of -0.0 into +0.0; so does ``+ 0.0``."""
    m = cols.shape[1]
    part = np.partition(cols, m // 2, axis=1)
    upper = part[:, m // 2]
    if m % 2:
        return upper + 0.0
    return (part[:, : m // 2].max(axis=1) + upper + 0.0) / 2.0


def spatial_median(sample, tol: float = 1e-8, max_iter: int = 1000) -> SpatialMedianResult:
    """Euclidean 1-median by a safeguarded Newton iteration.

    In one dimension the sample median is returned in closed form. Otherwise
    the iteration starts from the coordinate-wise median and takes Newton
    steps on the objective (the sum of distances), whose gradient is minus
    the pull (the summed unit vectors towards the points) and whose Hessian
    is the sum of (I - u u^T) / distance. A step is kept only if the
    objective falls, halving it a few times before giving up; when it does
    not, when the Hessian is ill-conditioned (all points on a line through
    the iterate) or when the iterate sits on a data point, the modified
    Weiszfeld step is taken instead. At a data point that step is shortened
    by the coincident multiplicity, which keeps it a descent step.

    The minimizer may be a data point, where the objective has a kink and
    neither step gets there quickly. So whenever the nearest data point lies
    within the length of the last proposed step, or coincides with the
    iterate, the generalized optimality condition is tested exactly at that
    point (Vardi & Zhang 2000): it is the minimizer if the pull of the
    points outside its coincidence cluster does not exceed the cluster size.
    Coincidence is judged with a small tolerance relative to the coordinate
    scale. Convergence is declared on the norm of the objective subgradient,
    the pull net of the coincident multiplicity: ``converged`` means that
    norm reached max(``tol``, its rounding floor). The floor is the
    subgradient's own rounding error, eps x sum((|c_i|_1 + |t|_1) / dist_i)
    in scaled units, which a tolerance near 1e-12 can lie below when the
    minimizer is close to a data point.

    The offsets from the iterate are held as one (d, m) array, so each pass
    over the points is d contiguous rows and the pull and Hessian are
    matrix products.

    The iteration runs on the points scaled by a power of two (see
    ``_pow2_scale``), and the location is scaled back: the bits are those of
    the unscaled iteration wherever it neither overflows nor underflows, and
    points at any finite scale (1e300 or 1e-300) are handled alike.

    A failure to converge within ``max_iter`` steps is reported through the
    ``converged`` flag, not an exception.
    """
    pts = _points(sample)
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    scale = _pow2_scale(pts)
    loc, gnorm, iterations, converged = _newton_median(pts, scale, tol, max_iter)
    return SpatialMedianResult(loc / scale, gnorm, iterations, converged)


def _newton_median(pts: np.ndarray, scale: float, tol: float, max_iter: int):
    """:func:`spatial_median` in units of 1 / ``scale``, as (location in
    those units, gradient norm, iterations, converged). Only the (d, m)
    offsets and small clusters of points are held scaled."""
    m, d = pts.shape
    cols = np.multiply(pts.T, scale, order="C")
    t = _coordinate_median(cols)
    if d == 1:
        return t, 0.0, 0, True

    snap = 1e-13 * float(np.abs(cols).max())
    spans = np.abs(cols).sum(axis=0)  # |c_i|_1, for the rounding floor below
    diff = cols - t[:, None]
    dist = _lengths(diff)
    reach = 0.0  # length of the longest step proposed last iteration
    gnorm = float("inf")
    for it in range(max_iter + 1):
        nearest = int(np.argmin(dist))
        coincident = dist <= snap if dist[nearest] <= snap else None
        eta = 0 if coincident is None else int(coincident.sum())
        if eta == m:
            return (pts * scale).mean(axis=0), 0.0, it, True
        if eta or dist[nearest] <= reach:
            away = cols - cols[:, nearest, None]
            lengths = _lengths(away)
            cluster = lengths <= snap
            outside = ~cluster
            r_c = float(np.linalg.norm(away[:, outside] @ (1.0 / lengths[outside])))
            if r_c - cluster.sum() <= tol:
                loc = (pts[cluster] * scale).mean(axis=0)
                return loc, max(r_c - cluster.sum(), 0.0), it, True
        if eta:
            inv = np.zeros(m)
            inv[~coincident] = 1.0 / dist[~coincident]
        else:
            inv = 1.0 / dist
        pull = diff @ inv
        r = float(np.linalg.norm(pull))
        gnorm = max(r - eta, 0.0) if eta else r
        inv_sum = inv.sum()
        # Below its rounding floor, eps * sum((|c_i|_1 + |t|_1) / dist_i), the
        # computed subgradient is noise and no step can shrink it further.
        # Not np.dot: on a 2-vCPU VM, OpenBLAS took 4-8 ms for a dot product
        # of two 40 000-vectors, and (a * b).sum() 0.05 ms.
        if gnorm <= tol or gnorm <= _EPS * ((spans * inv).sum() + np.abs(t).sum() * inv_sum):
            loc = (pts[coincident] * scale).mean(axis=0) if eta else t
            return loc, gnorm, it, True
        if it == max_iter:
            break
        reach = 0.0
        if not eta:
            hess = inv_sum * np.eye(d) - (diff * inv**3) @ diff.T
            w, v = np.linalg.eigh(hess)
            if w[0] > 1e-8 * w[-1]:
                step = v @ ((v.T @ pull) / w)
                reach = float(np.linalg.norm(step))
                for _ in range(_HALVINGS + 1):
                    # Offsets are taken from the rounded iterate, never
                    # updated by the step, so they cannot drift from it.
                    new_t = t + step
                    new_diff = cols - new_t[:, None]
                    new_dist = _lengths(new_diff)
                    # The objective change summed from per-point differences,
                    # using |a - s|^2 - |a|^2 = s.s - 2 s.a: near the minimum
                    # the objective itself no longer resolves the decrease a
                    # Newton step makes.
                    if ((step @ step - 2.0 * (step @ diff)) / (new_dist + dist)).sum() < 0.0:
                        break
                    step = 0.5 * step
                else:
                    new_t = None
                if new_t is not None:
                    t, diff, dist = new_t, new_diff, new_dist
                    continue
        target = (cols @ inv) / inv_sum
        if eta:
            beta = min(1.0, eta / r)
            target = (1.0 - beta) * target + beta * t
        reach = max(reach, float(np.linalg.norm(target - t)))
        t = target
        diff = cols - t[:, None]
        dist = _lengths(diff)
    return t, gnorm, max_iter, False


def data_radius(sample, center) -> float:
    """Distance from ``center`` to the farthest sample point: inf only if
    that distance exceeds the largest float."""
    pts = _points(sample)
    center = np.asarray(center, dtype=float).ravel()
    if center.size != pts.shape[1]:
        raise DataError(f"center has d={center.size} but sample has d={pts.shape[1]}")
    scale = _pow2_scale(pts, center)
    offsets = np.multiply(pts.T, scale, order="C")
    offsets -= (center * scale)[:, None]
    return float(_lengths(offsets).max()) / scale


def combined_region(proj_x, proj_y, k: float, tol: float = 1e-8) -> RegionSpec:
    """Integration region covering both projected samples.

    The center is the spatial median of the pooled points (union with
    multiplicity) and the base radius the distance to the farthest pooled
    point. The two samples are stacked in a canonical order, the one with
    fewer rows first and, for equal sizes, the one with the smaller bytes
    first, so both argument orders pool the very same array and the result
    is exactly symmetric in the two arguments.
    """
    px = _points(proj_x)
    py = _points(proj_y)
    if px.shape[1] != py.shape[1]:
        raise DataError(f"projected samples have d={px.shape[1]} and d={py.shape[1]}")
    if (len(py), py.tobytes()) < (len(px), px.tobytes()):
        px, py = py, px
    pooled = np.vstack([px, py])
    med = spatial_median(pooled, tol=tol)
    radius = data_radius(pooled, med.location)
    return RegionSpec(med, base_radius=radius, multiplier=k)
