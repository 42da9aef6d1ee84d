"""Independent reference implementations used to check the package.

Everything here loops over sample points and applies the defining formulas,
on purpose: obvious, and structurally different from the vectorized library
code it is used to validate.
"""

from __future__ import annotations

import numpy as np


def sdf_loop(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mean unit vector from ``t`` to each sample point, one point at a time."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros_like(t)
    for p in np.asarray(points, dtype=float):
        diff = p - t
        norm = float(np.sqrt((diff**2).sum()))
        if norm > 0.0:
            acc += diff / norm
    return acc / len(points)


def sdf_loop_many(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Row-wise :func:`sdf_loop`, vectorized over nodes but not points."""
    nodes = np.asarray(nodes, dtype=float)
    acc = np.zeros_like(nodes)
    for p in np.asarray(points, dtype=float):
        diff = nodes - p
        dist = np.sqrt((diff**2).sum(axis=1))
        ok = dist > 0.0
        acc[ok] += -diff[ok] / dist[ok, None]
    return acc / len(points)


def median_objective(points: np.ndarray, g: np.ndarray) -> float:
    """Sum of Euclidean distances from ``g`` to the points."""
    pts = np.asarray(points, dtype=float)
    return float(np.linalg.norm(pts - np.asarray(g, dtype=float), axis=1).sum())


def weiszfeld_median(
    points: np.ndarray, tol: float = 1e-8, max_iter: int = 1000
) -> tuple[np.ndarray, bool]:
    """Euclidean 1-median by the modified Weiszfeld iteration; (location, converged).

    The package's solver before it took Newton steps, kept as the reference.
    It starts from the coordinate-wise median. Near a data point (within 0.1
    of the coordinate scale) it tests the generalized optimality condition
    there exactly: the point is optimal once the pull of the points outside
    its coincidence cluster does not exceed the cluster size. At a data
    point the Weiszfeld step is shortened by the coincident multiplicity.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    m = len(pts)
    if m == 1:
        return pts[0].copy(), True
    scale = float(np.abs(pts).max())
    snap = 1e-13 * scale
    trigger = 0.1 * scale
    t = np.median(pts, axis=0)
    for it in range(max_iter + 1):
        diff = pts - t
        dist = np.linalg.norm(diff, axis=1)
        coincident = dist <= snap
        eta = int(coincident.sum())
        if eta == m:
            return pts.mean(axis=0), True
        if dist.min() <= trigger:
            anchor = pts[int(np.argmin(dist))]
            cluster = np.linalg.norm(pts - anchor, axis=1) <= snap
            away = pts[~cluster] - anchor
            units = away / np.linalg.norm(away, axis=1)[:, None]
            if float(np.linalg.norm(units.sum(axis=0))) - cluster.sum() <= tol:
                return pts[cluster].mean(axis=0), True
        inv = np.zeros(m)
        inv[~coincident] = 1.0 / dist[~coincident]
        pull = (diff * inv[:, None]).sum(axis=0)
        r = float(np.linalg.norm(pull))
        gnorm = max(r - eta, 0.0) if eta else r
        if gnorm <= tol:
            return (pts[coincident].mean(axis=0) if eta else t), True
        if it == max_iter:
            break
        target = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        if eta:
            beta = min(1.0, eta / r)
            t = (1.0 - beta) * target + beta * t
        else:
            t = target
    return t, False


def brute_median_objective(points: np.ndarray, cells: int = 2000) -> float:
    """Minimum of the 1-median objective over a bounding-box grid.

    The grid midpoint never beats the true minimizer, so a correct iterative
    solver must come in at or below this value (up to the grid's own error).
    """
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    gx = np.linspace(lo[0], hi[0], cells)[:, None]
    gy = np.linspace(lo[1], hi[1], cells)[None, :]
    totals = np.zeros((cells, cells))
    dist = np.empty_like(totals)
    for px, py in pts:
        dx = gx - px
        dy = gy - py
        np.add(dx * dx, dy * dy, out=dist)
        totals += np.sqrt(dist, out=dist)
    return float(totals.min())


def grid_index_disc(
    proj_x: np.ndarray,
    proj_y: np.ndarray,
    center: np.ndarray,
    radius: float,
    n_r: int = 1000,
    n_theta: int = 1000,
) -> float:
    """Dense polar midpoint integration of the index over a disc.

    Integrates ||G_X(t) - G_Y(t)|| over the disc of the given center and
    radius with a midpoint rule in (rho, theta): the integrand is evaluated
    at cell centers and weighted by rho * d_rho * d_theta, which avoids any
    boundary-cell bias a Cartesian grid would need to handle.
    """
    center = np.asarray(center, dtype=float)
    rho = (np.arange(n_r) + 0.5) * (radius / n_r)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    d_rho = radius / n_r
    d_theta = 2.0 * np.pi / n_theta
    # node coordinates on the full (n_r, n_theta) grid
    nx = rho[:, None] * np.cos(theta)[None, :] + center[0]
    ny = rho[:, None] * np.sin(theta)[None, :] + center[1]

    def mean_unit_pull(points):
        """Per coordinate, the mean unit vector from every node to the points."""
        points = np.asarray(points, dtype=float)
        ux = np.zeros_like(nx)
        uy = np.zeros_like(ny)
        dx, dy, r, sq = (np.empty_like(nx) for _ in range(4))
        ok = np.empty(nx.shape, dtype=bool)
        for px, py in points:
            np.subtract(px, nx, out=dx)
            np.subtract(py, ny, out=dy)
            np.multiply(dx, dx, out=r)
            r += np.multiply(dy, dy, out=sq)
            np.sqrt(r, out=r)
            np.greater(r, 0.0, out=ok)
            # A point on a node (r == 0) pulls it nowhere.
            np.add(ux, np.divide(dx, r, out=sq, where=ok), out=ux, where=ok)
            np.add(uy, np.divide(dy, r, out=sq, where=ok), out=uy, where=ok)
        return ux / len(points), uy / len(points)

    sx, sy = mean_unit_pull(proj_x)
    bx, by = mean_unit_pull(proj_y)
    gap = np.sqrt((sx - bx) ** 2 + (sy - by) ** 2)
    return float((gap * rho[:, None]).sum()) * d_rho * d_theta


def lcg_closed_form(multiplier: int, modulus: int, seed: int, n: int) -> int:
    """State after ``n`` steps via modular exponentiation, not iteration."""
    return (pow(multiplier, n, modulus) * seed) % modulus


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix from a sign-fixed QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))
