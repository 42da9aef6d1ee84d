"""Stochastic maximization of a projection index over orthonormal frames.

Two strategies are provided: simulated annealing on perturbed-and-
reorthonormalized frames, and a guided-tour style hill climb along
geodesics towards random target frames. Both are deterministic given the
seed and track the best frame seen.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PursuitError
from .frames import ProjectionFrame, orthonormalize
from .projection_index import IndexConfig, IndexValue, index

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AnnealConfig:
    """Cooling and step schedule for :func:`anneal_search`.

    The defaults were calibrated on a synthetic objective with a known
    optimum so the default 200-iteration budget reliably reaches it: the
    step scale has to decay fast enough that late iterations make fine
    adjustments, and the temperature fast enough that they are greedy.
    """

    t0: float = 1.0
    cooling: float = 0.95
    step_scale0: float = 0.5
    step_decay: float = 0.98

    def __post_init__(self):
        if self.t0 <= 0 or not 0 < self.cooling <= 1:
            raise ValueError("need t0 > 0 and cooling in (0, 1]")
        if self.step_scale0 <= 0 or not 0 < self.step_decay <= 1:
            raise ValueError("need step_scale0 > 0 and step_decay in (0, 1]")


@dataclass(frozen=True)
class GeodesicConfig:
    """Angle schedule for :func:`geodesic_search`."""

    max_angle: float = math.pi / 4
    shrink: float = 0.7
    min_angle: float = 1e-3
    n_probes: int = 25

    def __post_init__(self):
        if self.max_angle <= 0 or not 0 < self.shrink < 1:
            raise ValueError("need max_angle > 0 and shrink in (0, 1)")
        if self.min_angle <= 0 or self.n_probes < 1:
            raise ValueError("need min_angle > 0 and n_probes >= 1")


@dataclass(frozen=True)
class SearchConfig:
    """Restart search settings shared by both optimizers."""

    optimizer: str = "anneal"
    restarts: int = 10
    max_iterations: int = 200
    rng_seed: int = 0
    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    geodesic: GeodesicConfig = field(default_factory=GeodesicConfig)

    def __post_init__(self):
        if self.optimizer not in ("anneal", "geodesic"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        # 0 is allowed so a search can degenerate to scoring the start frame.
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass
class SolutionProjection:
    """One optimizer result: the frame and how it was found and scored."""

    frame: ProjectionFrame
    search_index: IndexValue | float
    refined_index: IndexValue | None = None
    restart_id: int = 0
    iterations_used: int = 0
    seed: int = 0
    best_trace: tuple[float, ...] = ()
    duplicate_of: int | None = None


def random_frame(p: int, d: int, rng: np.random.Generator) -> ProjectionFrame:
    """A frame drawn from the rotation-invariant distribution on p x d frames."""
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got p={p}, d={d}")
    while True:
        try:
            return orthonormalize(rng.standard_normal((p, d)))
        except PursuitError:  # pragma: no cover - measure-zero redraw
            continue


def anneal_search(
    objective, start: ProjectionFrame, cfg: SearchConfig, rng: np.random.Generator
) -> SolutionProjection:
    """Simulated annealing from ``start``, maximizing ``objective``.

    At step i the proposal is orthonormalize(A + sigma_i * G) with G a matrix
    of standard normal draws, sigma_i = step_scale0 * step_decay**i, accepted
    by the Metropolis rule at temperature t0 * cooling**i. The best frame
    seen is returned, which may differ from the final accepted one.
    """
    a = cfg.anneal
    current, cur_val = start, objective(start)
    best, best_val = current, cur_val
    trace = [float(cur_val)]
    for i in range(cfg.max_iterations):
        sigma = a.step_scale0 * a.step_decay**i
        temp = a.t0 * a.cooling**i
        cand = orthonormalize(current.matrix + sigma * rng.standard_normal(current.matrix.shape))
        cand_val = objective(cand)
        delta = float(cand_val) - float(cur_val)
        if delta >= 0 or rng.random() < math.exp(delta / temp):
            current, cur_val = cand, cand_val
        if float(cand_val) > float(best_val):
            best, best_val = cand, cand_val
        trace.append(float(best_val))
    return SolutionProjection(
        frame=best,
        search_index=best_val,
        iterations_used=cfg.max_iterations,
        best_trace=tuple(trace),
    )


def _rotation_power(rot: np.ndarray, t: float) -> np.ndarray:
    """Fractional power of a special orthogonal matrix."""
    d = rot.shape[0]
    if d == 1:
        return np.ones((1, 1))
    if d == 2:
        phi = math.atan2(rot[1, 0], rot[0, 0]) * t
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, -s], [s, c]])
    # General case: rot is normal with unit-circle eigenvalues in conjugate
    # pairs, so the principal logarithm via a complex eigenbasis is real.
    w, vecs = np.linalg.eig(rot)
    powered = np.exp(t * np.log(w))
    return np.ascontiguousarray(((vecs * powered) @ np.linalg.inv(vecs)).real)


class _GeodesicPath:
    """Interpolating path between two frames.

    The span rotates through the principal angles between the two column
    spaces while the basis is carried by an in-span rotation from the start
    alignment to the target's, so ``at(0)`` is the start frame and ``at(1)``
    is exactly the target frame.
    """

    def __init__(self, start: ProjectionFrame, target: ProjectionFrame):
        fa, fz = start.matrix, target.matrix
        va, sig, vzt = np.linalg.svd(fa.T @ fz)
        vz = vzt.T.copy()
        cosines = np.clip(sig, -1.0, 1.0)
        if np.linalg.det(va) * np.linalg.det(vz) < 0:
            # Keep the in-span rotation inside SO(d).
            vz[:, -1] = -vz[:, -1]
            cosines[-1] = -cosines[-1]
        self._ba = fa @ va
        bz = fz @ vz
        self._tau = np.arccos(cosines)
        sin_tau = np.sin(self._tau)
        comp = np.zeros_like(self._ba)
        tilted = sin_tau > 1e-12
        comp[:, tilted] = (
            bz[:, tilted] - self._ba[:, tilted] * np.cos(self._tau[tilted])
        ) / sin_tau[tilted]
        self._comp = comp
        self._va = va
        self._rot = va.T @ vz
        self.span_angle = float(np.linalg.norm(self._tau))
        self.rotation_gap = float(np.linalg.norm(self._rot - np.eye(self._rot.shape[0])))

    def at(self, t: float) -> np.ndarray:
        b = self._ba * np.cos(t * self._tau) + self._comp * np.sin(t * self._tau)
        w = self._va @ _rotation_power(self._rot, t)
        return b @ w.T


def _as_frame(matrix: np.ndarray) -> ProjectionFrame:
    try:
        return ProjectionFrame(matrix)
    except ValueError:
        return orthonormalize(matrix)


def geodesic_search(
    objective, start: ProjectionFrame, cfg: SearchConfig, rng: np.random.Generator
) -> SolutionProjection:
    """Guided-tour style hill climb from ``start``, maximizing ``objective``.

    Each iteration draws a random target frame and probes the geodesic
    through the current frame and the target at geometrically spaced
    parameters on both sides of the current frame, capped by the angle
    budget. Two-sided geometric probing makes the line search scale-free:
    some probe is always near the best step along the line, whichever side
    it falls on. The best probe replaces the current frame only if it
    improves the objective; otherwise the angle shrinks. On success the
    budget recovers by one shrink factor (capped at ``max_angle``) so a run
    of bad target draws does not exhaust the budget while progress is still
    being made. Terminates when the angle drops below ``min_angle`` or the
    iteration budget is exhausted, so the result is never worse than the
    start.
    """
    g = cfg.geodesic
    current, cur_val = start, objective(start)
    trace = [float(cur_val)]
    angle = g.max_angle
    iters = 0
    while iters < cfg.max_iterations and angle >= g.min_angle:
        iters += 1
        target = random_frame(start.p, start.d, rng)
        path = _GeodesicPath(current, target)
        if path.span_angle < 1e-12 and path.rotation_gap < 1e-12:
            angle *= g.shrink
            trace.append(float(cur_val))
            continue
        t_max = min(1.0, angle / max(path.span_angle, 1e-12))
        best_probe, best_probe_val = None, -math.inf
        for j in range(g.n_probes):
            t = t_max * g.shrink ** (j // 2)
            if j % 2:
                t = -t
            cand = _as_frame(path.at(t))
            cand_val = objective(cand)
            if float(cand_val) > float(best_probe_val):
                best_probe, best_probe_val = cand, cand_val
        if float(best_probe_val) > float(cur_val):
            current, cur_val = best_probe, best_probe_val
            angle = min(angle / g.shrink, g.max_angle)
        else:
            angle *= g.shrink
        trace.append(float(cur_val))
    return SolutionProjection(
        frame=current,
        search_index=cur_val,
        iterations_used=iters,
        best_trace=tuple(trace),
    )


def largest_principal_angle(a: ProjectionFrame, b: ProjectionFrame) -> float:
    """Largest principal angle between the column spaces of two frames."""
    sig = np.linalg.svd(a.matrix.T @ b.matrix, compute_uv=False)
    return float(np.arccos(np.clip(sig.min(), -1.0, 1.0)))


def flag_duplicates(solutions: list[SolutionProjection], threshold: float = 0.05) -> None:
    """Mark solutions whose span nearly repeats an earlier (better) one.

    Walks the list in order and sets ``duplicate_of`` to the restart id of
    the first earlier solution within ``threshold`` radians of largest
    principal angle. Duplicates are flagged, never removed.
    """
    for i, sol in enumerate(solutions):
        sol.duplicate_of = None
        for earlier in solutions[:i]:
            if largest_principal_angle(sol.frame, earlier.frame) < threshold:
                sol.duplicate_of = earlier.restart_id
                break


def run_search(
    x,
    y,
    d: int,
    idx_cfg: IndexConfig | None = None,
    search_cfg: SearchConfig | None = None,
) -> list[SolutionProjection]:
    """Multi-restart index maximization of data ``x`` against benchmark ``y``.

    Restart r uses the child seed ``rng_seed + r`` for both its starting
    frame and its proposal stream, so any subset of restarts reproduces
    identically. Results are sorted by descending search index with ties
    broken by restart id; near-duplicate spans are flagged. A restart that
    fails numerically is logged and skipped; a ``d`` outside [1, p] raises
    :class:`DimensionMismatch` before the first restart.
    """
    if not 1 <= d <= x.p:
        raise DimensionMismatch(f"d must be in [1, {x.p}] for {x.p} data columns, got {d}")
    idx_cfg = idx_cfg if idx_cfg is not None else IndexConfig()
    search_cfg = search_cfg if search_cfg is not None else SearchConfig()

    def objective(frame: ProjectionFrame) -> IndexValue:
        return index(frame, x, y, idx_cfg)

    search = anneal_search if search_cfg.optimizer == "anneal" else geodesic_search
    solutions: list[SolutionProjection] = []
    for restart_id in range(search_cfg.restarts):
        seed = search_cfg.rng_seed + restart_id
        rng = np.random.default_rng(seed)
        try:
            start = random_frame(x.p, d, rng)
            sol = search(objective, start, search_cfg, rng)
        except (PursuitError, np.linalg.LinAlgError, ValueError) as err:
            log.warning("restart %d (seed %d) failed: %s", restart_id, seed, err)
            continue
        sol.restart_id = restart_id
        sol.seed = seed
        solutions.append(sol)
    solutions.sort(key=lambda s: (-float(s.search_index), s.restart_id))
    flag_duplicates(solutions)
    return solutions
