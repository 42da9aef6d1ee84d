"""Stochastic maximization of a projection index over orthonormal frames.

Two strategies are provided: simulated annealing on perturbed-and-
reorthonormalized frames, and a guided-tour style hill climb along
Grassmann geodesics towards random target spans. Both are deterministic
given the seed and track the best frame seen.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _fork, projection_index
from .errors import DataError
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
        if not 0 < self.t0 < math.inf or not 0 < self.cooling <= 1:
            raise ValueError("need 0 < t0 < inf and cooling in (0, 1]")
        if not 0 < self.step_scale0 < math.inf or not 0 < self.step_decay <= 1:
            raise ValueError("need 0 < step_scale0 < inf and step_decay in (0, 1]")


@dataclass(frozen=True)
class GeodesicConfig:
    """Angle schedule for :func:`geodesic_search`."""

    max_angle: float = math.pi / 4
    shrink: float = 0.7
    min_angle: float = 1e-3
    n_probes: int = 25

    def __post_init__(self):
        if not 0 < self.max_angle < math.inf or not 0 < self.shrink < 1:
            raise ValueError("need 0 < max_angle < inf and shrink in (0, 1)")
        if not 0 < self.min_angle < math.inf or self.n_probes < 1:
            raise ValueError("need 0 < min_angle < inf and n_probes >= 1")


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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be at least 0")
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
    return orthonormalize(rng.standard_normal((p, d)))


def anneal_search(
    objective, start: ProjectionFrame, cfg: SearchConfig, rng: np.random.Generator
) -> SolutionProjection:
    """Simulated annealing from ``start``, maximizing ``objective``.

    At step i the proposal is orthonormalize(A + sigma_i * G) with G a matrix
    of standard normal draws, sigma_i = step_scale0 * step_decay**i, accepted
    by the Metropolis rule at temperature t0 * cooling**i. Once that
    temperature underflows to 0, only proposals that do not lower the value
    are accepted, and no acceptance draw is made. The best frame seen is
    returned, which may differ from the final accepted one.
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
        if delta >= 0 or temp > 0 and rng.random() < math.exp(delta / temp):
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


class _GeodesicPath:
    """Grassmann geodesic from the span of one frame toward another's.

    With F^T Z = V cos(tau) W^T (SVD; tau are the principal angles between
    the spans), ``at(t)`` is (F V cos(t tau) + U sin(t tau)) V^T, where U
    holds the components of Z W orthogonal to span(F), scaled to unit
    length (Edelman, Arias & Smith 1998). ``at(0)`` is the start frame,
    ``at(1)`` spans the target, and the principal angles between the start
    and ``at(t)`` are t tau. The basis is carried along, never rotated
    within the span, since the exact index depends on the span alone.
    """

    def __init__(self, start: ProjectionFrame, target: ProjectionFrame):
        f, z = start.matrix, target.matrix
        v, sig, wt = np.linalg.svd(f.T @ z)
        self._fv = f @ v
        self._vt = v.T
        # Z W less its projection onto span(F): column norms are sin(tau).
        # Taking tau from both sine and cosine keeps small angles exact,
        # where arccos(sig) alone resolves only about 1e-8.
        resid = z @ wt.T - self._fv * sig
        sin_tau = np.linalg.norm(resid, axis=0)
        self._tau = np.arctan2(sin_tau, sig)
        comp = np.zeros_like(self._fv)
        tilted = sin_tau > 1e-12
        comp[:, tilted] = resid[:, tilted] / sin_tau[tilted]
        self._comp = comp
        self.span_angle = float(np.linalg.norm(self._tau))

    def at(self, t: float) -> np.ndarray:
        return (self._fv * np.cos(t * self._tau) + self._comp * np.sin(t * self._tau)) @ self._vt


def geodesic_search(
    objective, start: ProjectionFrame, cfg: SearchConfig, rng: np.random.Generator, score=None
) -> SolutionProjection:
    """Guided-tour style hill climb from ``start``, maximizing ``objective``.

    Each iteration draws a random target frame and probes the Grassmann
    geodesic through the current span and the target's span at geometrically
    spaced parameters on both sides of the current frame, capped by the angle
    budget. Two-sided geometric probing makes the line search scale-free:
    some probe is always near the best step along the line, whichever side
    it falls on. The best probe replaces the current frame only if it
    improves the objective; otherwise the angle shrinks. On success the
    budget recovers by one shrink factor (capped at ``max_angle``) so a run
    of bad target draws does not exhaust the budget while progress is still
    being made. Terminates when the angle drops below ``min_angle`` or the
    iteration budget is exhausted, so the result is never worse than the
    start. Only the span moves; at d = p every frame has the same span, so
    the start frame is returned.

    An iteration's probe frames are built first, in probe order, and then
    scored by one call ``score(frames)``, which returns the objective of each
    frame in order: ``map(objective, frames)`` unless given, or a map of an
    equal objective on forked children. The probes do not depend on
    one another and the best is taken in probe order, so the result has the
    same bits either way; ``rng`` draws only the target frames.
    """
    g = cfg.geodesic
    score = score if score is not None else functools.partial(map, objective)
    current, cur_val = start, objective(start)
    trace = [float(cur_val)]
    angle = g.max_angle
    iters = 0
    while iters < cfg.max_iterations and angle >= g.min_angle:
        iters += 1
        target = random_frame(start.p, start.d, rng)
        path = _GeodesicPath(current, target)
        if path.span_angle < 1e-12:
            angle *= g.shrink
            trace.append(float(cur_val))
            continue
        t_max = min(1.0, angle / path.span_angle)
        probes = []
        for j in range(g.n_probes):
            t = t_max * g.shrink ** (j // 2)
            probes.append(orthonormalize(path.at(-t if j % 2 else t)))
        best_probe, best_probe_val = None, -math.inf
        for cand, cand_val in zip(probes, score(probes)):
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
    """Largest principal angle between the column spaces of two frames.

    The angles are those of the geodesic between the spans, taken from both
    their sines and cosines, so equal spans read zero to rounding.
    """
    return float(_GeodesicPath(a, b)._tau.max())


# Largest principal angle (radians) under which two solutions share a span.
DUPLICATE_ANGLE = 0.05


def flag_duplicates(solutions: list[SolutionProjection]) -> None:
    """Mark solutions whose span nearly repeats an earlier (better) one.

    Walks the list in order and sets ``duplicate_of`` to the restart id of
    the first earlier solution within ``DUPLICATE_ANGLE`` radians of largest
    principal angle. Duplicates are flagged, never removed.
    """
    for i, sol in enumerate(solutions):
        sol.duplicate_of = None
        for earlier in solutions[:i]:
            if largest_principal_angle(sol.frame, earlier.frame) < DUPLICATE_ANGLE:
                sol.duplicate_of = earlier.restart_id
                break


def _restart(x, y, d: int, idx_cfg: IndexConfig, search_cfg: SearchConfig, restart_id: int,
             score=None):
    """Restart ``restart_id`` of :func:`run_search`: its solution, or the
    numerical error that ended it. ``score`` is the geodesic search's probe
    map (see :func:`geodesic_search`); an error it raises for a probe ends
    the restart as the same error scored here would."""
    seed = search_cfg.rng_seed + restart_id
    rng = np.random.default_rng(seed)
    try:
        start = random_frame(x.p, d, rng)
        objective = lambda frame: index(frame, x, y, idx_cfg)  # noqa: E731
        if search_cfg.optimizer == "anneal":
            sol = anneal_search(objective, start, search_cfg, rng)
        else:
            sol = geodesic_search(objective, start, search_cfg, rng, score)
    except (DataError, np.linalg.LinAlgError, ValueError) as err:
        return err
    sol.restart_id = restart_id
    sol.seed = seed
    return sol


def _workers(x, y, idx_cfg: IndexConfig, search_cfg: SearchConfig) -> int:
    """Forked children for a search, as ``_fork.workers`` sizes them; 1 runs
    it in this process.

    Two or more restarts are one task each, of (1 + iterations x probes)
    evaluations, where an anneal step is one probe. A single geodesic
    restart's probes are sent in chunks of ceil(n_probes / children), and a
    single anneal restart is one task, since each of its steps starts from
    the last. An evaluation is (n_x + n_y) x n_nodes pairs.
    """
    pairs = (x.n + y.n) * idx_cfg.n_nodes
    probes = search_cfg.geodesic.n_probes if search_cfg.optimizer == "geodesic" else 1
    if search_cfg.restarts > 1:
        evaluations = 1 + search_cfg.max_iterations * probes
        return _fork.workers(search_cfg.restarts, evaluations * pairs)
    chunk = math.ceil(probes / min(probes, _fork.cpus()))
    return _fork.workers(probes, chunk * pairs)


def _on_workers(job: tuple, restart_ids: range, workers: int) -> list:
    """The outcome of each restart of ``job``, as :func:`_restart` returns
    it, in restart-id order, from ``workers`` children that inherit ``job``.

    Two or more restarts run one restart per task. A single restart runs
    here, and each iteration's probes are scored on the children in
    ceil(n_probes / workers) probes per task; a probe's error reaches
    ``_restart`` as it would in this process.
    """
    x, y, _, idx_cfg, search_cfg = job
    if len(restart_ids) > 1:
        with _fork.children(functools.partial(_restart, *job), workers, "restart worker") as map_:
            return map_(restart_ids)

    def score_chunk(frames):
        return [index(frame, x, y, idx_cfg) for frame in frames]

    chunk = math.ceil(search_cfg.geodesic.n_probes / workers)
    with _fork.children(score_chunk, workers, "probe worker") as map_:
        def score(frames):
            parts = map_([frames[i:i + chunk] for i in range(0, len(frames), chunk)])
            return [value for part in parts for value in part]

        return [_restart(*job, restart_ids[0], score)]


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
    :class:`DataError`, and one the ball map does not support raises
    :class:`ConfigError`, before the first restart.

    When its tasks reach ``_fork.TASK_PAIRS`` (see ``_workers``), the search
    runs on forked children: several restarts one per task, a single
    geodesic restart its probes. Every restart draws only from its own seed,
    and probes are chosen in probe order, so the solutions have the same
    bits either way; failed restarts are logged here, in restart order.
    """
    if not 1 <= d <= x.p:
        raise DataError(f"d must be in [1, {x.p}] for {x.p} data columns, got {d}")
    idx_cfg = idx_cfg if idx_cfg is not None else IndexConfig()
    search_cfg = search_cfg if search_cfg is not None else SearchConfig()
    # An unsupported d fails here, and forked children inherit the cached nodes.
    projection_index._unit_ball_nodes(d, idx_cfg.sobol_skip, idx_cfg.n_nodes)

    job = (x, y, d, idx_cfg, search_cfg)
    restart_ids = range(search_cfg.restarts)
    workers = _workers(x, y, idx_cfg, search_cfg)
    if workers > 1:
        outcomes = _on_workers(job, restart_ids, workers)
    else:
        outcomes = map(functools.partial(_restart, *job), restart_ids)
    solutions: list[SolutionProjection] = []
    for restart_id, outcome in zip(restart_ids, outcomes):
        if isinstance(outcome, SolutionProjection):
            solutions.append(outcome)
        else:
            seed = search_cfg.rng_seed + restart_id
            log.warning("restart %d (seed %d) failed: %s", restart_id, seed, outcome)
    solutions.sort(key=lambda s: (-float(s.search_index), s.restart_id))
    flag_duplicates(solutions)
    return solutions
