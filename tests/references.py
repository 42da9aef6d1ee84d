"""Earlier versions of code rewritten for speed, kept as references for the
bits the rewrites keep: the region stage before it used one workspace per
call, and the view CSVs and SVG glyphs before they were formatted in
blocks. The tests compute both in the same process and compare them.

Apart from ``oracles.py``, which bench/checks.py imports: this module's
size and its imports of the package would add to the resident set of
bench/run.py, which every round it starts inherits in ``ru_maxrss``.
"""

from __future__ import annotations

import csv

import numpy as np

from benchpursuit import spatial
from benchpursuit.dataio import fmt_float
from benchpursuit.errors import DataError


def _reference_lengths(offsets: np.ndarray) -> np.ndarray:
    """Column lengths of a (d, m) array of offsets."""
    return np.sqrt((offsets * offsets).sum(axis=0))


def _reference_coordinate_median(cols: np.ndarray) -> np.ndarray:
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


def newton_median_reference(pts: np.ndarray, scale: float, tol: float, max_iter: int):
    """``spatial._newton_median`` as it was before it used one workspace,
    each step making fresh arrays: (location in units of 1 / ``scale``,
    gradient norm, iterations, converged). The reference for its bits."""
    m, d = pts.shape
    cols = np.multiply(pts.T, scale, order="C")
    t = _reference_coordinate_median(cols)
    if d == 1:
        return t, 0.0, 0, True

    snap = 1e-13 * float(np.abs(cols).max())
    spans = np.abs(cols).sum(axis=0)  # |c_i|_1, for the rounding floor below
    diff = cols - t[:, None]
    dist = _reference_lengths(diff)
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
            lengths = _reference_lengths(away)
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
        if gnorm <= tol or gnorm <= spatial._EPS * ((spans * inv).sum() + np.abs(t).sum() * inv_sum):
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
                for _ in range(spatial._HALVINGS + 1):
                    # Offsets are taken from the rounded iterate, never
                    # updated by the step, so they cannot drift from it.
                    new_t = t + step
                    new_diff = cols - new_t[:, None]
                    new_dist = _reference_lengths(new_diff)
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
        dist = _reference_lengths(diff)
    return t, gnorm, max_iter, False


def data_radius_reference(sample, center) -> float:
    """``spatial.data_radius`` as it was before it used one workspace."""
    pts = spatial._points(sample)
    center = np.asarray(center, dtype=float).ravel()
    if center.size != pts.shape[1]:
        raise DataError(f"center has d={center.size} but sample has d={pts.shape[1]}")
    scale = spatial._pow2_scale(pts, center)
    offsets = np.multiply(pts.T, scale, order="C")
    offsets -= (center * scale)[:, None]
    return float(_reference_lengths(offsets).max()) / scale


def write_view_reference(out, files, matrix, variables, samples, label_name) -> None:
    """``pipeline._write_view`` as it was before it formatted rows in
    blocks: one ``csv.writer`` row per variable and per projected point.

    ``files["frame_csv"]`` gets a row per variable of the frame ``matrix``,
    ``files["coords_csv"]`` a row per projected point. ``samples`` pairs each
    :class:`ProjectedSample` with its row labels, or None. A coordinate row is
    tagged by its sample's source, and by its label when any sample has labels.
    """
    axes = [f"c{i + 1}" for i in range(matrix.shape[1])]
    with (out / files["frame_csv"]).open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variable"] + axes)
        for name, row in zip(variables, matrix):
            writer.writerow([name] + [fmt_float(v) for v in row])
    labelled = any(labels is not None for labels, _ in samples)
    with (out / files["coords_csv"]).open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(([label_name] if labelled else []) + ["source"] + axes)
        for labels, sample in samples:
            for i, row in enumerate(sample.points):
                tags = [labels[i] if labels is not None else ""] if labelled else []
                writer.writerow(tags + [sample.source] + [fmt_float(v) for v in row])


def _fmt2(x: float) -> str:
    return f"{x:.2f}"


def svg_glyph(kind: str, color: str, cx: float, cy: float) -> str:
    """One SVG glyph, formatted with f-strings as ``svgplot`` did per glyph."""
    if kind == "circle":
        return f'<circle cx="{_fmt2(cx)}" cy="{_fmt2(cy)}" r="2.4" fill="{color}" fill-opacity="0.75"/>'
    if kind == "cross":
        a = 2.6
        return (
            f'<path d="M{_fmt2(cx - a)} {_fmt2(cy - a)}L{_fmt2(cx + a)} {_fmt2(cy + a)}'
            f'M{_fmt2(cx - a)} {_fmt2(cy + a)}L{_fmt2(cx + a)} {_fmt2(cy - a)}" '
            f'stroke="{color}" stroke-width="1.1"/>'
        )
    a = 2.2
    return (
        f'<rect x="{_fmt2(cx - a)}" y="{_fmt2(cy - a)}" width="{_fmt2(2 * a)}" '
        f'height="{_fmt2(2 * a)}" fill="{color}" fill-opacity="0.75"/>'
    )


def svg_glyphs_reference(kind: str, color: str, cx, cy) -> list[str]:
    """``svgplot._glyphs`` one glyph at a time: the newline-joined glyphs of
    the centres (``cx``, ``cy``), or no string when there are none."""
    glyphs = [svg_glyph(kind, color, x, y) for x, y in zip(map(float, cx), map(float, cy))]
    return ["\n".join(glyphs)] if glyphs else []
