"""Self-contained SVG scatterplots with byte-deterministic output.

No plotting library is used: element order, coordinate formatting, and
styling are fixed functions of the input, so identical points yield
identical bytes. One-dimensional samples get one strip panel with a row per
source; two-dimensional samples get one panel; three-dimensional samples get
the three pairwise coordinate panels side by side.
"""

from __future__ import annotations

import math

import numpy as np

from .dataio import format_rows
from .errors import ConfigError, DataError
from .frames import ProjectedSample

_PANEL = 340  # plot-area side in px
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 52, 16, 34, 44
_GAP = 26  # between panels

# source tag -> (glyph, stroke/fill color)
_STYLES = {
    "data": ("circle", "#3572a5"),
    "benchmark": ("cross", "#c96a1f"),
}
_FALLBACK_STYLE = ("square", "#5a5a5a")


def escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` as XML entities, replaced in that
    order as by ``xml.sax.saxutils.escape``, whose import loads the HTTP and
    SSL modules too."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [k * step for k in range(first, last + 1)]


def _extent(samples: list[ProjectedSample], axis: int) -> tuple[float, float]:
    values = [s.points[:, axis] for s in samples if s.n > 0]
    if not values:
        return -1.0, 1.0
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _glyph_form(kind: str, color: str, cx, cy) -> tuple[str, tuple]:
    """A glyph's markup as a ``%`` template and the values of its fields,
    for a centre given as two floats or as two equal-length arrays."""
    if kind == "circle":
        return f'<circle cx="%.2f" cy="%.2f" r="2.4" fill="{color}" fill-opacity="0.75"/>', (cx, cy)
    if kind == "cross":
        a = 2.6
        return (
            f'<path d="M%.2f %.2fL%.2f %.2fM%.2f %.2fL%.2f %.2f" '
            f'stroke="{color}" stroke-width="1.1"/>',
            (cx - a, cy - a, cx + a, cy + a, cx - a, cy + a, cx + a, cy - a),
        )
    a = 2.2
    return (
        f'<rect x="%.2f" y="%.2f" width="{_fmt(2 * a)}" height="{_fmt(2 * a)}" fill="{color}" '
        f'fill-opacity="0.75"/>',
        (cx - a, cy - a),
    )


def _glyph(kind: str, color: str, cx: float, cy: float) -> str:
    template, values = _glyph_form(kind, color, cx, cy)
    return template % values


def _glyphs(kind: str, color: str, cx: np.ndarray, cy: np.ndarray) -> list[str]:
    """The glyphs at centres (``cx``, ``cy``), newline-joined, as one string
    per block of rows that ``format_rows`` formats by one ``%``."""
    template, values = _glyph_form(kind, color, cx, cy)
    return format_rows([template] * len(cx), np.stack(values, axis=1), "\n")


def _panel(
    samples: list[ProjectedSample],
    ax_x: int,
    ax_y: int | None,
    names: list[str],
    offset_x: float,
) -> str:
    """One panel: ``ax_x`` against ``ax_y``, or a strip when ``ax_y`` is None.

    A strip puts each source on a row of its own, in order of first
    appearance, with the source name inside the panel above the row.
    """
    left = offset_x + _MARGIN_L
    top = _MARGIN_T
    lo_x, hi_x = _extent(samples, ax_x)

    def sx(v):
        return left + (v - lo_x) / (hi_x - lo_x) * _PANEL

    if ax_y is None:
        rows = list(dict.fromkeys(s.source for s in samples))

        def y_of(sample: ProjectedSample) -> np.ndarray:
            return np.full(sample.n, top + (rows.index(sample.source) + 0.5) / len(rows) * _PANEL)

        y_ticks = [(top + (j + 0.5) / len(rows) * _PANEL, src) for j, src in enumerate(rows)]
        label_x, label_dy, anchor = left + 6, -8, "start"
    else:
        lo_y, hi_y = _extent(samples, ax_y)

        def sy(v):
            return top + _PANEL - (v - lo_y) / (hi_y - lo_y) * _PANEL

        def y_of(sample: ProjectedSample) -> np.ndarray:
            return sy(sample.points[:, ax_y])

        y_ticks = [(sy(tick), f"{tick:.6g}") for tick in _nice_ticks(lo_y, hi_y)]
        label_x, label_dy, anchor = left - 7, 3, "end"

    parts = [
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_PANEL}" height="{_PANEL}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    ]
    for tick in _nice_ticks(lo_x, hi_x):
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(top + _PANEL)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(top + _PANEL + 4)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(top + _PANEL + 16)}" font-size="10" '
            f'text-anchor="middle" fill="#222222">{tick:.6g}</text>'
        )
    for y, label in y_ticks:
        parts.append(
            f'<line x1="{_fmt(left - 4)}" y1="{_fmt(y)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(y)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(label_x)}" y="{_fmt(y + label_dy)}" font-size="10" '
            f'text-anchor="{anchor}" fill="#222222">{escape(label)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(left + _PANEL / 2)}" y="{_fmt(top + _PANEL + 32)}" font-size="11" '
        f'text-anchor="middle" fill="#222222">{escape(names[ax_x])}</text>'
    )
    if ax_y is not None:
        parts.append(
            f'<text x="{_fmt(offset_x + 14)}" y="{_fmt(top + _PANEL / 2)}" font-size="11" '
            f'text-anchor="middle" fill="#222222" '
            f'transform="rotate(-90 {_fmt(offset_x + 14)} {_fmt(top + _PANEL / 2)})">'
            f"{escape(names[ax_y])}</text>"
        )
    for sample in samples:
        kind, color = _STYLES.get(sample.source, _FALLBACK_STYLE)
        parts += _glyphs(kind, color, sx(sample.points[:, ax_x]), y_of(sample))
    return "\n".join(parts)


def emit_svg(samples, title: str = "") -> str:
    """Render projected samples to an SVG document string.

    All samples must share the same dimension (1, 2 or 3); an empty sample
    is fine and contributes axes only. Glyphs distinguish sources: circles for
    "data", crosses for "benchmark".
    """
    samples = [s if isinstance(s, ProjectedSample) else ProjectedSample(s) for s in samples]
    if not samples:
        raise ValueError("need at least one sample")
    d = samples[0].d
    if any(s.d != d for s in samples):
        raise DataError("all samples must share the same dimension")
    if d not in (1, 2, 3):
        raise ConfigError(f"plots implemented for d in {{1, 2, 3}}, got d={d}")
    names = [f"c{i + 1}" for i in range(d)]

    pairs = {1: [(0, None)], 2: [(0, 1)], 3: [(0, 1), (0, 2), (1, 2)]}[d]
    panel_w = _MARGIN_L + _PANEL + _MARGIN_R
    width = len(pairs) * panel_w + (len(pairs) - 1) * _GAP
    height = _MARGIN_T + _PANEL + _MARGIN_B

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        body.append(
            f'<text x="{_fmt(width / 2)}" y="18" font-size="13" text-anchor="middle" '
            f'fill="#111111">{escape(title)}</text>'
        )
    for i, (ax_x, ax_y) in enumerate(pairs):
        body.append(_panel(samples, ax_x, ax_y, names, i * (panel_w + _GAP)))
    legend_x = width - _MARGIN_R - 110
    for j, sample in enumerate({s.source: s for s in samples}.values()):
        kind, color = _STYLES.get(sample.source, _FALLBACK_STYLE)
        y = _MARGIN_T + 12 + 14 * j
        body.append(_glyph(kind, color, legend_x, y - 3))
        body.append(
            f'<text x="{_fmt(legend_x + 8)}" y="{_fmt(y)}" font-size="10" '
            f'fill="#222222">{escape(sample.source)}</text>'
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"
