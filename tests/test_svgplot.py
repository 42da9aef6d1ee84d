import xml.etree.ElementTree as ET

import numpy as np
import pytest

from benchpursuit.errors import DimensionMismatch, UnsupportedDimension
from benchpursuit.frames import ProjectedSample
from benchpursuit.svgplot import emit_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def _samples_2d(rng, n=25, m=30):
    return [
        ProjectedSample(rng.standard_normal((n, 2)), source="data"),
        ProjectedSample(rng.standard_normal((m, 2)) + 1.0, source="benchmark"),
    ]


def test_well_formed_xml(rng):
    svg = emit_svg(_samples_2d(rng))
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"


def _panel_frames(root):
    return [
        r for r in root.findall(f".//{SVG_NS}rect") if r.get("fill") == "none"
    ]


def test_2d_single_panel(rng):
    root = ET.fromstring(emit_svg(_samples_2d(rng)))
    assert len(_panel_frames(root)) == 1


def test_3d_three_panels(rng):
    samples = [ProjectedSample(rng.standard_normal((10, 3)))]
    root = ET.fromstring(emit_svg(samples))
    assert len(_panel_frames(root)) == 3


def test_point_counts(rng):
    svg = emit_svg(_samples_2d(rng, n=25, m=30))
    root = ET.fromstring(svg)
    # data glyphs are circles; one legend circle on top of the 25 points
    assert len(root.findall(f".//{SVG_NS}circle")) == 25 + 1


def test_title_escaped(rng):
    svg = emit_svg(_samples_2d(rng), title="a < b & c")
    assert "a &lt; b &amp; c" in svg
    ET.fromstring(svg)  # still parses


def test_axis_names_rendered(rng):
    svg = emit_svg(_samples_2d(rng))
    assert ">c1</text>" in svg and ">c2</text>" in svg


def test_legend_lists_each_source_once(rng):
    samples = _samples_2d(rng) + [
        ProjectedSample(rng.standard_normal((5, 2)), source="data")
    ]
    svg = emit_svg(samples)
    assert svg.count(">data</text>") == 1
    assert svg.count(">benchmark</text>") == 1


def test_byte_determinism(rng):
    pts = rng.standard_normal((40, 2))
    a = emit_svg([ProjectedSample(pts)], title="run")
    b = emit_svg([ProjectedSample(pts.copy())], title="run")
    assert a == b


def test_different_points_different_bytes(rng):
    a = emit_svg([ProjectedSample(rng.standard_normal((10, 2)))])
    b = emit_svg([ProjectedSample(rng.standard_normal((10, 2)))])
    assert a != b


def test_raw_arrays_accepted(rng):
    svg = emit_svg([rng.standard_normal((5, 2))])
    ET.fromstring(svg)


def test_1d_strip_panel(rng):
    """One panel, with one labelled row of glyphs per source."""
    samples = [
        ProjectedSample(rng.standard_normal((6, 1)), source="data"),
        ProjectedSample(rng.standard_normal((4, 1)), source="benchmark"),
    ]
    root = ET.fromstring(emit_svg(samples))
    assert len(_panel_frames(root)) == 1
    labels = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert labels.count("data") == 2 and labels.count("benchmark") == 2  # row and legend
    rows = {c.get("cy") for c in root.findall(f".//{SVG_NS}circle")}
    assert len(rows) == 2  # the data row and the legend glyph


def test_unsupported_dimensions(rng):
    with pytest.raises(UnsupportedDimension):
        emit_svg([ProjectedSample(rng.standard_normal((5, 4)))])


def test_mixed_dimensions_rejected(rng):
    with pytest.raises(DimensionMismatch):
        emit_svg(
            [
                ProjectedSample(rng.standard_normal((5, 2))),
                ProjectedSample(rng.standard_normal((5, 3))),
            ]
        )


def test_no_samples_rejected():
    with pytest.raises(ValueError):
        emit_svg([])


def test_empty_sample_axes_only(rng):
    svg = emit_svg(
        [
            ProjectedSample(np.empty((0, 2))),
            ProjectedSample(rng.standard_normal((8, 2)), source="benchmark"),
        ]
    )
    root = ET.fromstring(svg)
    assert len(root.findall(f".//{SVG_NS}circle")) == 1  # legend glyph only


def test_ends_with_newline(rng):
    assert emit_svg(_samples_2d(rng)).endswith("</svg>\n")
