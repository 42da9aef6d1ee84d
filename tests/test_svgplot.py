import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from benchpursuit.errors import ConfigError, DataError
from benchpursuit.frames import ProjectedSample
from benchpursuit.svgplot import emit_svg, escape

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


def test_escape_matches_saxutils():
    """The module's own escape, which replaces what saxutils' would."""
    from xml.sax.saxutils import escape as sax_escape

    assert escape.__module__ == "benchpursuit.svgplot"
    for text in ["a < b & c > d", "&amp;", "<&>", "&lt;&gt;", "", "plain"]:
        assert escape(text) == sax_escape(text)


_NEW_MODULES = """
import sys
before = set(sys.modules)
import benchpursuit
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_xml_http_or_ssl():
    """``import benchpursuit`` in a fresh interpreter adds none of the XML,
    HTTP, e-mail or SSL modules; the set is compared before and after the
    import, since site hooks load modules of their own."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _NEW_MODULES], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "benchpursuit.svgplot" in added
    heavy = {"xml.sax", "urllib.request", "http.client", "email", "ssl"}
    assert not heavy & added, sorted(heavy & added)


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


def test_other_source_drawn_as_squares(rng):
    samples = _samples_2d(rng, n=5, m=6) + [
        ProjectedSample(rng.standard_normal((7, 2)), source="reference")
    ]
    svg = emit_svg(samples)
    root = ET.fromstring(svg)
    squares = [r for r in root.findall(f".//{SVG_NS}rect") if r.get("fill-opacity")]
    # one legend square on top of the 7 points
    assert len(squares) == 7 + 1
    assert svg.count(">reference</text>") == 1


@pytest.mark.parametrize("d, panels", [(1, 1), (2, 1), (3, 3)])
def test_zero_row_sample_alone_draws_axes_only(d, panels):
    """With no point at all the axes span the default extent."""
    root = ET.fromstring(emit_svg([ProjectedSample(np.empty((0, d)))]))
    assert len(_panel_frames(root)) == panels
    assert root.findall(f".//{SVG_NS}line")  # tick marks
    # the one circle is the legend's; no point is drawn
    assert len(root.findall(f".//{SVG_NS}circle")) == 1
    assert not root.findall(f".//{SVG_NS}path")


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
    with pytest.raises(ConfigError, match=r"plots implemented for d in \{1, 2, 3\}, got d=4"):
        emit_svg([ProjectedSample(rng.standard_normal((5, 4)))])


def test_mixed_dimensions_rejected(rng):
    with pytest.raises(DataError, match="all samples must share the same dimension"):
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
