"""Self-contained SVG line charts."""

from __future__ import annotations

import hashlib
import xml.dom.minidom
from fractions import Fraction

import pytest

from matcache import harness
from matcache.svg import line_chart


def test_chart_is_well_formed_xml():
    series = [
        ("alpha", [(0.0, 4.0), (1.0, 2.0), (2.0, 1.0)]),
        ("beta", [(0.0, 3.0), (1.0, None), (2.0, 0.5)]),
    ]
    text = line_chart(series, "title", "x", "y")
    doc = xml.dom.minidom.parseString(text)
    assert doc.documentElement.tagName == "svg"


def test_gaps_split_polylines():
    series = [("gappy", [(0.0, 1.0), (1.0, None), (2.0, 1.0)])]
    text = line_chart(series, "t", "x", "y")
    # a None sample yields two single-point runs: no polyline can span the gap
    assert "<polyline" not in text or text.count("<polyline") == 2


def test_labels_are_escaped():
    text = line_chart([("a<b&c", [(0.0, 1.0), (1.0, 2.0)])], "t<&>", "x", "y")
    assert "a<b&c" not in text
    assert "a&lt;b&amp;c" in text


def test_legend_and_markers_present():
    text = line_chart([("only", [(0.0, 1.0), (1.0, 2.0)])], "t", "x", "y")
    assert "only" in text
    assert "<circle" in text  # few points: markers drawn


@pytest.mark.parametrize(
    "a, digest",
    [
        (Fraction(1, 2), "92aadf9291bc6c9ec78226c361c9e817c340977855dfc341efd5e422e826cb29"),
        (Fraction(10), "89e8dec051aab138443ae9061de81f68dbd8264b5d71983a0b225a8e4f69bdef"),
    ],
)
def test_curve_svg_bytes_are_pinned(a, digest):
    text = harness.curve_svg(harness.curve_rows(4, 20, a, grid=40), f"K=4, N=20, a={a}")
    assert hashlib.sha256(text.encode()).hexdigest() == digest
