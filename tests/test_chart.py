"""Tests for the page chart renderers."""

import pytest

from sseqlab.chart import ChartSpec, build_chart, render, render_svg, render_tikz
from sseqlab.config import parse_config
from sseqlab.errors import ValidationError
from sseqlab.gauge import g2_fibration_spec
from sseqlab.fibration import FibrationSpec, UNIT_GEN


SPEC = g2_fibration_spec()


def test_chart_page_six_has_exactly_two_arrows():
    chart = build_chart(SPEC, 6)
    assert len(chart.arrows) == 2
    assert chart.arrows == (
        ((0, 5), (6, 0), "eps"),
        ((4, 5), (10, 0), "eps"),
    )


def test_svg_contains_two_arrow_lines_and_dots():
    chart = build_chart(SPEC, 6)
    svg = render_svg(chart)
    assert svg.count("<circle") == 8  # eight tracked classes
    # arrows live in the stroke group, one line each
    arrow_section = svg.split('stroke="#000000"')[1].split("</g>")[0]
    assert arrow_section.count("<line") == 2
    assert svg.count(">eps</text>") == 2


def test_empty_fibre_chart_is_base_row_only():
    spec = FibrationSpec(SPEC.base, {0: (UNIT_GEN,)}, 10, ())
    chart = build_chart(spec, 2)
    assert chart.arrows == ()
    assert all(t == 0 for _s, t, _dim in chart.dots)


def test_tikz_output_is_deterministic():
    chart = build_chart(SPEC, 6)
    assert render_tikz(chart) == render_tikz(build_chart(SPEC, 6))
    assert render_svg(chart) == render_svg(build_chart(SPEC, 6))


def test_page_without_arrows_renders_clean():
    chart = build_chart(SPEC, 3)
    assert chart.arrows == ()
    assert "->" not in render_tikz(chart).replace("\\draw[->", "")


def test_arrow_bidegree_law_enforced():
    with pytest.raises(ValidationError):
        ChartSpec(
            page=6,
            s_max=10,
            t_max=5,
            dots=((0, 5, 1),),
            arrows=(((0, 5), (5, 0), "oops"),),
        )


@pytest.mark.parametrize("page", [1, 0, -3])
def test_page_below_two_is_refused(page):
    with pytest.raises(ValidationError, match=r"chart page must be >= 2"):
        build_chart(SPEC, page)


def test_unknown_format_rejected():
    chart = build_chart(SPEC, 6)
    with pytest.raises(ValidationError):
        render(chart, "png")


def test_an_arrow_two_unknowns_govern_names_both():
    cfg = parse_config(
        "degree_bound = 10\n"
        "[base]\nx = 6\ny = 6\nz = 2\n"
        "[fibre]\n3 = w\n4 = q\n5 = u v\n"
        "[unknowns]\neps = d6 u -> x\ndelta = d6 v -> y\ngamma = d4 w -> z^2\n"
    )
    spec = cfg.fibration_spec()
    # declaration order, on every page-6 arrow out of fibre degree 5
    assert build_chart(spec, 6).arrows == (
        ((0, 5), (6, 0), "eps,delta"),
        ((2, 5), (8, 0), "eps,delta"),
        ((4, 5), (10, 0), "eps,delta"),
    )
    assert {label for _src, _tgt, label in build_chart(spec, 4).arrows} == {"gamma"}
    assert {label for _src, _tgt, label in build_chart(spec, 2).arrows} == {"d2"}  # 5 -> 4
    assert render_svg(build_chart(spec, 6)).count(">eps,delta</text>") == 3
