from __future__ import annotations

import re
from pathlib import Path

import pytest

from conftest import edges
from convex_blockers.blockers import BlockerSpec, generate_blocker
from convex_blockers.errors import InputError
from convex_blockers.geometry import Edge, PolygonContext
from convex_blockers.matchings import triangular_spm
from convex_blockers.render import RenderSpec, render_figure

GOLDEN = Path(__file__).parent / "golden"


def _reference_specs() -> dict[str, RenderSpec]:
    ctx = PolygonContext(6)
    blocker = generate_blocker(ctx, BlockerSpec(0, 3, (1, 2, 4)))
    matching = triangular_spm(ctx, 3, 8, 11)
    marked = edges("2-3,7-8,10-11")
    return {
        "blocker_m6_t3.svg": RenderSpec(m=6, solid=tuple(blocker)),
        "triangular_m6.svg": RenderSpec(m=6, solid=tuple(matching)),
        "triangular_m6_marked.svg": RenderSpec(
            m=6, solid=tuple(matching), thick=tuple(marked)),
    }


@pytest.mark.parametrize("name", sorted(_reference_specs()))
def test_reference_figures_match_goldens_and_rerender_identically(name):
    spec = _reference_specs()[name]
    first = render_figure(spec)
    second = render_figure(spec)
    assert first == second
    assert first == (GOLDEN / name).read_text(encoding="utf-8")


def test_minimal_square_figure():
    svg = render_figure(RenderSpec(m=2, solid=(Edge(0, 1), Edge(1, 2))))
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<circle") == 4
    # 4 outline chords + 2 highlighted
    assert svg.count("<line") == 6


def test_edge_set_order_does_not_matter():
    a = RenderSpec(m=3, solid=(Edge(0, 1), Edge(2, 5)))
    b = RenderSpec(m=3, solid=(Edge(2, 5), Edge(0, 1)))
    assert a == b and render_figure(a) == render_figure(b)
    ordered = (Edge(0, 1), Edge(1, 4), Edge(2, 5))
    backwards = ordered[::-1]
    spec = RenderSpec(3, backwards, thick=backwards, dotted=set(backwards))
    assert spec.solid == spec.thick == spec.dotted == ordered
    assert RenderSpec(3)._replace(thick=backwards).thick == ordered


def test_labels_toggle():
    with_labels = render_figure(RenderSpec(m=2, solid=(), labels=True))
    without = render_figure(RenderSpec(m=2, solid=(), labels=False))
    assert with_labels.count("<text") == 4
    assert without.count("<text") == 0


def test_styles_are_distinct():
    svg = render_figure(RenderSpec(
        m=3, solid=(Edge(0, 3),), thick=(Edge(1, 4),), dotted=(Edge(2, 5),)))
    assert 'stroke-width="2.500"' in svg
    assert 'stroke-width="5.000"' in svg
    assert "stroke-dasharray" in svg


def test_all_coordinates_have_three_decimals():
    svg = render_figure(RenderSpec(m=5, solid=tuple(edges("0-1,2-7"))))
    for value in re.findall(r'[xy][12]?="(-?\d+\.?\d*)"', svg):
        if "." in value:
            assert len(value.split(".")[1]) == 3
    assert "-0.000" not in svg


def test_render_rejects_foreign_edges():
    with pytest.raises(InputError):
        render_figure(RenderSpec(m=2, solid=(Edge(0, 7),)))
