"""Deterministic SVG drawings of edge sets on the convex polygon.

Vertex 0 sits at the top of a regular polygon inscribed in a fixed
600x600 canvas and labels increase counterclockwise; every coordinate is
emitted with exactly three decimals, so a given spec always renders to
identical bytes.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .geometry import Edge, PolygonContext

CANVAS = 600
CENTER = 300.0
RADIUS = 250.0
LABEL_RADIUS = 276.0

_STYLES = {
    "outline": 'stroke="#c8c8c8" stroke-width="1.000"',
    "dotted": 'stroke="#707070" stroke-width="1.500" stroke-dasharray="6 5"',
    "solid": 'stroke="#000000" stroke-width="2.500"',
    "thick": 'stroke="#000000" stroke-width="5.000"',
}


class RenderSpec(namedtuple("_RenderSpec", "m solid thick dotted labels")):
    """What to draw: highlighted edge sets by style, plus a label toggle.

    `solid` is the main highlighted set (a blocker or a matching),
    `thick` emphasizes chosen edges on top of it, `dotted` draws context
    edges; each is kept as a sorted tuple of edges.  The polygon outline
    is always present, and vertex labels when `labels` is true.
    """

    __slots__ = ()

    def __new__(cls, m: int, solid=(), thick=(), dotted=(),
                labels: bool = True) -> "RenderSpec":
        return super().__new__(cls, m, tuple(sorted(solid)), tuple(sorted(thick)),
                               tuple(sorted(dotted)), labels)

    @classmethod
    def _make(cls, iterable) -> "RenderSpec":  # `_replace` too: sorted sets
        return cls(*iterable)


def _fmt(value: float) -> str:
    text = f"{value:.3f}"
    return "0.000" if text == "-0.000" else text


def render_figure(spec: RenderSpec) -> str:
    """Standalone SVG document text; identical bytes for identical specs."""
    ctx = PolygonContext(spec.m)
    for e in (*spec.solid, *spec.thick, *spec.dotted):
        ctx.check_edge(e)

    def point(vertex: int, radius: float = RADIUS) -> tuple[float, float]:
        angle = math.radians(90.0 + vertex * 180.0 / spec.m)
        return CENTER + radius * math.cos(angle), CENTER - radius * math.sin(angle)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
    ]

    def chord(e: Edge, style: str) -> None:
        x1, y1 = point(e.a)
        x2, y2 = point(e.b)
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" {_STYLES[style]}/>')

    for position in range(ctx.n):
        chord(ctx.boundary_edge(position), "outline")
    for e in spec.dotted:
        chord(e, "dotted")
    for e in spec.solid:
        chord(e, "solid")
    for e in spec.thick:
        chord(e, "thick")
    for vertex in range(ctx.n):
        x, y = point(vertex)
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.000" '
                     'fill="#000000"/>')
    if spec.labels:
        for vertex in range(ctx.n):
            x, y = point(vertex, LABEL_RADIUS)
            lines.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
                'font-size="15" text-anchor="middle" '
                f'dominant-baseline="central">{vertex}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
