"""Combinatorics of the complete geometric graph on a convex polygon.

The polygon has 2m vertices labelled 0..2m-1 counterclockwise.  All core
predicates (edge order, parallelism, crossing) are integer arithmetic
modulo 2m, so results are exact and independent of any drawing.

Key facts baked into the representation:

* The *order* of an edge [i, i+k] is min(k, 2m-k); order-1 edges lie on
  the polygon boundary, everything else is a diagonal.
* Two vertex-disjoint edges are *parallel* exactly when their endpoint
  sums agree modulo 2m (equivalently, when the two arcs separating them
  contain equally many boundary edges), so the endpoint sum serves as a
  parallel-class id.  The 2m classes partition the m(2m-1) edges; odd
  ids hold m edges each (two of them boundary edges), even ids m-1.
* Two edges on a convex polygon cross iff their endpoints interleave
  strictly in cyclic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError

__all__ = [
    "Edge",
    "PolygonContext",
    "edge_order",
    "edge_class",
    "is_boundary_edge",
    "boundary_position",
    "are_parallel",
    "parallel_class",
    "edges_cross",
    "edge_to_text",
    "edges_to_text",
    "edge_from_text",
    "edges_from_text",
    "edges_to_lists",
]


@dataclass(frozen=True, order=True)
class Edge:
    """Unordered vertex pair, stored with a < b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise InputError(f"degenerate edge [{self.a},{self.b}]")
        if self.a < 0 or self.b < 0:
            raise InputError(f"negative vertex in [{self.a},{self.b}]")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def touches(self, vertex: int) -> bool:
        return vertex == self.a or vertex == self.b

    def shares_vertex(self, other: "Edge") -> bool:
        return (self.a == other.a or self.a == other.b
                or self.b == other.a or self.b == other.b)

    def __repr__(self) -> str:
        return f"Edge({self.a}, {self.b})"


@dataclass(frozen=True, order=True)
class PolygonContext:
    """The complete geometric graph on a convex polygon with 2m vertices.

    Provides the vertex/edge universe and a deterministic edge index
    (lexicographic rank of the normalized pair), which fixes the bitmask
    layout used everywhere else.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InputError(f"m must be >= 1, got {self.m}")

    @property
    def n(self) -> int:
        """Number of vertices, 2m."""
        return 2 * self.m

    @property
    def edge_count(self) -> int:
        """Number of edges of the complete graph, m(2m-1)."""
        return self.m * (2 * self.m - 1)

    def vertices(self) -> range:
        return range(self.n)

    def edge(self, u: int, v: int) -> Edge:
        """Edge between two vertices given modulo 2m."""
        return Edge(u % self.n, v % self.n)

    def check_edge(self, e: Edge) -> Edge:
        if not isinstance(e, Edge):
            raise InputError(f"expected an Edge, got {e!r}")
        if e.b >= self.n:
            raise InputError(
                f"vertex {e.b} out of range for a polygon on {self.n} vertices")
        return e

    def edges(self) -> Iterator[Edge]:
        """All edges, in edge-index (lexicographic) order."""
        for a in range(self.n - 1):
            for b in range(a + 1, self.n):
                yield Edge(a, b)

    def edge_index(self, e: Edge) -> int:
        """Lexicographic rank of (a, b) among all pairs; stable across runs."""
        self.check_edge(e)
        a, b, n = e.a, e.b, self.n
        return a * (n - 1) - a * (a - 1) // 2 + (b - a - 1)

    def edge_at(self, index: int) -> Edge:
        """Inverse of edge_index."""
        if not 0 <= index < self.edge_count:
            raise InputError(
                f"edge index {index} out of range 0..{self.edge_count - 1}")
        a = 0
        row = self.n - 1
        while index >= row:
            index -= row
            a += 1
            row -= 1
        return Edge(a, a + 1 + index)

    def boundary_edge(self, position: int) -> Edge:
        """The boundary edge from vertex `position` to its cyclic successor."""
        return self.edge(position, position + 1)

    def boundary_edges(self) -> list[Edge]:
        return [self.boundary_edge(p) for p in range(self.n)]


def edge_order(ctx: PolygonContext, e: Edge) -> int:
    """min(k, 2m-k) for the edge [i, i+k]; between 1 and m."""
    ctx.check_edge(e)
    k = e.b - e.a
    return min(k, ctx.n - k)


def edge_class(ctx: PolygonContext, e: Edge) -> int:
    """Parallel-class id of an edge: its endpoint sum modulo 2m."""
    ctx.check_edge(e)
    return (e.a + e.b) % ctx.n


def is_boundary_edge(ctx: PolygonContext, e: Edge) -> bool:
    return edge_order(ctx, e) == 1


def boundary_position(ctx: PolygonContext, e: Edge) -> int:
    """The position p with e == [p, p+1 mod 2m]; requires a boundary edge."""
    ctx.check_edge(e)
    if e.b - e.a == 1:
        return e.a
    if e.a == 0 and e.b == ctx.n - 1:
        return ctx.n - 1
    raise InputError(f"{edge_to_text(e)} is not a boundary edge")


def are_parallel(ctx: PolygonContext, e: Edge, f: Edge) -> bool:
    """True for vertex-disjoint edges in the same parallel class.

    Edges sharing a vertex (including e == f) are never parallel.
    """
    ctx.check_edge(e)
    ctx.check_edge(f)
    if e.shares_vertex(f):
        return False
    return edge_class(ctx, e) == edge_class(ctx, f)


def parallel_class(ctx: PolygonContext, class_id: int) -> list[Edge]:
    """All edges with the given class id, sorted.

    Odd classes have m members (two boundary edges and m-2 diagonals);
    even classes have m-1 diagonals.
    """
    if not 0 <= class_id < ctx.n:
        raise InputError(f"class id {class_id} out of range 0..{ctx.n - 1}")
    out = []
    for a in range(ctx.n):
        b = (class_id - a) % ctx.n
        if a < b:
            out.append(Edge(a, b))
    return out


def edges_cross(ctx: PolygonContext, e: Edge, f: Edge) -> bool:
    """True when the open chords intersect.

    On a convex polygon this happens exactly when the endpoints strictly
    interleave, i.e. exactly one endpoint of f lies inside the open arc
    (e.a, e.b).  Edges sharing a vertex never cross.
    """
    ctx.check_edge(e)
    ctx.check_edge(f)
    if e.shares_vertex(f):
        return False
    return (e.a < f.a < e.b) != (e.a < f.b < e.b)


def edge_to_text(e: Edge) -> str:
    """Text form `a-b`."""
    return f"{e.a}-{e.b}"


def edges_to_text(edges: Iterable[Edge]) -> str:
    """Comma-separated sorted edge list, e.g. `0-1,1-2,2-5`."""
    return ",".join(edge_to_text(e) for e in sorted(edges))


def edge_from_text(text: str) -> Edge:
    parts = text.strip().split("-")
    if len(parts) != 2:
        raise InputError(f"bad edge {text!r}; expected 'a-b'")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"bad edge {text!r}; vertices must be integers") from None
    return Edge(a, b)


def edges_from_text(text: str) -> frozenset[Edge]:
    items = [p for p in text.strip().split(",") if p]
    if not items:
        raise InputError("empty edge list")
    return frozenset(edge_from_text(p) for p in items)


def edges_to_lists(edges: Iterable[Edge]) -> list[list[int]]:
    """JSON form [[a, b], ...], sorted."""
    return [[e.a, e.b] for e in sorted(edges)]
