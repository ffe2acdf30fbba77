"""Combinatorics of the complete geometric graph on a convex polygon.

The polygon has 2m vertices labelled 0..2m-1 counterclockwise.  All core
predicates (edge order, parallelism, crossing) are integer arithmetic
modulo 2m, so results are exact and independent of any drawing.

Key facts baked into the representation:

* An `Edge` is the normalized vertex pair (a, b) with a < b, a tuple of
  two ints; it keys any table directly, with no second pair form.
* Each `PolygonContext` makes each canonical `Edge` once, on its first
  lookup by vertex pair in `edge_of`; hot paths compute int endpoints and
  look the edge up there, so a single blocker costs its own m edges.  Only
  the family index and the searches build the whole m(2m-1)-edge table
  `edge_table` and its rank map `edge_rank`, O(m^2) time and memory.
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

import operator
from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property

from .errors import InputError, check_ints, check_min, clipped, quoted


class Edge(namedtuple("_EdgePair", "a b")):
    """Unordered vertex pair: the int tuple (a, b) with a < b.  It hashes,
    compares, sorts and JSON-encodes as that pair, so Edge(3, 1) == (1, 3);
    `PolygonContext.check_edge` still refuses plain tuples.  Vertices are
    plain ints: a bool would print as `True-2`."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Edge":
        if not (type(a) is int and type(b) is int):
            raise InputError(f"non-integer vertex in [{clipped(a)},{clipped(b)}]")
        if a == b:
            raise InputError(f"degenerate edge [{clipped(a)},{clipped(b)}]")
        if a < 0 or b < 0:
            raise InputError(f"negative vertex in [{clipped(a)},{clipped(b)}]")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    @classmethod
    def _make(cls, iterable) -> "Edge":  # `_replace` too: no unchecked edges
        return cls(*iterable)

    def shares_vertex(self, other: "Edge") -> bool:
        return self.a in other or self.b in other

    def __repr__(self) -> str:
        return f"Edge({self.a}, {self.b})"


class _EdgeStore(dict):
    """Canonical edges of the polygon on `n` vertices keyed by vertex pair
    in either order; each is made on its first lookup.  A pair that is no
    edge of the polygon is a KeyError, as in a filled dict."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, pair):
        try:
            edge = Edge(*map(operator.index, pair))  # True reads as 1, 1.5 fails
        except (TypeError, ValueError):
            raise KeyError(pair) from None
        if edge.b >= self.n:
            raise KeyError(pair)
        self[edge] = self[edge.b, edge.a] = edge
        return edge


class PolygonContext:
    """The complete geometric graph on a convex polygon with 2m vertices.

    Provides the vertex/edge universe and a deterministic edge index
    (lexicographic rank of the normalized pair), which fixes the bitmask
    layout used everywhere else.  `edge_of` makes the context's canonical
    edges on first lookup; `edge_table` and `edge_rank` hold them all, built
    on first use.  `m` and `n` are read-only; contexts compare and hash by m.
    """

    m: int
    n: int  # vertices, 2m

    def __init__(self, m: int) -> None:
        check_min(m, 1)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", 2 * m)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"PolygonContext(m={self.m})"

    @property
    def edge_count(self) -> int:
        """Number of edges of the complete graph, m(2m-1)."""
        return self.m * (2 * self.m - 1)

    @cached_property
    def edge_table(self) -> tuple[Edge, ...]:
        """Every edge once, in edge-index (lexicographic) order."""
        n, edge_of = self.n, self.edge_of
        return tuple(edge_of[a, b] for a in range(n - 1) for b in range(a + 1, n))

    @cached_property
    def edge_of(self) -> dict[tuple[int, int], Edge]:
        """The canonical edge between vertices a and b, keyed by the int pair
        (a, b) in either order and made on its first lookup."""
        return _EdgeStore(self.n)

    @cached_property
    def edge_rank(self) -> dict[Edge, int]:
        """Edge index of every edge; a plain (a, b) pair with a < b keys it too."""
        return {e: i for i, e in enumerate(self.edge_table)}

    def edge(self, u: int, v: int) -> Edge:
        """Edge between two vertices given modulo 2m."""
        return Edge(u % self.n, v % self.n)

    def check_edge(self, e: Edge) -> Edge:
        if not isinstance(e, Edge):
            raise InputError(f"expected an Edge, got {e!r}")
        if e.b >= self.n:
            raise InputError(
                f"vertex {clipped(e.b)} out of range for a polygon on "
                f"{clipped(self.n)} vertices")
        return e

    def boundary_edge(self, position: int) -> Edge:
        """The boundary edge from vertex `position` to its cyclic successor."""
        return self.edge(position, position + 1)

    def boundary_edges(self) -> list[Edge]:
        return [self.boundary_edge(p) for p in range(self.n)]


def edge_order(ctx: PolygonContext, e: Edge) -> int:
    """min(k, 2m-k) for the edge [i, i+k]; between 1 and m.  The paper's
    edge order, kept public as the reference for its statement the tests
    check (a matching's edges have odd order); the parser reads the parity
    from the endpoint sum instead."""
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

    Edges sharing a vertex (including e == f) are never parallel.  The
    paper's relation, kept public as the reference the tests check the
    parallel matchings and the arc-count definition against.
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
    check_ints(class_id=class_id)
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


def _ascii_int(text: str) -> int | None:
    """The int written by `text`, ASCII digits after a strip and an optional
    `-`, or None.  `int` would also take `+1`, `0_1` and non-ASCII digits
    such as `٢`."""
    text = text.strip()
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than `sys.get_int_max_str_digits()`
            pass
    return None


def edge_from_text(text: str) -> Edge:
    parts = text.strip().split("-")
    if len(parts) != 2:
        raise InputError(f"bad edge {quoted(text)}; expected 'a-b'")
    a, b = map(_ascii_int, parts)  # neither part holds a `-`
    if a is not None and b is not None:
        return Edge(a, b)  # refuses a degenerate edge as such
    raise InputError(f"bad edge {quoted(text)}; vertices must be integers")


def edges_from_text(text: str) -> frozenset[Edge]:
    """The edges of a comma-separated list; blank items are skipped."""
    items = [p for p in text.strip().split(",") if p.strip()]
    if not items:
        raise InputError("empty edge list")
    edges: set[Edge] = set()
    for p in items:
        e = edge_from_text(p)
        if e in edges:
            raise InputError(f"repeated edge {clipped(p.strip())}")
        edges.add(e)
    return frozenset(edges)


def edges_to_lists(edges: Iterable[Edge]) -> list[list[int]]:
    """JSON form [[a, b], ...], sorted."""
    return [list(e) for e in sorted(edges)]
