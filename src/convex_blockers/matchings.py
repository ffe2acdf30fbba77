"""Non-crossing perfect matchings of the convex polygon.

The exhaustive enumeration (Catalan many) is one interval-split
recurrence over the vertex intervals [i, j), generic over how an edge is
written: `spm_pairs` streams (a, b) int pairs, `enumerate_spms` makes sets
of the context's canonical `Edge` objects, and the CLI joins block texts.
Besides it, two special families are constructed directly:

* parallel matchings: the full parallel class of a boundary edge;
* triangular matchings: three fans of mutually parallel nested edges
  whose only boundary edges are three prescribed ones, built from their
  fan sizes; the boundary-edge position form resolves to those sizes.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator

from .errors import InfeasibilityError, InputError, check_cap, check_ints, clipped
from .geometry import Edge, PolygonContext, edges_cross, parallel_class

Matching = frozenset[Edge]

# The enumeration cap, fixed; the Catalan number for m=12 is 208012.
DEFAULT_MAX_M = 12


def is_spm(ctx: PolygonContext, edges) -> bool:
    """True when `edges` is a simple perfect matching: m vertex-disjoint,
    mutually non-crossing edges covering every vertex."""
    edge_list = list(edges)
    if len(edge_list) != ctx.m:
        return False
    seen: set[int] = set()
    for e in edge_list:
        if not isinstance(e, Edge) or e.b >= ctx.n:
            return False
        if e.a in seen or e.b in seen:
            return False
        seen.add(e.a)
        seen.add(e.b)
    return not any(edges_cross(ctx, e, f)
                   for e, f in itertools.combinations(edge_list, 2))


class _IntervalBlocks(dict):
    """The matchings of each vertex interval [i, j), keyed (i, j), as in
    `_spm_splits`, each built on its first lookup and kept.  The recursion
    runs through the dict, not a function's own closure cell, so the blocks
    hold no reference cycle and go with the dict, not at a collector pass."""

    __slots__ = ("unit",)

    def __init__(self, n: int, unit, empty) -> None:
        super().__init__(((i, i), [empty]) for i in range(n + 1))
        self.unit = unit

    def splits(self, i: int, j: int, block):
        # Vertex i takes each k at odd distance; splitting off the even
        # intervals [i+1, k) and [k+1, j) leaves no crossing to filter out.
        unit = self.unit
        return ((unit(i, k), block((i + 1, k)), block((k + 1, j)))
                for k in range(i + 1, j, 2))

    def __missing__(self, key):
        # Every proper sub-interval [i, j) is built once and kept.
        block = self[key] = [head + inner + outer for head, inners, outers
                             in self.splits(*key, self.__getitem__)
                             for inner in inners for outer in outers]
        return block

    def take(self, key) -> list:
        # [1, k) is no other interval's block and [k+1, 2m) no later top
        # split's, so the top blocks are dropped after use, not kept.
        block = self[key]
        del self[key]
        return block


def _spm_splits(ctx: PolygonContext, unit, empty):
    """The matchings as one `(unit(0, k), inners, outers)` per partner k
    of vertex 0, ascending: the matchings of 1..k-1 and of k+1..2m-1, each
    written `unit(a, b) + ...` over its sorted edges (`empty` for none), so
    `head + inner + outer`, inner-major, lists them lexicographically.
    Refuses m past `DEFAULT_MAX_M` on the call."""
    check_cap(ctx.m, DEFAULT_MAX_M, "enumeration")
    blocks = _IntervalBlocks(ctx.n, unit, empty)
    return blocks.splits(0, ctx.n, blocks.take)


def spm_pairs(ctx: PolygonContext) -> Iterator[tuple[tuple[int, int], ...]]:
    """Iterator over all simple perfect matchings as sorted tuples of
    (a, b) vertex pairs with a < b, in lexicographic order.  The pairs are
    exact int tuples, each equal to the `Edge` of `enumerate_spms`.

    The order is that of `enumerate_spms`: each tuple lists its edges by
    first vertex, the first edge (0, k) comes out with k ascending, and for
    a fixed first edge the inner and outer blocks are sorted recursively.
    Memory holds the blocks of the sub-intervals, not the Catalan many
    matchings of the polygon.  Refuses m past `DEFAULT_MAX_M` on the call.
    """
    return (head + inner + outer
            for head, inners, outers in _spm_splits(ctx, lambda a, b: ((a, b),), ())
            for inner in inners for outer in outers)


def enumerate_spms(ctx: PolygonContext) -> list[Matching]:
    """All simple perfect matchings, sorted lexicographically by edge list.

    The count is the m-th Catalan number.  Refuses m beyond `DEFAULT_MAX_M`.
    """
    pairs = spm_pairs(ctx)
    edge_of = ctx.edge_of.__getitem__
    return [frozenset(map(edge_of, s)) for s in pairs]


def first_avoiding_spm(ctx: PolygonContext, edges) -> Matching | None:
    """The first simple perfect matching in `enumerate_spms` order that
    shares no edge with `edges`, or None when `edges` blocks every one.

    Runs the enumeration's interval-split recurrence on one (2m+1)-bit int
    per start vertex and lists no matchings: no cap.  Each of its O(m^2)
    steps works on such an int, so the cost grows faster than m^2: 0.27 s
    at m = 1000, 0.93 s at 2000, 4.9 s at 4000 (ROADMAP item 5).
    """
    banned = set(map(ctx.check_edge, edges))
    n = ctx.n
    # rows[i] has bit j set when the vertices i..j-1 have a perfect matching
    # avoiding `edges`; the empty block [i, i) has one.
    rows = [1 << i for i in range(n + 1)]

    def partners(i: int, j: int):
        # Allowed partners k < j of vertex i leaving [i+1, k) matchable,
        # ascending as in the enumeration.
        return (k for k in range(i + 1, j, 2)
                if rows[i + 1] >> k & 1 and (i, k) not in banned)

    for i in range(n - 2, -1, -1):
        for k in partners(i, n):
            rows[i] |= rows[k + 1]
    if not rows[0] >> n & 1:
        return None
    # The smallest feasible partner of the lowest vertex, then the first
    # matchings of the inner and outer blocks, is the first in enumeration
    # order, because it lists by first edge, then inner, then outer block.
    out = []
    pending = [(0, n)]
    while pending:
        i, j = pending.pop()
        if i < j:
            k = next(k for k in partners(i, j) if rows[k + 1] >> j & 1)
            out.append(Edge(i, k))
            pending += [(k + 1, j), (i + 1, k)]
    return frozenset(out)


def catalan_number(n: int) -> int:
    """n-th Catalan number from the closed form C(2n, n) / (n + 1).

    The enumerator runs the interval-split recurrence and the tests keep
    it as this count's twin, so the count cross-checks the enumerator.
    """
    check_ints(n=n)
    if n < 0:
        raise InputError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def parallel_spm(ctx: PolygonContext, l: int) -> Matching:
    """The matching of all edges parallel to the boundary edge [l-1, l]:
    every edge whose endpoint sum is 2l-1 mod 2m."""
    check_ints(l=l)
    if not 1 <= l <= ctx.m:
        raise InputError(f"l must be in 1..{clipped(ctx.m)}, got {clipped(l)}")
    return frozenset(parallel_class(ctx, (2 * l - 1) % ctx.n))


class TriangularSpec(namedtuple("_TriangularSpec", "i1 i2 i3 p q r a b c")):
    """Three boundary-edge positions and the fan sizes they force, all ints.

    Positions i1 < i2 < i3 name the boundary edges [i1-1,i1], [i2-1,i2],
    [i3-1,i3] (position 2m stands for the wrap edge [2m-1, 0]).  With
    p, q, r the cyclic distances between consecutive positions, the fan
    sizes are the unique solution of a+b = p, b+c = q, c+a = r, namely
    a = m-q, b = m-r, c = m-p; they are positive exactly when every
    distance is below m.
    """

    __slots__ = ()

    @classmethod
    def from_positions(cls, ctx: PolygonContext, i1: int, i2: int, i3: int) -> "TriangularSpec":
        check_ints(i1=i1, i2=i2, i3=i3)
        if not 1 <= i1 < i2 < i3 <= ctx.n:
            raise InputError(
                f"positions must satisfy 1 <= i1 < i2 < i3 <= {clipped(ctx.n)}, "
                f"got {clipped((i1, i2, i3))}")
        p = i2 - i1
        q = i3 - i2
        r = i1 + ctx.n - i3
        if p >= ctx.m or q >= ctx.m or r >= ctx.m:
            raise InfeasibilityError(
                "no triangular matching exists: consecutive distances "
                f"(p={clipped(p)}, q={clipped(q)}, r={clipped(r)}) must all be below "
                f"m={clipped(ctx.m)}")
        return cls(i1, i2, i3, p, q, r, ctx.m - q, ctx.m - r, ctx.m - p)


def triangular_spm(ctx: PolygonContext, i1: int, i2: int, i3: int) -> Matching:
    """The matching of three parallel fans whose boundary edges are exactly
    [i1-1,i1], [i2-1,i2], [i3-1,i3], built from the fan sizes they force."""
    spec = TriangularSpec.from_positions(ctx, i1, i2, i3)
    return triangular_spm_from_blocks(ctx, (spec.i1 - spec.a) % ctx.n,
                                      spec.a, spec.b, spec.c)


def triangular_spm_from_blocks(ctx: PolygonContext, start: int,
                               a: int, b: int, c: int) -> Matching:
    """Triangular matching from a starting vertex and the three fan sizes
    (the vertex circle splits into arcs of 2a, 2b and 2c vertices).

    Each arc of 2k vertices takes the k nested edges parallel to its middle
    boundary edge.  The paper's fan-size view of a triangular matching;
    `triangular_spm`, the boundary-edge form that `spm triangular` takes,
    builds through it.
    """
    check_ints(start=start, a=a, b=b, c=c)
    if min(a, b, c) < 1 or a + b + c != ctx.m:
        raise InputError(
            f"fan sizes must be positive with a+b+c = m, got ({a}, {b}, {c})")
    if not 0 <= start < ctx.n:
        raise InputError(f"start must be in 0..{ctx.n - 1}, got {start}")
    edges = []
    for k in (a, b, c):
        edges += [ctx.edge(start + k - 1 - eps, start + k + eps) for eps in range(k)]
        start += 2 * k
    return frozenset(edges)
