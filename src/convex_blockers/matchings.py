"""Non-crossing perfect matchings of the convex polygon.

The exhaustive enumeration (Catalan many) works on plain (a, b) int
pairs: `spm_pairs` streams them, and `enumerate_spms` turns them into
`Edge` sets at the API boundary.  Besides it, two special families are
constructed directly:

* parallel matchings: the full parallel class of a boundary edge;
* triangular matchings: three fans of mutually parallel nested edges
  whose only boundary edges are three prescribed ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import InfeasibilityError, InputError, check_cap
from .geometry import Edge, PolygonContext, edges_cross, parallel_class

__all__ = [
    "Matching",
    "DEFAULT_MAX_M",
    "is_spm",
    "enumerate_spms",
    "spm_pairs",
    "catalan_number",
    "first_avoiding_spm",
    "parallel_spm",
    "TriangularSpec",
    "triangular_spm",
    "triangular_spm_from_blocks",
]

Matching = frozenset[Edge]

# Default enumeration cap; the Catalan number for m=12 is 208012.
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
    if len(seen) != ctx.n:
        return False
    return not any(edges_cross(ctx, e, f)
                   for e, f in itertools.combinations(edge_list, 2))


def _pair_matchings(m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    # Match the lowest vertex to every vertex k at odd distance; the split
    # into two even sub-intervals is what makes every produced matching
    # non-crossing, with no post-filtering.  The matchings of an interval
    # depend only on its length up to a vertex shift, so each length below
    # 2m is built once on 0..L-1 and only the top length is streamed.
    n = 2 * m
    # shift[s] moves a pair s vertices up; map() through it moves a block.
    shift = [{(a, b): (a + s, b + s) for a in range(n) for b in range(a + 1, n, 2)
              }.__getitem__ for s in range(n + 1)]
    blocks = [[()]]  # blocks[h]: the matchings of the vertices 0..2h-1

    def splits(h: int):
        # Edge (0, k), the inner block [1, k) and the outer block [k+1, 2h).
        for j in range(h):
            k = 2 * j + 1
            yield ((0, k), [tuple(map(shift[1], t)) for t in blocks[j]],
                   [tuple(map(shift[k + 1], t)) for t in blocks[h - 1 - j]])

    for h in range(1, m):
        blocks.append([(e,) + inner + outer for e, inners, outers in splits(h)
                       for inner in inners for outer in outers])
    for e, inners, outers in splits(m):
        for inner in inners:
            for outer in outers:
                yield (e,) + inner + outer


def spm_pairs(ctx: PolygonContext, *, max_m: int = DEFAULT_MAX_M
              ) -> Iterator[tuple[tuple[int, int], ...]]:
    """Iterator over all simple perfect matchings as sorted tuples of
    (a, b) vertex pairs with a < b, in lexicographic order.

    The order is that of `enumerate_spms`: each tuple lists its edges by
    first vertex, the first edge (0, k) comes out with k ascending, and for
    a fixed first edge the inner and outer blocks have fixed lengths and
    are sorted recursively.  Memory is set by the largest sub-interval, not
    by the Catalan many matchings.  Refuses m beyond `max_m` on the call.
    """
    check_cap(ctx.m, max_m, "enumeration")
    return _pair_matchings(ctx.m)


def enumerate_spms(ctx: PolygonContext, *, max_m: int = DEFAULT_MAX_M) -> list[Matching]:
    """All simple perfect matchings, sorted lexicographically by edge list.

    The count is the m-th Catalan number.  Refuses m beyond `max_m`.
    """
    pairs = spm_pairs(ctx, max_m=max_m)
    edge_of = {(e.a, e.b): e for e in ctx.edges()}.__getitem__
    return [frozenset(map(edge_of, s)) for s in pairs]


def first_avoiding_spm(ctx: PolygonContext, edges) -> Matching | None:
    """The first simple perfect matching in `enumerate_spms` order that
    shares no edge with `edges`, or None when `edges` blocks every one.

    Runs the interval-split recurrence of the enumeration as a feasibility
    table instead of listing matchings: O(m^3) time and O(m^2) memory, so
    no enumeration cap applies.
    """
    banned = {(e.a, e.b) for e in map(ctx.check_edge, edges)}
    n = ctx.n
    # ok[i][j]: the vertices i..j-1 have a perfect matching avoiding `edges`.
    ok = [[i == j for j in range(n + 1)] for i in range(n + 1)]

    def splits(i: int, j: int):
        # Partners k of vertex i that leave both blocks [i+1, k) and
        # [k+1, j) matchable, ascending as in the enumeration.
        return (k for k in range(i + 1, j, 2)
                if (i, k) not in banned and ok[i + 1][k] and ok[k + 1][j])

    for length in range(2, n + 1, 2):
        for i in range(n - length + 1):
            ok[i][i + length] = any(splits(i, i + length))
    if not ok[0][n]:
        return None
    # The smallest feasible partner of the lowest vertex, then the first
    # matchings of the inner and outer blocks, is the first in enumeration
    # order, because it lists by first edge, then inner, then outer block.
    out = []
    pending = [(0, n)]
    while pending:
        i, j = pending.pop()
        if i < j:
            k = next(splits(i, j))
            out.append(Edge(i, k))
            pending += [(k + 1, j), (i + 1, k)]
    return frozenset(out)


def catalan_number(n: int) -> int:
    """n-th Catalan number by the convolution recurrence.

    Independent of the enumerator, so it can serve as its cross-check.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    values = [1]
    for size in range(1, n + 1):
        values.append(sum(values[i] * values[size - 1 - i] for i in range(size)))
    return values[n]


def parallel_spm(ctx: PolygonContext, l: int) -> Matching:
    """The matching of all edges parallel to the boundary edge [l-1, l]:
    every edge whose endpoint sum is 2l-1 mod 2m."""
    if not 1 <= l <= ctx.m:
        raise InputError(f"l must be in 1..{ctx.m}, got {l}")
    return frozenset(parallel_class(ctx, (2 * l - 1) % ctx.n))


@dataclass(frozen=True)
class TriangularSpec:
    """Three boundary-edge positions and the fan sizes they force.

    Positions i1 < i2 < i3 name the boundary edges [i1-1,i1], [i2-1,i2],
    [i3-1,i3] (position 2m stands for the wrap edge [2m-1, 0]).  With
    p, q, r the cyclic distances between consecutive positions, the fan
    sizes are the unique solution of a+b = p, b+c = q, c+a = r, namely
    a = m-q, b = m-r, c = m-p; they are positive exactly when every
    distance is below m.
    """

    i1: int
    i2: int
    i3: int
    p: int
    q: int
    r: int
    a: int
    b: int
    c: int

    @classmethod
    def from_positions(cls, ctx: PolygonContext, i1: int, i2: int, i3: int) -> "TriangularSpec":
        if not 1 <= i1 < i2 < i3 <= ctx.n:
            raise InputError(
                f"positions must satisfy 1 <= i1 < i2 < i3 <= {ctx.n}, "
                f"got ({i1}, {i2}, {i3})")
        p = i2 - i1
        q = i3 - i2
        r = i1 + ctx.n - i3
        if p >= ctx.m or q >= ctx.m or r >= ctx.m:
            raise InfeasibilityError(
                "no triangular matching exists: consecutive distances "
                f"(p={p}, q={q}, r={r}) must all be below m={ctx.m}")
        return cls(i1, i2, i3, p, q, r, ctx.m - q, ctx.m - r, ctx.m - p)


def _fan(ctx: PolygonContext, position: int, size: int) -> list[Edge]:
    """`size` nested edges parallel to the boundary edge [position-1, position]."""
    return [ctx.edge(position - 1 - eps, position + eps) for eps in range(size)]


def triangular_spm(ctx: PolygonContext, i1: int, i2: int, i3: int) -> Matching:
    """The matching of three parallel fans whose boundary edges are exactly
    [i1-1,i1], [i2-1,i2], [i3-1,i3]."""
    spec = TriangularSpec.from_positions(ctx, i1, i2, i3)
    edges = (_fan(ctx, spec.i1, spec.a)
             + _fan(ctx, spec.i2, spec.b)
             + _fan(ctx, spec.i3, spec.c))
    return frozenset(edges)


def triangular_spm_from_blocks(ctx: PolygonContext, start: int,
                               a: int, b: int, c: int) -> Matching:
    """Triangular matching from a starting vertex and the three fan sizes
    (the vertex circle splits into arcs of 2a, 2b and 2c vertices).

    Delegates to the boundary-edge form; the implied positions always fit
    the canonical range once position 0 is written as 2m.
    """
    if min(a, b, c) < 1 or a + b + c != ctx.m:
        raise InputError(
            f"fan sizes must be positive with a+b+c = m, got ({a}, {b}, {c})")
    if not 0 <= start < ctx.n:
        raise InputError(f"start must be in 0..{ctx.n - 1}, got {start}")
    positions = sorted(((start + a - 1) % ctx.n + 1,
                        (start + 2 * a + b - 1) % ctx.n + 1,
                        (start + 2 * a + 2 * b + c - 1) % ctx.n + 1))
    return triangular_spm(ctx, *positions)
