from __future__ import annotations

import enum
import itertools
import random

from convex_blockers.blockers import BlockerSpec
from convex_blockers.errors import InputError
from convex_blockers.geometry import Edge, PolygonContext, boundary_position, edges_from_text


def edges(text: str) -> frozenset[Edge]:
    """Shorthand: edge set from `a-b,c-d` text."""
    return edges_from_text(text)


def random_spec(rng: random.Random, m: int) -> BlockerSpec:
    """A seeded blocker spec at m: any start, a spine length t in 2..m and
    m - t strictly increasing offsets drawn from 1..m-2."""
    t = rng.randint(2, m)
    eps = tuple(sorted(rng.sample(range(1, m - 1), m - t)))
    return BlockerSpec(rng.randrange(2 * m), t, eps)


def blocker_specs(ctx: PolygonContext) -> list[BlockerSpec]:
    """Every canonical spec once, from the definition: any start, and any
    set of offsets from 1..m-2, of at most m - 2 of them, with t = m minus
    their number.  Sorted as tuples (start, t, eps), which is the order
    `enumerate_blockers` documents: starts ascending, then spine lengths,
    then offsets in lexicographic order."""
    m = ctx.m
    offsets = range(1, m - 1)
    return sorted(BlockerSpec(start, m - k, eps)
                  for start in range(ctx.n) for k in range(m - 1)
                  for eps in itertools.combinations(offsets, k))


class BoundaryCase(enum.Enum):
    """The three structural options for a set of boundary edges."""

    OPPOSITE_PAIR = "OppositePair"
    HALF_BOUNDARY = "HalfBoundary"
    TRIANGULAR_TRIPLE = "TriangularTriple"


def classify_boundary_set(ctx: PolygonContext, boundary_edges) -> set[BoundaryCase]:
    """Every case that holds for a nonempty set of boundary edges:

    * OPPOSITE_PAIR: two edges exactly m positions apart;
    * HALF_BOUNDARY: the set fits among m consecutive boundary edges;
    * TRIANGULAR_TRIPLE: three edges whose consecutive cyclic distances
      are all below m.

    At least one case always applies (the trichotomy of the paper's
    half-boundary arguments).
    """
    edge_set = sorted(set(boundary_edges))
    if not edge_set:
        raise InputError("boundary edge set must be nonempty")
    pos = sorted(boundary_position(ctx, e) for e in edge_set)
    m, k = ctx.m, len(pos)
    cases: set[BoundaryCase] = set()
    if any(pos[v] == pos[u] + m for u in range(k) for v in range(u + 1, k)):
        cases.add(BoundaryCase.OPPOSITE_PAIR)
    if pos[-1] < pos[0] + m or any(pos[u + 1] - pos[u] > m for u in range(k - 1)):
        cases.add(BoundaryCase.HALF_BOUNDARY)
    for u, v, w in itertools.combinations(range(k), 3):
        if pos[v] < pos[u] + m and pos[w] < pos[v] + m and pos[u] + m < pos[w]:
            cases.add(BoundaryCase.TRIANGULAR_TRIPLE)
            break
    return cases
