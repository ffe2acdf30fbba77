"""Brute-force discovery of minimum blocking sets.

Deliberately independent of the blocker generator so the two can be
compared: the naive mode uses nothing but the blocking-set definition,
and the pruned mode additionally uses only the fact that the m parallel
matchings are pairwise disjoint (so an m-edge blocking set must take
exactly one edge from each odd parallel class).

Both searches run on complement masks built once before the walk: per edge,
the matchings that avoid it, and in the pruned mode, per depth, the
matchings that no remaining class can hit.  Adding an edge to a partial
set is then one AND on the mask of the matchings still unhit, and the
pruning bound is one more.  The naive search is the bounded search tree
for hitting set: every blocking set holds an edge of the lowest matching
still unhit, so it branches on those edges, for the budgets 0, 1, ... in
turn until one admits a blocking set.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Iterator

from .errors import InputError, check_cap
from .geometry import Edge, PolygonContext, edges_to_lists, parallel_class
from .matchings import enumerate_spms

__all__ = [
    "SpmFamilyIndex",
    "OracleResult",
    "MODE_NAIVE",
    "MODE_CLASS_PRUNED",
    "DEFAULT_NAIVE_CAP",
    "DEFAULT_PRUNED_CAP",
    "build_family_index",
    "is_blocking_set",
    "missed_spms",
    "check_search_cap",
    "find_minimum_blockers",
    "oracle_report_json",
]

MODE_NAIVE = "naive"
MODE_CLASS_PRUNED = "class_pruned"

DEFAULT_NAIVE_CAP = 5
DEFAULT_PRUNED_CAP = 8


class SpmFamilyIndex(namedtuple("_SpmFamilyIndex", "ctx spms per_edge_hits")):
    """All simple perfect matchings of one polygon as edge-index bitmasks,
    plus the reverse map from each edge index to the matchings containing it.

    `spms` holds one int mask per matching, in enumeration order;
    `per_edge_hits[i]` has bit j set when matching j contains edge i.
    """

    __slots__ = ()

    @property
    def spm_count(self) -> int:
        return len(self.spms)

    @property
    def full_cover(self) -> int:
        """Bitmask with one bit per matching, all set."""
        return (1 << len(self.spms)) - 1


def build_family_index(ctx: PolygonContext) -> SpmFamilyIndex:
    family = enumerate_spms(ctx)  # refuses m past the cap before any table
    spms = []
    hits = [0] * ctx.edge_count
    # The enumerator's edges are valid by construction, so the context's
    # table ranks them without the checks of `ctx.edge_index`.
    rank = ctx.edge_rank
    for position, s in enumerate(family):
        bits = 0
        for e in s:
            i = rank[e]
            bits |= 1 << i
            hits[i] |= 1 << position
        spms.append(bits)
    return SpmFamilyIndex(ctx, tuple(spms), tuple(hits))


def _positions(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unhit(index: SpmFamilyIndex, edges) -> int:
    """Bitmask of the matchings that contain none of the edges."""
    ctx, hits = index.ctx, index.per_edge_hits
    check, rank = ctx.check_edge, ctx.edge_rank
    covered = 0
    for e in edges:
        covered |= hits[rank[check(e)]]
    return index.full_cover & ~covered


def is_blocking_set(index: SpmFamilyIndex, edges) -> bool:
    """True when every matching in the family contains one of the edges."""
    return not _unhit(index, edges)


def missed_spms(index: SpmFamilyIndex, edges) -> list[frozenset[Edge]]:
    """The matchings the edge set fails to hit (empty for blocking sets),
    in enumeration order.  The index reference the tests check
    `matchings.first_avoiding_spm` against; the CLI needs only the first."""
    table = index.ctx.edge_table
    return [frozenset(map(table.__getitem__, _positions(index.spms[position])))
            for position in _positions(_unhit(index, edges))]


class OracleResult(namedtuple(
        "_OracleResult", "mode minimum_size minimum_sets nodes millis")):
    """Everything a search run found, with its exploration stats: the
    `mode`, the `minimum_size` of a blocking set, the tuple `minimum_sets`
    of every one of that size (frozensets of edges), the search tree's
    `nodes` and its wall time in `millis`."""

    __slots__ = ()


def check_search_cap(m: int, mode: str, *, pruned_cap: int = DEFAULT_PRUNED_CAP) -> None:
    """Refuse an unknown mode, or m beyond its search cap, before any work.
    `DEFAULT_NAIVE_CAP` is fixed; `pruned_cap` moves `DEFAULT_PRUNED_CAP`."""
    if mode == MODE_NAIVE:
        check_cap(m, DEFAULT_NAIVE_CAP, "naive search")
    elif mode == MODE_CLASS_PRUNED:
        check_cap(m, pruned_cap, "pruned search")
    else:
        raise InputError(f"unknown oracle mode {mode!r}")


def find_minimum_blockers(index: SpmFamilyIndex, mode: str = MODE_CLASS_PRUNED, *,
                          pruned_cap: int = DEFAULT_PRUNED_CAP) -> OracleResult:
    """Search for all minimum blocking sets, sorted by their edge lists.

    naive        -- for the budgets 0, 1, ... in turn, branch on the edges
                    of the lowest matching still unhit, each edge forbidden
                    to the later siblings of its branch, until some budget
                    admits a blocking set; every blocking set of that size
                    is found once.
    class_pruned -- pick one edge from each odd parallel class by
                    depth-first search, abandoning branches that can no
                    longer hit every matching.  Complete for minimum
                    blocking sets because the m parallel matchings are
                    pairwise disjoint, so any m-edge blocking set contains
                    exactly one edge of each odd class; the minimum size is
                    m by the same disjointness.

    `nodes` counts the search effort.  For naive it is every search-tree
    call, summed over the budgets 0..minimum; for class_pruned it is every
    node of the depth-first tree, the pruned ones included: the root, and
    each child counted by its parent, which calls only the children that
    pass the bound.
    `check_search_cap` refuses m first.
    """
    check_search_cap(index.ctx.m, mode, pruned_cap=pruned_cap)
    search = _search_naive if mode == MODE_NAIVE else _search_class_pruned
    started = time.perf_counter()
    size, sets, nodes = search(index)
    millis = (time.perf_counter() - started) * 1000.0
    if not sets:
        raise RuntimeError("unreachable: m consecutive boundary edges always block")
    # Each set's sorted edges order the sets as their [a, b] lists would.
    return OracleResult(mode, size, tuple(sorted(sets, key=sorted)), nodes, millis)


def _search_naive(index: SpmFamilyIndex) -> tuple[int, list[frozenset[Edge]], int]:
    ctx = index.ctx
    spms = index.spms
    full = index.full_cover
    comp = [full & ~h for h in index.per_edge_hits]
    found: list[frozenset[Edge]] = []
    chosen: list[int] = []
    nodes = 0

    def walk(need: int, budget: int, allowed: int) -> None:
        # need: the matchings the chosen edges leave unhit; budget: edges
        # still to choose.  Every blocking set holds an edge of the lowest
        # unhit matching, so branch on those edges; once a branch on edge i
        # is done, later siblings may not take i, so each set is found once.
        nonlocal nodes
        nodes += 1
        if not need:
            found.append(frozenset(map(ctx.edge_at, chosen)))
            return
        if not budget:
            return
        for i in _positions(spms[(need & -need).bit_length() - 1] & allowed):
            chosen.append(i)
            walk(need & comp[i], budget - 1, allowed)
            chosen.pop()
            allowed &= ~(1 << i)

    for size in range(ctx.m + 1):
        walk(full, size, (1 << ctx.edge_count) - 1)
        if found:
            break
    return size, found, nodes


def _search_class_pruned(index: SpmFamilyIndex
                         ) -> tuple[int, list[frozenset[Edge]], int]:
    ctx = index.ctx
    full = index.full_cover
    comp = [full & ~h for h in index.per_edge_hits]
    class_edges = [[(e, comp[ctx.edge_index(e)]) for e in parallel_class(ctx, c)]
                   for c in range(1, ctx.n, 2)]
    # unreach[i]: the matchings no edge of classes i.. onwards hits
    unreach = [full] * (len(class_edges) + 1)
    for i in range(len(class_edges) - 1, -1, -1):
        unreach[i] = unreach[i + 1]
        for _e, c in class_edges[i]:
            unreach[i] &= c
    found: list[frozenset[Edge]] = []
    chosen: list[Edge] = []
    nodes = 1  # the root; each child is counted and bounded by its parent

    def walk(i: int, unhit: int) -> None:
        nonlocal nodes
        if i == len(class_edges):
            found.append(frozenset(chosen))
            return
        nodes += len(class_edges[i])
        bound = unreach[i + 1]
        for e, c in class_edges[i]:
            child = unhit & c
            if not child & bound:
                chosen.append(e)
                walk(i + 1, child)
                chosen.pop()

    if not full & unreach[0]:
        walk(0, full)
    return ctx.m, found, nodes


def oracle_report_json(index: SpmFamilyIndex, result: OracleResult) -> dict:
    return {
        "m": index.ctx.m,
        "mode": result.mode,
        "minimum_size": result.minimum_size,
        "count": len(result.minimum_sets),
        "sets": [edges_to_lists(s) for s in result.minimum_sets],
        "nodes": result.nodes,
        "millis": round(result.millis, 3),
    }
