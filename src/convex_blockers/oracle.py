"""Brute-force discovery of minimum blocking sets.

Deliberately independent of the blocker generator so the two can be
compared: the naive mode uses nothing but the blocking-set definition,
and the pruned mode additionally uses only the fact that the m parallel
matchings are pairwise disjoint (so an m-edge blocking set must take
exactly one edge from each odd parallel class).

Both searches run on complement masks built once before the walk: per edge,
the matchings that avoid it, and in the pruned mode, per depth, the
matchings that no remaining class can hit.  Adding an edge to a partial
set is then one AND on the mask of the matchings still unhit.  The pruned
mode also stores each edge's mask ANDed with the bound of its depth, so a
child is tested with one AND and only a kept child pays the second.  The
naive search is the bounded search tree for hitting set: every blocking
set holds an edge of the lowest matching still unhit, so it branches on
those edges, for the budgets 0, 1, ... in turn until one admits a blocking
set.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterator

from .errors import InputError, check_cap
from .geometry import Edge, PolygonContext, edges_to_lists, parallel_class
from .matchings import enumerate_spms

MODE_NAIVE = "naive"
MODE_CLASS_PRUNED = "class_pruned"

DEFAULT_NAIVE_CAP = 5
DEFAULT_PRUNED_CAP = 11


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
    # The enumerator's edges are valid by construction, so the rank map
    # reads them without `ctx.check_edge`.
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


class OracleResult(namedtuple(
        "_OracleResult", "mode minimum_size minimum_sets nodes millis")):
    """Everything a search run found, with its exploration stats: the
    `mode`, the `minimum_size` of a blocking set, the tuple `minimum_sets`
    of every one of that size (frozensets of edges), the search tree's
    `nodes` and its wall time in `millis`."""

    __slots__ = ()


def check_search_cap(m: int, mode: str) -> None:
    """Refuse an unknown mode, or m beyond its search cap, before any work.
    Both caps are fixed: `DEFAULT_NAIVE_CAP` and `DEFAULT_PRUNED_CAP`."""
    if mode == MODE_NAIVE:
        check_cap(m, DEFAULT_NAIVE_CAP, "naive search")
    elif mode == MODE_CLASS_PRUNED:
        check_cap(m, DEFAULT_PRUNED_CAP, "pruned search")
    else:
        raise InputError(f"unknown oracle mode {mode!r}")


def find_minimum_blockers(index: SpmFamilyIndex, mode: str = MODE_CLASS_PRUNED) -> OracleResult:
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
    check_search_cap(index.ctx.m, mode)
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
            found.append(frozenset(map(ctx.edge_table.__getitem__, chosen)))
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
    # `walk` reaches itself through its closure cell; emptying the cell ends
    # that cycle, so the mask tables go with this call, not at a collector pass.
    del walk
    return size, found, nodes


def _search_class_pruned(index: SpmFamilyIndex
                         ) -> tuple[int, list[frozenset[Edge]], int]:
    ctx = index.ctx
    full = index.full_cover
    comp = [full & ~h for h in index.per_edge_hits]
    # `parallel_class` makes valid edges: rank them without `ctx.check_edge`.
    class_edges = [[(e, comp[ctx.edge_rank[e]]) for e in parallel_class(ctx, c)]
                   for c in range(1, ctx.n, 2)]
    # unreach[i]: the matchings no edge of classes i.. onwards hits
    unreach = [full] * (len(class_edges) + 1)
    for i in range(len(class_edges) - 1, -1, -1):
        unreach[i] = unreach[i + 1]
        for _e, c in class_edges[i]:
            unreach[i] &= c
    # A child's bound test (unhit & c) & unreach[i + 1] is unhit & c_bound,
    # so a pruned child costs one AND and only a kept one computes unhit & c.
    classes = [[(e, c, c & unreach[i + 1]) for e, c in edges]
               for i, edges in enumerate(class_edges)]
    found: list[frozenset[Edge]] = []
    chosen: list[Edge] = []
    nodes = 1  # the root; each child is counted and bounded by its parent

    def walk(i: int, unhit: int) -> None:
        nonlocal nodes
        if i == len(classes):
            found.append(frozenset(chosen))
            return
        children = classes[i]
        nodes += len(children)
        for e, c, c_bound in children:
            if not unhit & c_bound:
                chosen.append(e)
                walk(i + 1, unhit & c)
                chosen.pop()

    if not full & unreach[0]:
        walk(0, full)
    del walk  # frees the tables now: see `_search_naive`
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
