"""Brute-force discovery of minimum blocking sets.

Deliberately independent of the blocker generator so the two can be
compared: the naive mode uses nothing but the blocking-set definition,
and the pruned mode additionally uses only the fact that the m parallel
matchings are pairwise disjoint (so an m-edge blocking set must take
exactly one edge from each odd parallel class).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError, check_cap
from .geometry import Edge, PolygonContext, edges_to_lists, parallel_class
from .matchings import DEFAULT_MAX_M, enumerate_spms

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


@dataclass(frozen=True)
class SpmFamilyIndex:
    """All simple perfect matchings of one polygon as edge-index bitmasks,
    plus the reverse map from each edge index to the matchings containing it."""

    ctx: PolygonContext
    spms: tuple[int, ...]
    per_edge_hits: tuple[int, ...]

    @property
    def spm_count(self) -> int:
        return len(self.spms)

    @property
    def full_cover(self) -> int:
        """Bitmask with one bit per matching, all set."""
        return (1 << len(self.spms)) - 1


def build_family_index(ctx: PolygonContext, *, max_m: int = DEFAULT_MAX_M
                       ) -> SpmFamilyIndex:
    spms = []
    hits = [0] * ctx.edge_count
    # The enumerator's edges are valid by construction, so a table ranks
    # them without the checks of `ctx.edge_index`.
    rank = {(e.a, e.b): i for i, e in enumerate(ctx.edges())}
    for position, s in enumerate(enumerate_spms(ctx, max_m=max_m)):
        bits = 0
        for e in s:
            i = rank[e.a, e.b]
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
    covered = 0
    for e in edges:
        covered |= index.per_edge_hits[index.ctx.edge_index(e)]
    return index.full_cover & ~covered


def is_blocking_set(index: SpmFamilyIndex, edges) -> bool:
    """True when every matching in the family contains one of the edges."""
    return not _unhit(index, edges)


def missed_spms(index: SpmFamilyIndex, edges) -> list[frozenset[Edge]]:
    """The matchings the edge set fails to hit (empty for blocking sets),
    in enumeration order."""
    ctx = index.ctx
    return [frozenset(ctx.edge_at(i) for i in _positions(index.spms[position]))
            for position in _positions(_unhit(index, edges))]


@dataclass(frozen=True)
class OracleResult:
    """Everything a search run found, with its exploration stats."""

    mode: str
    minimum_size: int
    minimum_sets: tuple[frozenset[Edge], ...]
    nodes: int
    millis: float


def check_search_cap(m: int, mode: str, *, naive_cap: int = DEFAULT_NAIVE_CAP,
                     pruned_cap: int = DEFAULT_PRUNED_CAP) -> None:
    """Refuse an unknown mode, or m beyond its search cap, before any work."""
    if mode == MODE_NAIVE:
        check_cap(m, naive_cap, "naive search")
    elif mode == MODE_CLASS_PRUNED:
        check_cap(m, pruned_cap, "pruned search")
    else:
        raise InputError(f"unknown oracle mode {mode!r}")


def find_minimum_blockers(index: SpmFamilyIndex, mode: str = MODE_CLASS_PRUNED, *,
                          naive_cap: int = DEFAULT_NAIVE_CAP,
                          pruned_cap: int = DEFAULT_PRUNED_CAP) -> OracleResult:
    """Search for all minimum blocking sets, sorted by their edge lists.

    naive        -- exhaustively test every edge subset of size 1, 2, ...
                    until some size admits a blocking set, then collect all
                    blocking sets of that size.
    class_pruned -- pick one edge from each odd parallel class by
                    depth-first search, abandoning branches that can no
                    longer hit every matching.  Complete for minimum
                    blocking sets because the m parallel matchings are
                    pairwise disjoint, so any m-edge blocking set contains
                    exactly one edge of each odd class; the minimum size is
                    m by the same disjointness.
    """
    check_search_cap(index.ctx.m, mode, naive_cap=naive_cap, pruned_cap=pruned_cap)
    search = _search_naive if mode == MODE_NAIVE else _search_class_pruned
    started = time.perf_counter()
    size, sets, nodes = search(index)
    millis = (time.perf_counter() - started) * 1000.0
    if not sets:
        raise RuntimeError("unreachable: m consecutive boundary edges always block")
    return OracleResult(mode, size, tuple(sorted(sets, key=edges_to_lists)),
                        nodes, millis)


def _search_naive(index: SpmFamilyIndex) -> tuple[int, list[frozenset[Edge]], int]:
    ctx = index.ctx
    hits = index.per_edge_hits
    full = index.full_cover
    nodes = 0
    for size in range(1, ctx.m + 1):
        found = []
        for combo in itertools.combinations(range(ctx.edge_count), size):
            nodes += 1
            covered = 0
            for i in combo:
                covered |= hits[i]
            if covered == full:
                found.append(frozenset(ctx.edge_at(i) for i in combo))
        if found:
            break
    return size, found, nodes


def _search_class_pruned(index: SpmFamilyIndex
                         ) -> tuple[int, list[frozenset[Edge]], int]:
    ctx = index.ctx
    hits = index.per_edge_hits
    class_edges = [[(e, hits[ctx.edge_index(e)]) for e in parallel_class(ctx, c)]
                   for c in range(1, ctx.n, 2)]
    # suffix[i]: every matching reachable from classes i.. onwards
    suffix = [0] * (len(class_edges) + 1)
    for i in range(len(class_edges) - 1, -1, -1):
        suffix[i] = suffix[i + 1]
        for _e, h in class_edges[i]:
            suffix[i] |= h
    found: list[frozenset[Edge]] = []
    chosen: list[Edge] = []
    nodes = 0

    def walk(i: int, unhit: int) -> None:
        nonlocal nodes
        nodes += 1
        if unhit & ~suffix[i]:
            return
        if i == len(class_edges):
            found.append(frozenset(chosen))
            return
        for e, h in class_edges[i]:
            chosen.append(e)
            walk(i + 1, unhit & ~h)
            chosen.pop()

    walk(0, index.full_cover)
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
