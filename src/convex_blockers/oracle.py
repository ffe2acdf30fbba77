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

from .errors import InputError, ResourceLimitError
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


def find_minimum_blockers(index: SpmFamilyIndex, mode: str = MODE_CLASS_PRUNED, *,
                          naive_cap: int = DEFAULT_NAIVE_CAP,
                          pruned_cap: int = DEFAULT_PRUNED_CAP) -> OracleResult:
    """Search for all minimum blocking sets.

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
    if mode == MODE_NAIVE:
        if index.ctx.m > naive_cap:
            raise ResourceLimitError(
                f"naive search capped at m <= {naive_cap}, got m={index.ctx.m}")
        return _search_naive(index)
    if mode == MODE_CLASS_PRUNED:
        if index.ctx.m > pruned_cap:
            raise ResourceLimitError(
                f"pruned search capped at m <= {pruned_cap}, got m={index.ctx.m}")
        return _search_class_pruned(index)
    raise InputError(f"unknown oracle mode {mode!r}")


def _canonical(sets: list[frozenset[Edge]]) -> tuple[frozenset[Edge], ...]:
    return tuple(sorted(sets, key=lambda s: tuple((e.a, e.b) for e in sorted(s))))


def _search_naive(index: SpmFamilyIndex) -> OracleResult:
    ctx = index.ctx
    hits = index.per_edge_hits
    full = index.full_cover
    started = time.perf_counter()
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
            millis = (time.perf_counter() - started) * 1000.0
            return OracleResult(MODE_NAIVE, size, _canonical(found), nodes, millis)
    raise RuntimeError("unreachable: m consecutive boundary edges always block")


def _search_class_pruned(index: SpmFamilyIndex) -> OracleResult:
    ctx = index.ctx
    started = time.perf_counter()
    class_edges = []
    for class_id in range(1, ctx.n, 2):
        members = parallel_class(ctx, class_id)
        class_edges.append(
            [(e, index.per_edge_hits[ctx.edge_index(e)]) for e in members])
    # suffix[i]: every matching reachable from classes i.. onwards
    suffix = [0] * (len(class_edges) + 1)
    for i in range(len(class_edges) - 1, -1, -1):
        cover = 0
        for _e, h in class_edges[i]:
            cover |= h
        suffix[i] = suffix[i + 1] | cover
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
    if not found:
        raise RuntimeError("unreachable: m consecutive boundary edges always block")
    millis = (time.perf_counter() - started) * 1000.0
    return OracleResult(MODE_CLASS_PRUNED, ctx.m, _canonical(found), nodes, millis)


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
