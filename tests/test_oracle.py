from __future__ import annotations

import functools
import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edges
from convex_blockers.blockers import enumerate_blockers, parse_blocker, BlockerSpec
from convex_blockers.errors import InputError, ResourceLimitError
from convex_blockers.geometry import Edge, PolygonContext, parallel_class
from convex_blockers.matchings import enumerate_spms, first_avoiding_spm, spm_pairs
from convex_blockers.oracle import (
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    SpmFamilyIndex,
    _search_class_pruned,
    _search_naive,
    build_family_index,
    find_minimum_blockers,
    is_blocking_set,
    oracle_report_json,
)
from convex_blockers.verify import verify_theorem


# ---------------------------------------------------------------------------
# family index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,count", [(2, 2), (3, 5), (6, 132)])
def test_index_spm_counts(m, count):
    assert build_family_index(PolygonContext(m)).spm_count == count


def test_index_cap():
    with pytest.raises(ResourceLimitError, match="m=13 exceeds the enumeration cap 12"):
        build_family_index(PolygonContext(13))


def test_index_refuses_the_cap_before_the_edge_table():
    ctx = PolygonContext(200)
    with pytest.raises(ResourceLimitError, match="m=200 exceeds the enumeration cap 12"):
        build_family_index(ctx)
    assert "edge_table" not in ctx.__dict__
    assert "edge_rank" not in ctx.__dict__


def _mask(ctx, edge_set):
    return sum(1 << ctx.edge_rank[e] for e in edge_set)


@pytest.mark.parametrize("m", range(1, 6))
def test_index_hits_consistent_with_masks(m):
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    spms = enumerate_spms(ctx)
    assert list(index.spms) == [_mask(ctx, s) for s in spms]
    for e in ctx.edge_table:
        hits = index.per_edge_hits[ctx.edge_rank[e]]
        for position, spm in enumerate(spms):
            assert bool(hits >> position & 1) == (e in spm)


def test_edge_hit_counts():
    index2 = build_family_index(PolygonContext(2))
    ctx2 = index2.ctx
    assert index2.per_edge_hits[ctx2.edge_rank[Edge(0, 1)]].bit_count() == 1
    # in the hexagon, [1,4] forces [2,3] and [0,5], so it lies in exactly
    # one matching
    index3 = build_family_index(PolygonContext(3))
    ctx3 = index3.ctx
    hits = index3.per_edge_hits[ctx3.edge_rank[Edge(1, 4)]]
    assert hits.bit_count() == 1
    (position,) = [i for i in range(index3.spm_count) if hits >> i & 1]
    assert index3.spms[position] == _mask(ctx3, edges("0-5,1-4,2-3"))


# ---------------------------------------------------------------------------
# blocking checks
# ---------------------------------------------------------------------------

def test_half_boundary_and_odd_star_block_everything():
    ctx = PolygonContext(6)
    index = build_family_index(ctx)
    assert is_blocking_set(index, edges("0-1,1-2,2-3,3-4,4-5,5-6"))
    assert is_blocking_set(index, edges("0-1,0-3,0-5,0-7,0-9,0-11"))


def test_two_far_apart_boundary_edges_do_not_block():
    index = build_family_index(PolygonContext(3))
    pair = edges("0-1,4-5")
    assert not is_blocking_set(index, pair)
    assert first_avoiding_spm(index.ctx, pair) == edges("1-2,3-4,5-0")


@given(st.data())
def test_blocking_checks_match_the_definition(data):
    m = data.draw(st.integers(2, 6))
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    chosen = data.draw(st.sets(st.sampled_from(ctx.edge_table)))
    spms = enumerate_spms(ctx)
    assert is_blocking_set(index, chosen) == all(s & chosen for s in spms)


@pytest.mark.parametrize("m", range(2, 9))
def test_a_set_blocks_exactly_when_its_turn_does(m):
    # `verify` checks start 0's blockers only and lets each stand for its
    # rotation orbit, which rests on this: turning the polygon by one vertex
    # maps matchings to matchings.  The turn here is vertex arithmetic,
    # independent of the blocker layer's turn table.  Each blocker and a
    # seeded one-edge swap of it, which mostly does not block.
    ctx = PolygonContext(m)
    n = ctx.n
    index = build_family_index(ctx)
    rng = random.Random(m)
    every_edge = ctx.edge_table

    def turn(edge_set):
        return frozenset(Edge((a + 1) % n, (b + 1) % n) for a, b in edge_set)

    outcomes = set()
    for blocker in enumerate_blockers(ctx):
        out = rng.choice(sorted(blocker))
        swap = blocker - {out} | {rng.choice([e for e in every_edge if e not in blocker])}
        for edge_set in (blocker, swap):
            blocks = is_blocking_set(index, edge_set)
            assert is_blocking_set(index, turn(edge_set)) == blocks, sorted(edge_set)
            outcomes.add(blocks)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def test_naive_m2():
    index = build_family_index(PolygonContext(2))
    result = find_minimum_blockers(index, MODE_NAIVE)
    assert result.minimum_size == 2
    assert set(result.minimum_sets) == {
        edges("0-1,1-2"), edges("1-2,2-3"), edges("2-3,3-0"), edges("3-0,0-1")}
    # search-tree calls per budget: 1 at budget 0, then the root and the
    # two edges of the lowest matching at budget 1, then 7 at budget 2
    assert result.nodes == 1 + 3 + 7


def test_naive_m3_rules_out_size_two():
    index = build_family_index(PolygonContext(3))
    result = find_minimum_blockers(index, MODE_NAIVE)
    assert result.minimum_size == 3
    assert len(result.minimum_sets) == 12


@pytest.mark.parametrize("m", range(2, 5))
def test_modes_agree(m):
    index = build_family_index(PolygonContext(m))
    naive = find_minimum_blockers(index, MODE_NAIVE)
    pruned = find_minimum_blockers(index, MODE_CLASS_PRUNED)
    assert naive.minimum_size == pruned.minimum_size == m
    assert set(naive.minimum_sets) == set(pruned.minimum_sets)


@pytest.mark.parametrize("m", range(2, 7))
def test_pruned_search_equals_generated_blockers(m):
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    result = find_minimum_blockers(index, MODE_CLASS_PRUNED)
    assert set(result.minimum_sets) == set(enumerate_blockers(ctx))
    # every DFS call is counted, so the worst case is the full geometric
    # sum over the one-edge-per-class selection tree
    assert result.nodes <= (m ** (m + 1) - 1) // (m - 1)
    for found in result.minimum_sets:
        assert isinstance(parse_blocker(ctx, found), BlockerSpec)


def test_minimum_sets_are_canonically_sorted():
    index = build_family_index(PolygonContext(3))
    result = find_minimum_blockers(index, MODE_CLASS_PRUNED)
    keys = [tuple((e.a, e.b) for e in sorted(s)) for s in result.minimum_sets]
    assert keys == sorted(keys)


def test_search_caps():
    index = build_family_index(PolygonContext(6))
    with pytest.raises(ResourceLimitError):
        find_minimum_blockers(index, MODE_NAIVE)
    # The pruned cap is checked before the search reads the index, so a stub
    # stands in for the m = 12 one.
    with pytest.raises(ResourceLimitError, match="^m=12 exceeds the pruned search cap 11$"):
        find_minimum_blockers(SpmFamilyIndex(PolygonContext(12), (), ()), MODE_CLASS_PRUNED)


def test_unknown_mode_rejected():
    index = build_family_index(PolygonContext(2))
    with pytest.raises(InputError):
        find_minimum_blockers(index, "greedy")


def test_report_json_shape():
    index = build_family_index(PolygonContext(2))
    result = find_minimum_blockers(index, MODE_CLASS_PRUNED)
    payload = oracle_report_json(index, result)
    assert payload["m"] == 2
    assert payload["mode"] == "class_pruned"
    assert payload["minimum_size"] == 2
    assert payload["count"] == 4
    assert [[0, 1], [1, 2]] in payload["sets"]
    assert payload["nodes"] >= 1
    assert payload["millis"] >= 0


# ---------------------------------------------------------------------------
# the nodes contract, and the searches against their slow twins
# ---------------------------------------------------------------------------

NAIVE_NODES = {1: 3, 2: 11, 3: 46, 4: 207, 5: 984}
PRUNED_NODES = {1: 2, 2: 7, 3: 40, 4: 197, 5: 801, 6: 2887, 7: 9584, 8: 30057,
                9: 91009}


@functools.lru_cache(maxsize=None)
def _index(m: int) -> SpmFamilyIndex:
    return build_family_index(PolygonContext(m))


@pytest.mark.parametrize("m,nodes", NAIVE_NODES.items())
def test_naive_nodes_count_every_search_tree_call(m, nodes):
    assert find_minimum_blockers(_index(m), MODE_NAIVE).nodes == nodes


@pytest.mark.parametrize("m,nodes", PRUNED_NODES.items())
def test_pruned_nodes_count_every_tree_node(m, nodes):
    # The root plus every child, the pruned ones included.
    result = find_minimum_blockers(_index(m), MODE_CLASS_PRUNED)
    assert result.nodes == nodes


def _slow_search_naive(index):
    """Reference naive search: ORs the hits of every combination afresh."""
    ctx = index.ctx
    hits = index.per_edge_hits
    full = index.full_cover
    nodes = 0
    for size in range(ctx.m + 1):
        found = []
        for combo in itertools.combinations(range(ctx.edge_count), size):
            nodes += 1
            covered = 0
            for i in combo:
                covered |= hits[i]
            if covered == full:
                found.append(frozenset(ctx.edge_table[i] for i in combo))
        if found:
            break
    return size, found, nodes


def _slow_search_class_pruned(index):
    """Reference pruned search: complements the hit masks at every node."""
    ctx = index.ctx
    hits = index.per_edge_hits
    class_edges = [[(e, hits[ctx.edge_rank[e]]) for e in parallel_class(ctx, c)]
                   for c in range(1, ctx.n, 2)]
    suffix = [0] * (len(class_edges) + 1)
    for i in range(len(class_edges) - 1, -1, -1):
        suffix[i] = suffix[i + 1]
        for _e, h in class_edges[i]:
            suffix[i] |= h
    found = []
    chosen = []
    nodes = 0

    def walk(i, unhit):
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


def _restricted(index: SpmFamilyIndex, keep) -> SpmFamilyIndex:
    """The family of the matchings at the kept positions, renumbered in
    order, so that `full_cover` follows the subset."""
    spms = tuple(index.spms[p] for p in sorted(keep))
    hits = [0] * index.ctx.edge_count
    for position, bits in enumerate(spms):
        for i in range(index.ctx.edge_count):
            if bits >> i & 1:
                hits[i] |= 1 << position
    return SpmFamilyIndex(index.ctx, spms, tuple(hits))


def _draw_restricted(data, m_min, m_max):
    index = _index(data.draw(st.integers(m_min, m_max)))
    # One coin per matching drops it, so a typical draw keeps a uniform
    # random half and shrinking heads for the whole family.  Near-empty
    # families cost up to m^m pruned nodes; the empty one has its own test.
    dropped = data.draw(st.lists(st.booleans(), min_size=index.spm_count,
                                 max_size=index.spm_count))
    return _restricted(index, [p for p, drop in enumerate(dropped) if not drop])


def _assert_naive_twins_agree(index):
    # The two searches count different things as nodes and find the sets
    # in different orders, so compare the size and the sets.
    size, found, _nodes = _search_naive(index)
    slow_size, slow_found, _slow_nodes = _slow_search_naive(index)
    assert len(found) == len(set(found))
    assert (size, set(found)) == (slow_size, set(slow_found))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_naive_search_equals_its_slow_twin_on_restricted_families(data):
    _assert_naive_twins_agree(_draw_restricted(data, 2, 5))


@pytest.mark.parametrize("k", range(1, 16))
@pytest.mark.parametrize("spread", [False, True], ids=["first", "spread"])
def test_naive_search_equals_its_slow_twin_on_small_families(k, spread):
    # The first k matchings of m = 5 are blocked by one edge up to k = 14;
    # k matchings spread over the family need two or three edges.
    keep = [p * 42 // k for p in range(k)] if spread else range(k)
    _assert_naive_twins_agree(_restricted(_index(5), keep))


@pytest.mark.parametrize("m", [6, 7])
def test_naive_search_finds_every_blocker_once_beyond_the_cap(m):
    ctx = PolygonContext(m)
    size, found, _nodes = _search_naive(_index(m))
    assert size == m
    assert len(found) == len(set(found))
    assert set(found) == set(enumerate_blockers(ctx))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_search_equals_its_slow_twin_on_restricted_families(data):
    index = _draw_restricted(data, 2, 7)
    assert _search_class_pruned(index) == _slow_search_class_pruned(index)


def test_pruned_search_equals_its_slow_twin_on_the_whole_family():
    # Same size, the same sets in the same order, and the same node count.
    index = _index(8)
    assert _search_class_pruned(index) == _slow_search_class_pruned(index)


@pytest.mark.parametrize("m", range(1, 5))
def test_empty_family_is_blocked_by_every_singleton(m):
    # Every edge set blocks the empty family, the empty set included, so
    # the naive search stops at budget 0 with one node.
    index = _restricted(_index(m), ())
    assert all(is_blocking_set(index, [e]) for e in index.ctx.edge_table)
    assert _search_naive(index) == (0, [frozenset()], 1)
    _assert_naive_twins_agree(index)
    assert _search_class_pruned(index) == _slow_search_class_pruned(index)


@pytest.mark.parametrize("m", range(1, 6))
def test_restricting_to_every_matching_changes_nothing(m):
    index = _index(m)
    whole = _restricted(index, range(index.spm_count))
    assert whole == index


@pytest.mark.parametrize("call", [
    lambda ctx, index: list(spm_pairs(ctx)),
    lambda ctx, index: enumerate_spms(ctx),
    lambda ctx, index: build_family_index(ctx),
    lambda ctx, index: find_minimum_blockers(index, MODE_NAIVE),
    lambda ctx, index: find_minimum_blockers(index, MODE_CLASS_PRUNED),
    lambda ctx, index: verify_theorem(2, 6, 4),
], ids=["spm_pairs", "enumerate_spms", "build_family_index", "naive", "pruned",
        "verify_theorem"])
def test_a_call_leaves_no_reference_cycle(call):
    # The interval blocks and the searches' mask tables are freed when the
    # call ends, not kept alive in a cycle until a collector pass.
    ctx = PolygonContext(5)
    index = build_family_index(ctx)
    gc.collect()
    gc.disable()
    try:
        call(ctx, index)
        assert gc.collect() == 0
    finally:
        gc.enable()
