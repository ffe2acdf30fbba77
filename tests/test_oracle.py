from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import edges
from convex_blockers.blockers import enumerate_blockers, parse_blocker, BlockerSpec
from convex_blockers.errors import InputError, ResourceLimitError
from convex_blockers.geometry import Edge, PolygonContext
from convex_blockers.matchings import enumerate_spms
from convex_blockers.oracle import (
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    build_family_index,
    find_minimum_blockers,
    is_blocking_set,
    missed_spms,
    oracle_report_json,
)


# ---------------------------------------------------------------------------
# family index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,count", [(2, 2), (3, 5), (6, 132)])
def test_index_spm_counts(m, count):
    assert build_family_index(PolygonContext(m)).spm_count == count


def test_index_cap():
    with pytest.raises(ResourceLimitError):
        build_family_index(PolygonContext(4), max_m=3)


def _mask(ctx, edge_set):
    return sum(1 << ctx.edge_index(e) for e in edge_set)


@pytest.mark.parametrize("m", range(1, 6))
def test_index_hits_consistent_with_masks(m):
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    spms = enumerate_spms(ctx)
    assert list(index.spms) == [_mask(ctx, s) for s in spms]
    for e in ctx.edges():
        hits = index.per_edge_hits[ctx.edge_index(e)]
        for position, spm in enumerate(spms):
            assert bool(hits >> position & 1) == (e in spm)


def test_edge_hit_counts():
    index2 = build_family_index(PolygonContext(2))
    ctx2 = index2.ctx
    assert index2.per_edge_hits[ctx2.edge_index(Edge(0, 1))].bit_count() == 1
    # in the hexagon, [1,4] forces [2,3] and [0,5], so it lies in exactly
    # one matching
    index3 = build_family_index(PolygonContext(3))
    ctx3 = index3.ctx
    hits = index3.per_edge_hits[ctx3.edge_index(Edge(1, 4))]
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
    assert edges("1-2,3-4,5-0") in missed_spms(index, pair)


def test_missed_spms_empty_for_blockers():
    index = build_family_index(PolygonContext(3))
    assert missed_spms(index, edges("0-1,1-2,1-4")) == []


@given(st.data())
def test_blocking_checks_match_the_definition(data):
    m = data.draw(st.integers(2, 6))
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    chosen = data.draw(st.sets(st.sampled_from(list(ctx.edges()))))
    spms = enumerate_spms(ctx)
    assert is_blocking_set(index, chosen) == all(s & chosen for s in spms)
    assert missed_spms(index, chosen) == [s for s in spms if not s & chosen]


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def test_naive_m2():
    index = build_family_index(PolygonContext(2))
    result = find_minimum_blockers(index, MODE_NAIVE)
    assert result.minimum_size == 2
    assert set(result.minimum_sets) == {
        edges("0-1,1-2"), edges("1-2,2-3"), edges("2-3,3-0"), edges("3-0,0-1")}
    # all 6 singletons plus all 15 pairs were tested
    assert result.nodes == 21


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
    with pytest.raises(ResourceLimitError):
        find_minimum_blockers(build_family_index(PolygonContext(3)),
                              MODE_NAIVE, naive_cap=2)
    with pytest.raises(ResourceLimitError):
        find_minimum_blockers(index, MODE_CLASS_PRUNED, pruned_cap=5)


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
