from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convex_blockers.errors import InputError
from convex_blockers.geometry import (
    Edge,
    PolygonContext,
    are_parallel,
    boundary_position,
    edge_class,
    edge_from_text,
    edge_order,
    edges_cross,
    edges_from_text,
    edges_to_lists,
    edges_to_text,
    is_boundary_edge,
    parallel_class,
)


# ---------------------------------------------------------------------------
# independent re-derivations used as oracles
# ---------------------------------------------------------------------------

def _parallel_by_arc_count(ctx: PolygonContext, e: Edge, f: Edge) -> bool:
    """Parallelism by its arc definition: the two arcs separating a pair of
    disjoint non-crossing chords contain equally many boundary edges."""
    n = ctx.n
    if e.shares_vertex(f):
        return False
    q1 = (e.b - e.a) % n
    lo, hi = sorted(((f.a - e.a) % n, (f.b - e.a) % n))
    if (lo < q1) != (hi < q1):
        return False  # endpoints straddle e: crossing arrangement
    if lo < q1:
        return _parallel_by_arc_count(ctx, f, e)
    return lo - q1 == n - hi


def _cross_by_coordinates(ctx: PolygonContext, e: Edge, f: Edge) -> bool:
    """Crossing by actual segment geometry on the unit circle."""
    if e.shares_vertex(f):
        return False

    def pt(v: int) -> tuple[float, float]:
        angle = 2 * math.pi * v / ctx.n
        return math.cos(angle), math.sin(angle)

    def orient(p, q, r) -> int:
        value = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (value > 1e-12) - (value < -1e-12)

    p1, p2, p3, p4 = pt(e.a), pt(e.b), pt(f.a), pt(f.b)
    return (orient(p1, p2, p3) != orient(p1, p2, p4)
            and orient(p3, p4, p1) != orient(p3, p4, p2))


# ---------------------------------------------------------------------------
# Edge and PolygonContext basics
# ---------------------------------------------------------------------------

def test_edge_normalizes_order():
    assert Edge(5, 2) == Edge(2, 5)
    assert Edge(2, 5).a == 2 and Edge(2, 5).b == 5


def test_edge_rejects_degenerate_and_negative():
    with pytest.raises(InputError):
        Edge(3, 3)
    with pytest.raises(InputError):
        Edge(-1, 2)


def test_context_rejects_nonpositive_m():
    with pytest.raises(InputError):
        PolygonContext(0)


def test_context_counts():
    ctx = PolygonContext(6)
    assert ctx.n == 12
    assert ctx.edge_count == 66
    assert len(list(ctx.edges())) == 66


def test_edge_order_examples():
    ctx = PolygonContext(6)
    assert edge_order(ctx, Edge(0, 1)) == 1
    assert edge_order(ctx, Edge(2, 7)) == 5
    assert edge_order(ctx, Edge(0, 6)) == 6


def test_edge_order_rejects_out_of_range_vertex():
    with pytest.raises(InputError):
        edge_order(PolygonContext(6), Edge(0, 12))


@pytest.mark.parametrize("m", range(1, 9))
def test_edge_order_bounds_and_parity(m):
    ctx = PolygonContext(m)
    for e in ctx.edges():
        order = edge_order(ctx, e)
        assert 1 <= order <= m
        assert (order % 2 == 1) == ((e.a + e.b) % 2 == 1)


# ---------------------------------------------------------------------------
# parallelism
# ---------------------------------------------------------------------------

def test_are_parallel_examples():
    ctx = PolygonContext(6)
    assert are_parallel(ctx, Edge(0, 1), Edge(2, 11))
    assert not are_parallel(ctx, Edge(0, 1), Edge(1, 2))
    assert not are_parallel(ctx, Edge(2, 7), Edge(1, 10))
    assert _parallel_by_arc_count(ctx, Edge(2, 7), Edge(1, 10)) is False


@pytest.mark.parametrize("m", range(2, 6))
def test_are_parallel_matches_arc_count_definition(m):
    ctx = PolygonContext(m)
    for e, f in itertools.combinations(ctx.edges(), 2):
        assert are_parallel(ctx, e, f) == _parallel_by_arc_count(ctx, e, f)
        assert are_parallel(ctx, e, f) == are_parallel(ctx, f, e)


def test_parallel_class_examples():
    assert parallel_class(PolygonContext(6), 1) == sorted(
        edges_from_text("0-1,6-7,2-11,3-10,4-9,5-8"))
    assert parallel_class(PolygonContext(2), 1) == sorted(edges_from_text("0-1,2-3"))
    assert parallel_class(PolygonContext(3), 0) == sorted(edges_from_text("1-5,2-4"))


def test_parallel_class_rejects_out_of_range():
    with pytest.raises(InputError):
        parallel_class(PolygonContext(3), 6)


@pytest.mark.parametrize("m", range(1, 9))
def test_parallel_classes_partition_edges(m):
    ctx = PolygonContext(m)
    seen: set[Edge] = set()
    for class_id in range(ctx.n):
        members = parallel_class(ctx, class_id)
        if class_id % 2 == 1:
            assert len(members) == m
            assert sum(1 for e in members if is_boundary_edge(ctx, e)) == (
                2 if m >= 2 else 1)
        else:
            assert len(members) == m - 1
        for e in members:
            assert edge_class(ctx, e) == class_id
        assert not seen & set(members)
        seen.update(members)
    assert len(seen) == ctx.edge_count


@pytest.mark.parametrize("m", range(2, 7))
def test_parallel_edges_never_cross(m):
    ctx = PolygonContext(m)
    for e, f in itertools.combinations(ctx.edges(), 2):
        if are_parallel(ctx, e, f):
            assert not edges_cross(ctx, e, f)


# ---------------------------------------------------------------------------
# crossing predicate
# ---------------------------------------------------------------------------

def test_edges_cross_examples():
    ctx2 = PolygonContext(2)
    assert edges_cross(ctx2, Edge(0, 2), Edge(1, 3))
    assert not edges_cross(ctx2, Edge(0, 1), Edge(2, 3))
    ctx6 = PolygonContext(6)
    assert not edges_cross(ctx6, Edge(2, 5), Edge(2, 7))


@pytest.mark.parametrize("m", range(2, 6))
def test_edges_cross_matches_segment_geometry(m):
    ctx = PolygonContext(m)
    for e, f in itertools.combinations(ctx.edges(), 2):
        assert edges_cross(ctx, e, f) == _cross_by_coordinates(ctx, e, f)
        assert edges_cross(ctx, e, f) == edges_cross(ctx, f, e)
    for e in ctx.edges():
        assert not edges_cross(ctx, e, e)


@given(st.data())
def test_edges_cross_interleaving_property(data):
    m = data.draw(st.integers(2, 8))
    ctx = PolygonContext(m)
    universe = list(ctx.edges())
    e = data.draw(st.sampled_from(universe))
    f = data.draw(st.sampled_from(universe))
    if edges_cross(ctx, e, f):
        # rotate so e.a is the reference; the endpoints of f must split
        # strictly around e.b
        fa = (f.a - e.a) % ctx.n
        fb = (f.b - e.a) % ctx.n
        eb = (e.b - e.a) % ctx.n
        assert (0 < fa < eb) != (0 < fb < eb)


# ---------------------------------------------------------------------------
# edge index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 9))
def test_edge_index_is_a_bijection(m):
    ctx = PolygonContext(m)
    indexes = [ctx.edge_index(e) for e in ctx.edges()]
    assert indexes == list(range(ctx.edge_count))
    for i in indexes:
        assert ctx.edge_index(ctx.edge_at(i)) == i


def test_edge_index_frozen_layout_m2():
    ctx = PolygonContext(2)
    expected = [Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(1, 2), Edge(1, 3), Edge(2, 3)]
    assert list(ctx.edges()) == expected
    assert [ctx.edge_at(i) for i in range(6)] == expected


def test_boundary_position_round_trip():
    for m in range(2, 7):
        ctx = PolygonContext(m)
        for p in range(ctx.n):
            assert boundary_position(ctx, ctx.boundary_edge(p)) == p
    # m=1 is degenerate: both positions name the single edge
    assert boundary_position(PolygonContext(1), Edge(0, 1)) == 0
    with pytest.raises(InputError):
        boundary_position(PolygonContext(3), Edge(0, 2))


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

def test_edge_text_round_trip():
    assert edge_from_text("3-10") == Edge(3, 10)
    assert edges_to_text(edges_from_text("2-5,0-1,1-2")) == "0-1,1-2,2-5"
    assert edges_to_lists(edges_from_text("2-5,0-1")) == [[0, 1], [2, 5]]


def test_edge_text_rejects_malformed():
    with pytest.raises(InputError):
        edge_from_text("3")
    with pytest.raises(InputError):
        edge_from_text("a-b")
    with pytest.raises(InputError):
        edges_from_text("")
