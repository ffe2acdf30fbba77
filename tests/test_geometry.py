from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import is_boundary_edge
from convex_blockers.blockers import BlockerSpec, CaterpillarReport, StructuralViolation
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
    parallel_class,
)
from convex_blockers.matchings import TriangularSpec
from convex_blockers.oracle import OracleResult, SpmFamilyIndex
from convex_blockers.render import RenderSpec
from convex_blockers.verify import VerificationReport


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


def test_edge_is_its_normalized_pair():
    assert Edge(3, 1) == Edge(1, 3) == (1, 3)
    assert hash(Edge(3, 1)) == hash(Edge(1, 3)) == hash((1, 3))
    assert repr(Edge(3, 1)) == "Edge(1, 3)"
    assert json.dumps(Edge(1, 3)) == "[1, 3]"


def test_edge_sorts_in_pair_order():
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    shuffled = [Edge(b, a) for a, b in reversed(pairs)]
    assert sorted(shuffled) == pairs


@pytest.mark.parametrize("copy_edge", [
    lambda e: pickle.loads(pickle.dumps(e)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_edge_copies_round_trip_to_an_edge(copy_edge):
    twin = copy_edge(Edge(4, 2))
    assert type(twin) is Edge
    assert twin == Edge(2, 4) and repr(twin) == "Edge(2, 4)"


def test_edge_is_immutable():
    e = Edge(1, 3)
    with pytest.raises(AttributeError):
        e.a = 5
    with pytest.raises(AttributeError):
        e.c = 5
    assert e == (1, 3)


def test_edge_refusal_messages():
    with pytest.raises(InputError, match=re.escape("degenerate edge [3,3]")):
        Edge(3, 3)
    with pytest.raises(InputError, match=re.escape("negative vertex in [-1,2]")):
        Edge(-1, 2)
    # Degenerate is checked first, then negative.
    with pytest.raises(InputError, match=re.escape("degenerate edge [-1,-1]")):
        Edge(-1, -1)
    with pytest.raises(InputError, match=re.escape("non-integer vertex in [1.5,3]")):
        Edge(1.5, 3)
    with pytest.raises(InputError, match=re.escape("non-integer vertex in [3,3.0]")):
        Edge(3, 3.0)
    # The type is checked before both others.
    with pytest.raises(InputError, match=re.escape("non-integer vertex in [-1,-1.0]")):
        Edge(-1, -1.0)
    # A bool is an int to `isinstance`, but an edge `True-2` is no edge.
    with pytest.raises(InputError, match=re.escape("non-integer vertex in [True,2]")):
        Edge(True, 2)
    with pytest.raises(InputError, match=re.escape("non-integer vertex in [0,False]")):
        Edge(0, False)


def test_edge_replace_normalizes_and_checks():
    assert repr(Edge(1, 3)._replace(a=5)) == "Edge(3, 5)"
    assert Edge._make([4, 2]) == (2, 4)
    with pytest.raises(InputError, match=re.escape("degenerate edge [3,3]")):
        Edge(1, 3)._replace(a=3)


def test_context_rejects_nonpositive_m():
    with pytest.raises(InputError):
        PolygonContext(0)


# 0.5 is also below the bound: the type is checked first.
@pytest.mark.parametrize("m, shown", [(2.5, "2.5"), (3.0, "3.0"), ("3", "3"),
                                      (None, "None"), (0.5, "0.5"),
                                      (True, "True"), (False, "False")])
def test_context_rejects_non_integer_m(m, shown):
    with pytest.raises(InputError, match=re.escape(f"m must be an integer, got {shown}")):
        PolygonContext(m)


def test_context_counts():
    ctx = PolygonContext(6)
    assert ctx.n == 12
    assert ctx.edge_count == 66
    assert len(ctx.edge_table) == 66


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
    for e in ctx.edge_table:
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
    for e, f in itertools.combinations(ctx.edge_table, 2):
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
    for e, f in itertools.combinations(ctx.edge_table, 2):
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
    for e, f in itertools.combinations(ctx.edge_table, 2):
        assert edges_cross(ctx, e, f) == _cross_by_coordinates(ctx, e, f)
        assert edges_cross(ctx, e, f) == edges_cross(ctx, f, e)
    for e in ctx.edge_table:
        assert not edges_cross(ctx, e, e)


@given(st.data())
def test_edges_cross_interleaving_property(data):
    m = data.draw(st.integers(2, 8))
    ctx = PolygonContext(m)
    universe = ctx.edge_table
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
    indexes = [ctx.edge_rank[e] for e in ctx.edge_table]
    assert indexes == list(range(ctx.edge_count)) and len(ctx.edge_rank) == ctx.edge_count


def test_edge_index_frozen_layout_m2():
    ctx = PolygonContext(2)
    expected = [Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(1, 2), Edge(1, 3), Edge(2, 3)]
    assert ctx.edge_table == tuple(expected)
    assert [ctx.edge_rank[e] for e in expected] == list(range(6))


def _slow_edge_at(ctx: PolygonContext, index: int) -> Edge:
    """The edge of index `index` by a walk over the rows a = 0, 1, ...,
    with no edge table."""
    a = 0
    row = ctx.n - 1
    while index >= row:
        index -= row
        a += 1
        row -= 1
    return Edge(a, a + 1 + index)


@pytest.mark.parametrize("m", range(1, 13))
def test_edge_table_holds_every_pair_once_in_index_order(m):
    ctx = PolygonContext(m)
    n = ctx.n
    pairs = [(a, b) for a in range(n - 1) for b in range(a + 1, n)]
    assert ctx.edge_table == tuple(Edge(a, b) for a, b in pairs)
    assert len(ctx.edge_of) == 2 * len(ctx.edge_rank) == 2 * ctx.edge_count
    for i, e in enumerate(ctx.edge_table):
        assert type(e) is Edge
        assert e == _slow_edge_at(ctx, i)
        assert ctx.edge_rank[e] == i
        # the lexicographic rank of (a, b) in closed form
        assert i == e.a * (n - 1) - e.a * (e.a - 1) // 2 + (e.b - e.a - 1)
        assert ctx.edge_of[e.a, e.b] is e and ctx.edge_of[e.b, e.a] is e


def test_edge_of_makes_each_edge_on_first_lookup():
    ctx = PolygonContext(3)
    assert len(ctx.edge_of) == 0
    e = ctx.edge_of[5, 2]
    assert type(e) is Edge and e == (2, 5)
    assert ctx.edge_of[2, 5] is e and ctx.edge_of[e] is e and len(ctx.edge_of) == 2
    for key in [(0, 6), (6, 0), (1, 1), (-1, 2), (1.5, 2), ("a", "b"), (1, 2, 3), 5, None]:
        with pytest.raises(KeyError):
            ctx.edge_of[key]
    assert len(ctx.edge_of) == 2
    assert repr(ctx.edge_of[True, 4]) == "Edge(1, 4)"  # a bool key makes an int edge
    assert ctx.edge_table[ctx.edge_rank[e]] is e
    assert len(ctx.edge_of) == 2 * ctx.edge_count


def test_context_stores_n_and_keeps_its_value_semantics():
    ctx = PolygonContext(3)
    assert ctx.__dict__["n"] == ctx.n == 6
    assert repr(ctx) == "PolygonContext(m=3)"
    twin = PolygonContext(3)
    assert ctx.edge_table is ctx.edge_table
    assert twin == ctx and hash(twin) == hash(ctx)
    assert twin.edge_table == ctx.edge_table and twin.edge_table is not ctx.edge_table
    assert PolygonContext(m=3) == ctx != PolygonContext(4) and ctx != 3
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    with pytest.raises(TypeError):
        PolygonContext(3, 6)
    for name in ("m", "n", "edge_table", "extra"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 4)
        with pytest.raises(AttributeError):
            delattr(ctx, name)
    assert (ctx.m, ctx.n) == (3, 6) and "extra" not in ctx.__dict__


# Each value type built by keyword, with its repr and a field; every one hashes.
VALUE_TYPES = [
    (lambda: BlockerSpec(start=0, t=3, eps=(1, 2, 4)),
     "BlockerSpec(start=0, t=3, eps=(1, 2, 4))", "eps"),
    (lambda: StructuralViolation(name="crossing_pair", witness=(Edge(0, 3), Edge(1, 4))),
     "StructuralViolation(name='crossing_pair', witness=(Edge(0, 3), Edge(1, 4)))",
     "witness"),
    (lambda: CaterpillarReport(is_tree=True, boundary_path=(Edge(0, 1), Edge(1, 2)),
                               spine_length=2, violations=()),
     "CaterpillarReport(is_tree=True, boundary_path=(Edge(0, 1), Edge(1, 2)), "
     "spine_length=2, violations=())", "violations"),
    (lambda: TriangularSpec(i1=1, i2=3, i3=5, p=2, q=2, r=2, a=1, b=1, c=1),
     "TriangularSpec(i1=1, i2=3, i3=5, p=2, q=2, r=2, a=1, b=1, c=1)", "a"),
    (lambda: SpmFamilyIndex(ctx=PolygonContext(2), spms=(5, 10), per_edge_hits=(1, 2)),
     "SpmFamilyIndex(ctx=PolygonContext(m=2), spms=(5, 10), per_edge_hits=(1, 2))",
     "spms"),
    (lambda: OracleResult(mode="naive", minimum_size=2, minimum_sets=(), nodes=7,
                          millis=0.5),
     "OracleResult(mode='naive', minimum_size=2, minimum_sets=(), nodes=7, millis=0.5)",
     "nodes"),
    (lambda: RenderSpec(m=3, solid=(Edge(2, 5), Edge(0, 1)), labels=False),
     "RenderSpec(m=3, solid=(Edge(0, 1), Edge(2, 5)), thick=(), dotted=(), "
     "labels=False)", "solid"),
    (lambda: VerificationReport(
        m=2, spm_count=2, expected_spm_count=2, generated_count=4, oracle_count=4,
        formula_count=4, set_equality=True, structural_pass=True,
        blocks_all_spms=True, naive_agrees=None, lower_bound_pass=None,
        durations_ms=(("spm_enumeration", 0.5),), oracle_only=(),
        generated_only=((Edge(0, 1), Edge(2, 3)),)),
     "VerificationReport(m=2, spm_count=2, expected_spm_count=2, generated_count=4, "
     "oracle_count=4, formula_count=4, set_equality=True, structural_pass=True, "
     "blocks_all_spms=True, naive_agrees=None, lower_bound_pass=None, "
     "durations_ms=(('spm_enumeration', 0.5),), oracle_only=(), "
     "generated_only=((Edge(0, 1), Edge(2, 3)),))", "m"),
]


@pytest.mark.parametrize("make, text, field", VALUE_TYPES,
                         ids=[text.split("(")[0] for _, text, _ in VALUE_TYPES])
def test_value_types_keep_their_semantics(make, text, field):
    value, twin = make(), make()
    assert repr(value) == str(value) == text
    assert value == twin and value is not twin
    assert pickle.loads(pickle.dumps(value)) == value
    assert hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        value.extra = 1


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
    # spaces around items and vertices are stripped
    assert edges_from_text("0 - 1, 1 -2") == {Edge(0, 1), Edge(1, 2)}


def test_edge_text_rejects_malformed():
    with pytest.raises(InputError):
        edge_from_text("3")
    with pytest.raises(InputError):
        edge_from_text("a-b")
    with pytest.raises(InputError):
        edges_from_text("")
    # a repeated edge is named as first written again, not folded away
    with pytest.raises(InputError, match="^repeated edge 1-0$"):
        edges_from_text("0-1,1-0,1-2")
    with pytest.raises(InputError, match="^repeated edge 0-1$"):
        edges_from_text("0-1, 0-1")


# A blank item reads as an empty one: both are skipped.
@pytest.mark.parametrize("text", ["0-1,,1-2", "0-1, ,1-2", "0-1,1-2,\t", " , 0-1, ,1-2 , ,"])
def test_edge_list_skips_blank_items(text):
    assert edges_from_text(text) == {Edge(0, 1), Edge(1, 2)}


@pytest.mark.parametrize("text", ["", " ", ",", " , ", ", ,", ",\t,"])
def test_edge_list_of_blank_items_is_empty(text):
    with pytest.raises(InputError, match="^empty edge list$"):
        edges_from_text(text)


# `int` takes each of these vertex texts but the last: a non-ASCII digit, a
# sign, an underscore between digits.  It refuses a vertex of more digits
# than `sys.get_int_max_str_digits()` (4300 by default) with a ValueError.
@pytest.mark.parametrize("text", ["1-\u0662", "\u0660-1", "0-+1", "0_1-2", "1_0-2",
                                  "0-1.0", "0-", "0-0x1",
                                  pytest.param("1-" + "1" * 5000, id="1-5000-digits"),
                                  pytest.param("1" * 5000 + "-" + "1" * 5000,
                                               id="5000-digits-twice")])
def test_edge_text_takes_only_ascii_digits(text):
    # The refusal echoes at most the text's first 40 characters.
    shown = f"{text[:40]!r}..." if len(text) > 40 else repr(text)
    with pytest.raises(InputError) as info:
        edge_from_text(text)
    assert str(info.value) == f"bad edge {shown}; vertices must be integers"
    assert len(str(info.value)) < 200


# A degenerate edge is refused as degenerate, not as a text error, and each
# vertex is echoed up to its first 40 digits.
@pytest.mark.parametrize("text, shown", [
    ("1-1", "[1,1]"), (" 3 - 03 ", "[3,3]"), ("0-0", "[0,0]"),
    pytest.param("1" * 4000 + "-" + "1" * 4000, f"[{'1' * 40}...,{'1' * 40}...]",
                 id="4000-digits-twice")])
def test_edge_text_refuses_a_degenerate_edge_as_degenerate(text, shown):
    with pytest.raises(InputError) as info:
        edge_from_text(text)
    assert str(info.value) == f"degenerate edge {shown}"
