from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import edges
from convex_blockers import blockers
from convex_blockers.blockers import (
    VIOLATION_BAD_ATTACHMENT,
    VIOLATION_CROSSING,
    VIOLATION_DUPLICATE_CLASS,
    VIOLATION_EVEN_ORDER,
    VIOLATION_FEW_BOUNDARY,
    VIOLATION_LEG_GAP,
    VIOLATION_NOT_A_TREE,
    VIOLATION_NOT_CONSECUTIVE,
    BlockerSpec,
    BoundaryCase,
    StructuralViolation,
    blocker_to_json,
    classify_boundary_set,
    count_blockers,
    count_blockers_by_spine,
    enumerate_blocker_specs,
    enumerate_blockers,
    generate_blocker,
    parse_blocker,
    restrict_blocker,
    validate_caterpillar,
)
from convex_blockers.errors import InputError, StructureError
from convex_blockers.geometry import (
    Edge,
    PolygonContext,
    boundary_position,
    edge_class,
    edges_cross,
    is_boundary_edge,
)
from convex_blockers.oracle import build_family_index, is_blocking_set

FIGURE_BLOCKER = edges("0-1,1-2,2-3,2-5,2-7,1-10")


# ---------------------------------------------------------------------------
# spec validation and generation
# ---------------------------------------------------------------------------

def test_spec_validation_errors():
    ctx = PolygonContext(6)
    with pytest.raises(InputError):
        BlockerSpec(12, 3, (1, 2, 4)).validate(ctx)
    with pytest.raises(InputError):
        BlockerSpec(0, 1, (1, 2, 3, 4)).validate(ctx)
    with pytest.raises(InputError):
        BlockerSpec(0, 7, ()).validate(ctx)
    with pytest.raises(InputError):
        BlockerSpec(0, 3, (1, 2)).validate(ctx)  # wrong offset count
    with pytest.raises(InputError):
        BlockerSpec(0, 3, (0, 1, 2)).validate(ctx)  # below 1
    with pytest.raises(InputError):
        BlockerSpec(0, 3, (1, 2, 5)).validate(ctx)  # above m-2
    with pytest.raises(InputError):
        BlockerSpec(0, 3, (1, 2, 2)).validate(ctx)  # not strictly increasing


def test_generate_examples():
    ctx6 = PolygonContext(6)
    assert generate_blocker(ctx6, BlockerSpec(0, 3, (1, 2, 4))) == FIGURE_BLOCKER
    assert generate_blocker(ctx6, BlockerSpec(0, 6, ())) == edges(
        "0-1,1-2,2-3,3-4,4-5,5-6")
    assert generate_blocker(PolygonContext(3), BlockerSpec(0, 2, (1,))) == edges(
        "0-1,1-2,1-4")


def test_generate_rejects_m1():
    with pytest.raises(InputError):
        generate_blocker(PolygonContext(1), BlockerSpec(0, 1, ()))


@pytest.mark.parametrize("m", range(2, 7))
def test_generated_blockers_structure(m):
    ctx = PolygonContext(m)
    for spec in enumerate_blocker_specs(ctx):
        blocker = generate_blocker(ctx, spec)
        assert len(blocker) == m
        # one edge in each odd parallel class
        classes = sorted(edge_class(ctx, e) for e in blocker)
        assert classes == list(range(1, ctx.n, 2))
        # crossing-free
        assert not any(edges_cross(ctx, e, f)
                       for e, f in itertools.combinations(blocker, 2))
        # the vertex right before the spine start stays untouched
        untouched = (spec.start - 1) % ctx.n
        assert not any(e.touches(untouched) for e in blocker)
        # spine length is exactly t
        assert sum(1 for e in blocker if is_boundary_edge(ctx, e)) == spec.t
        assert validate_caterpillar(ctx, blocker).ok


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------

def test_enumerate_m2_exactly():
    assert enumerate_blockers(PolygonContext(2)) == [
        edges("0-1,1-2"), edges("1-2,2-3"), edges("2-3,3-0"), edges("3-0,0-1")]


@pytest.mark.parametrize("m", range(2, 8))
def test_enumerate_count_and_distinctness(m):
    blockers = enumerate_blockers(PolygonContext(m))
    assert len(blockers) == count_blockers(m) == m * 2 ** (m - 1)
    assert len(set(blockers)) == len(blockers)


def test_enumerate_sixteen_per_start_at_m6():
    ctx = PolygonContext(6)
    specs = enumerate_blocker_specs(ctx)
    for start in range(12):
        assert sum(1 for s in specs if s.start == start) == 16


def test_enumerate_rejects_m1():
    with pytest.raises(InputError):
        enumerate_blockers(PolygonContext(1))


@pytest.mark.parametrize("m", range(2, 7))
def test_odd_star_and_half_boundary_generated_at_every_start(m):
    ctx = PolygonContext(m)
    blockers = set(enumerate_blockers(ctx))
    for start in range(ctx.n):
        half_boundary = frozenset(ctx.boundary_edge(start + i) for i in range(m))
        odd_star = frozenset(ctx.edge(start + 1, start + 1 + k)
                             for k in range(1, ctx.n, 2))
        assert half_boundary in blockers
        assert odd_star in blockers


def test_count_blockers_values():
    assert count_blockers(2) == 4
    assert count_blockers(3) == 12
    assert count_blockers(6) == 192
    assert count_blockers(20) == 10485760
    with pytest.raises(InputError):
        count_blockers(1)


def test_count_by_spine_values():
    assert count_blockers_by_spine(6, 2) == 1
    assert count_blockers_by_spine(6, 3) == 4
    assert count_blockers_by_spine(6, 6) == 1
    assert sum(count_blockers_by_spine(6, t) for t in range(2, 7)) == 16
    with pytest.raises(InputError):
        count_blockers_by_spine(6, 1)
    with pytest.raises(InputError):
        count_blockers_by_spine(6, 7)


@pytest.mark.parametrize("m", range(2, 11))
def test_count_identities(m):
    per_start = sum(count_blockers_by_spine(m, t) for t in range(2, m + 1))
    assert per_start == 2 ** (m - 2)
    assert 2 * m * per_start == count_blockers(m)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_examples():
    ctx6 = PolygonContext(6)
    assert parse_blocker(ctx6, FIGURE_BLOCKER) == BlockerSpec(0, 3, (1, 2, 4))
    assert parse_blocker(ctx6, edges("0-1,1-2,2-3,3-4,4-5,5-6")) == BlockerSpec(0, 6, ())
    failure = parse_blocker(PolygonContext(3), edges("0-1,2-3,4-5"))
    assert isinstance(failure, StructuralViolation)
    assert failure.name == VIOLATION_NOT_CONSECUTIVE


def test_parse_refuses_a_spec_that_does_not_regenerate_the_set(monkeypatch):
    ctx = PolygonContext(6)
    monkeypatch.setattr(blockers, "generate_blocker",
                        lambda ctx, spec: frozenset())
    with pytest.raises(StructureError):
        parse_blocker(ctx, FIGURE_BLOCKER)


def test_parse_and_validate_reject_non_edge_members():
    mixed = [(0, 1), Edge(1, 2), Edge(2, 3)]
    with pytest.raises(InputError):
        parse_blocker(PolygonContext(3), mixed)
    with pytest.raises(InputError):
        validate_caterpillar(PolygonContext(3), mixed)


def test_parse_wrong_cardinality_is_an_input_error():
    with pytest.raises(InputError):
        parse_blocker(PolygonContext(3), edges("0-1,1-2"))
    with pytest.raises(InputError):
        parse_blocker(PolygonContext(1), edges("0-1"))


@pytest.mark.parametrize("m", range(2, 8))
def test_parse_round_trip_exhaustive(m):
    ctx = PolygonContext(m)
    for spec in enumerate_blocker_specs(ctx):
        assert parse_blocker(ctx, generate_blocker(ctx, spec)) == spec


@st.composite
def _specs(draw):
    m = draw(st.integers(2, 12))
    t = draw(st.integers(2, m))
    pool = st.integers(1, max(m - 2, 1))
    eps = tuple(sorted(draw(st.sets(pool, min_size=m - t, max_size=m - t))))
    start = draw(st.integers(0, 2 * m - 1))
    return m, BlockerSpec(start, t, eps)


@given(_specs())
def test_parse_round_trip_random(case):
    m, spec = case
    ctx = PolygonContext(m)
    assert parse_blocker(ctx, generate_blocker(ctx, spec)) == spec


# one seeded mutant per violation class; each is the *first* check to fail
MUTANTS = [
    (6, "0-1,1-2,2-3,2-5,2-7,1-11", VIOLATION_EVEN_ORDER),
    (6, "0-1,1-2,2-3,2-5,3-10,1-10", VIOLATION_DUPLICATE_CLASS),
    (6, "0-1,6-9,1-4,1-6,1-8,1-10", VIOLATION_FEW_BOUNDARY),
    (3, "0-1,2-3,4-5", VIOLATION_NOT_CONSECUTIVE),
    (6, "0-1,1-2,2-3,2-5,2-7,4-7", VIOLATION_CROSSING),
    (4, "0-1,1-2,0-5,2-5", VIOLATION_BAD_ATTACHMENT),
    (6, "0-1,1-2,2-3,3-4,1-8,3-8", VIOLATION_LEG_GAP),
]


@pytest.mark.parametrize("m,text,expected", MUTANTS)
def test_parse_rejects_each_mutant_with_named_violation(m, text, expected):
    ctx = PolygonContext(m)
    mutant = edges(text)
    result = parse_blocker(ctx, mutant)
    assert isinstance(result, StructuralViolation)
    assert result.name == expected
    report = validate_caterpillar(ctx, mutant)
    assert expected in {v.name for v in report.violations}
    # a rejected shape really is not a blocking set
    assert not is_blocking_set(build_family_index(ctx), mutant)
    assert mutant not in set(enumerate_blockers(ctx))


def test_violation_json_shape():
    failure = parse_blocker(PolygonContext(3), edges("0-1,2-3,4-5"))
    payload = failure.to_json()
    assert payload["violation"] == VIOLATION_NOT_CONSECUTIVE
    assert payload["witness"] == [[0, 1], [2, 3], [4, 5]]


def test_blocker_json_shape():
    ctx = PolygonContext(6)
    payload = blocker_to_json(ctx, BlockerSpec(0, 3, (1, 2, 4)))
    assert payload == {
        "m": 6,
        "start": 0,
        "t": 3,
        "eps": [1, 2, 4],
        "edges": [[0, 1], [1, 2], [1, 10], [2, 3], [2, 5], [2, 7]],
    }


# ---------------------------------------------------------------------------
# caterpillar report
# ---------------------------------------------------------------------------

def test_validate_accepts_figure_blocker():
    report = validate_caterpillar(PolygonContext(6), FIGURE_BLOCKER)
    assert report.ok
    assert report.is_tree
    assert report.spine_length == 3
    assert report.boundary_path == (Edge(0, 1), Edge(1, 2), Edge(2, 3))
    assert report.leg_attachments == {
        1: (Edge(1, 10),),
        2: (Edge(2, 5), Edge(2, 7)),
    }


def test_validate_flags_leg_at_spine_endpoint():
    report = validate_caterpillar(PolygonContext(6), edges("0-1,1-2,2-3,2-5,2-7,0-9"))
    names = {v.name for v in report.violations}
    assert VIOLATION_BAD_ATTACHMENT in names
    # the same edge set also reuses a parallel class ([2,7] and [0,9])
    assert VIOLATION_DUPLICATE_CLASS in names


def test_validate_flags_disconnected_pair():
    report = validate_caterpillar(PolygonContext(2), edges("0-1,2-3"))
    names = {v.name for v in report.violations}
    assert VIOLATION_NOT_A_TREE in names
    assert VIOLATION_NOT_CONSECUTIVE in names
    assert not report.is_tree


def test_validate_report_json():
    report = validate_caterpillar(PolygonContext(6), FIGURE_BLOCKER)
    payload = report.to_json()
    assert payload["is_tree"] is True
    assert payload["spine_length"] == 3
    assert payload["violations"] == []


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_path_example():
    sub_ctx, sub = restrict_blocker(PolygonContext(3), edges("0-1,1-2,2-3"),
                                    Edge(2, 3), Edge(3, 4))
    assert sub_ctx.m == 2
    assert sub == edges("0-1,1-2")


def test_restrict_down_to_single_edge():
    sub_ctx, sub = restrict_blocker(PolygonContext(2), edges("0-1,1-2"),
                                    Edge(1, 2), Edge(2, 3))
    assert sub_ctx.m == 1
    assert sub == edges("0-1")


def test_restrict_requires_f_right_after_e():
    ctx = PolygonContext(2)
    blocker = edges("0-1,1-2")
    with pytest.raises(InputError):
        restrict_blocker(ctx, blocker, Edge(0, 1), Edge(0, 3))  # f precedes e


def test_restrict_precondition_errors():
    ctx = PolygonContext(3)
    blocker = edges("0-1,1-2,1-4")
    with pytest.raises(InputError):
        restrict_blocker(ctx, blocker, Edge(1, 4), Edge(2, 3))  # e not boundary
    with pytest.raises(InputError):
        restrict_blocker(ctx, blocker, Edge(0, 1), Edge(1, 2))  # f in the set
    with pytest.raises(InputError):
        restrict_blocker(ctx, blocker, Edge(2, 3), Edge(3, 4))  # e not in the set


def test_restrict_structure_error_on_edge_at_deleted_vertex():
    ctx = PolygonContext(3)
    with pytest.raises(StructureError):
        restrict_blocker(ctx, edges("0-1,1-2,3-5"), Edge(1, 2), Edge(2, 3))


def test_restrict_star_keeps_blocking():
    ctx = PolygonContext(3)
    sub_ctx, sub = restrict_blocker(ctx, edges("0-1,1-2,1-4"), Edge(1, 2), Edge(2, 3))
    assert sub_ctx.m == 2
    assert sub == edges("0-1,1-2")
    assert is_blocking_set(build_family_index(sub_ctx), sub)


def _admissible_pairs(ctx, blocker):
    for e in sorted(blocker):
        if not is_boundary_edge(ctx, e):
            continue
        f = ctx.boundary_edge(boundary_position(ctx, e) + 1)
        if f not in blocker:
            yield e, f


@pytest.mark.parametrize("m", range(3, 6))
def test_restriction_of_every_blocker_blocks_smaller_polygon(m):
    ctx = PolygonContext(m)
    sub_index = build_family_index(PolygonContext(m - 1))
    for blocker in enumerate_blockers(ctx):
        pairs = list(_admissible_pairs(ctx, blocker))
        assert pairs, "every blocker has a boundary edge followed by a gap"
        for e, f in pairs:
            sub_ctx, sub = restrict_blocker(ctx, blocker, e, f)
            assert len(sub) == m - 1
            assert is_blocking_set(sub_index, sub)


# ---------------------------------------------------------------------------
# boundary-set trichotomy
# ---------------------------------------------------------------------------

def test_classify_examples():
    ctx6 = PolygonContext(6)
    assert classify_boundary_set(ctx6, edges("0-1,6-7")) == {BoundaryCase.OPPOSITE_PAIR}
    triple = classify_boundary_set(ctx6, edges("2-3,7-8,10-11"))
    assert BoundaryCase.TRIANGULAR_TRIPLE in triple
    assert classify_boundary_set(PolygonContext(3), edges("0-1,2-3")) == {
        BoundaryCase.HALF_BOUNDARY}


def test_classify_input_errors():
    ctx = PolygonContext(3)
    with pytest.raises(InputError):
        classify_boundary_set(ctx, [])
    with pytest.raises(InputError):
        classify_boundary_set(ctx, edges("0-2"))


@pytest.mark.parametrize("m", range(2, 5))
def test_classify_every_nonempty_subset_gets_a_case(m):
    ctx = PolygonContext(m)
    boundary = ctx.boundary_edges()
    for r in range(1, ctx.n + 1):
        for subset in itertools.combinations(boundary, r):
            assert classify_boundary_set(ctx, subset)


@pytest.mark.parametrize("m", range(2, 7))
def test_classify_blocker_boundaries(m):
    ctx = PolygonContext(m)
    for blocker in enumerate_blockers(ctx):
        boundary = [e for e in blocker if is_boundary_edge(ctx, e)]
        cases = classify_boundary_set(ctx, boundary)
        assert BoundaryCase.HALF_BOUNDARY in cases
        assert BoundaryCase.OPPOSITE_PAIR not in cases
