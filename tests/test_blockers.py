from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import example, given
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
    CaterpillarReport,
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
from convex_blockers.matchings import first_avoiding_spm
from convex_blockers.oracle import (
    build_family_index,
    is_blocking_set,
    missed_spms,
)
from convex_blockers.render import RenderSpec, render_figure

FIGURE_BLOCKER = edges("0-1,1-2,2-3,2-5,2-7,1-10")


# ---------------------------------------------------------------------------
# spec validation and generation
# ---------------------------------------------------------------------------

SPEC_REFUSALS = [
    (BlockerSpec(12, 3, (1, 2, 4)), "start must be in 0..11, got 12"),
    (BlockerSpec(-1, 3, (1, 2, 4)), "start must be in 0..11, got -1"),
    (BlockerSpec(0, 1, (1, 2, 3, 4)), "spine length t must be in 2..6, got 1"),
    (BlockerSpec(0, 7, ()), "spine length t must be in 2..6, got 7"),
    (BlockerSpec(0, 3, (1, 2)), "expected 3 offsets for t=3, got 2"),
    (BlockerSpec(0, 3, (0, 1, 2)), "offsets must lie in 1..4, got (0, 1, 2)"),
    (BlockerSpec(0, 3, (1, 2, 5)), "offsets must lie in 1..4, got (1, 2, 5)"),
    (BlockerSpec(0, 3, (1, 2, 2)), "offsets must increase strictly, got (1, 2, 2)"),
    (BlockerSpec(0, 3, (1, 3, 2)), "offsets must increase strictly, got (1, 3, 2)"),
    (BlockerSpec(0, 2, [2, 1, 3, 4]),
     "offsets must increase strictly, got (2, 1, 3, 4)"),
]


def test_spec_validation_errors():
    # Each refusal's whole text, through `validate` and the generator.
    ctx = PolygonContext(6)
    for spec, message in SPEC_REFUSALS:
        for call in (spec.validate, lambda c: generate_blocker(c, spec)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                call(ctx)


@pytest.mark.parametrize("make", [
    lambda: (x for x in (1, 2, 4)),
    lambda: iter([1, 2, 4]),
    lambda: [1, 2, 4],
    lambda: type("Offsets", (tuple,), {})((1, 2, 4)),
], ids=["generator", "iterator", "list", "tuple-subclass"])
def test_spec_offsets_from_any_iterable_match_the_tuple_spec(make):
    # A one-shot iterator used to be drained by `validate`, so the generator
    # read it empty and returned the bare spine with `"eps":[]`.
    ctx = PolygonContext(6)
    twin = BlockerSpec(0, 3, (1, 2, 4))
    for spec in (BlockerSpec(0, 3, make()), BlockerSpec(0, 3, eps=make()),
                 BlockerSpec._make((0, 3, make())), twin._replace(eps=make())):
        assert type(spec.eps) is tuple
        assert spec == twin and hash(spec) == hash(twin)
        assert repr(spec) == "BlockerSpec(start=0, t=3, eps=(1, 2, 4))"
        assert generate_blocker(ctx, spec) == FIGURE_BLOCKER
        assert blocker_to_json(ctx, spec) == blocker_to_json(ctx, twin)
        assert blocker_to_json(ctx, spec)["eps"] == [1, 2, 4]


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


# A float start such as 1.0 hashes and compares equal to 1, so a table
# keyed by int pairs would hand back a blocker; a float t made `range` raise
# TypeError, and a bool start validated and wrote `"start":true` in JSON.
# Each is refused with the one message before any lookup.
@pytest.mark.parametrize("spec", [
    BlockerSpec(0, 2.0, (1,)),
    BlockerSpec(1.0, 2, (1,)),
    BlockerSpec(0, 2, (1.0,)),
    BlockerSpec("0", 2, (1,)),
    BlockerSpec(True, 2, ()),
    BlockerSpec(0, True, ()),
    BlockerSpec(0, 2, (True,)),
    BlockerSpec(0, 2, 5),
], ids=["float-t", "float-start", "float-offset", "text-start", "bool-start",
        "bool-t", "bool-offset", "int-offsets"])
def test_spec_refuses_non_integers(spec):
    ctx = PolygonContext(3)
    message = ("start, t and offsets must be integers, got "
               f"start={spec.start!r}, t={spec.t!r}, eps={spec.eps!r}")
    for call in (spec.validate, lambda c: generate_blocker(c, spec),
                 lambda c: blocker_to_json(c, spec)):
        with pytest.raises(InputError, match=re.escape(message)):
            call(ctx)


def _slow_generate_blocker(ctx, spec):
    """`generate_blocker` before the context's edge table: every edge is
    built and validated through `ctx.edge`."""
    spec.validate(ctx)
    s, t = spec.start, spec.t
    edges = [ctx.edge(s + i - 1, s + i) for i in range(1, t + 1)]
    for j, eps in enumerate(spec.eps, start=1):
        edges.append(ctx.edge(s + t + j - 1 - eps, s + t + j + eps))
    return frozenset(edges)


@pytest.mark.parametrize("m", range(2, 10))
def test_generate_agrees_with_the_slow_twin(m):
    ctx = PolygonContext(m)
    for spec in enumerate_blocker_specs(ctx):
        blocker = generate_blocker(ctx, spec)
        assert blocker == _slow_generate_blocker(ctx, spec)
        assert all(ctx.edge_of[e] is e for e in blocker)


def test_blocker_layer_builds_no_edge_once_the_table_exists(monkeypatch):
    inputs = [(PolygonContext(m), edges(text)) for m, text, _name in MUTANTS]
    inputs.append((PolygonContext(2), edges("0-1,2-3")))  # not a tree
    ctx = PolygonContext(7)
    for c in [ctx] + [c for c, _e in inputs]:
        c.edge_table  # builds every edge of this instance
    built = []
    new = Edge.__new__

    def counting(cls, a, b):
        built.append((a, b))
        return new(cls, a, b)

    monkeypatch.setattr(Edge, "__new__", counting)
    generated = [generate_blocker(ctx, spec) for spec in enumerate_blocker_specs(ctx)]
    assert enumerate_blockers(ctx) == generated
    inputs += [(ctx, blocker) for blocker in generated]
    for c, edge_set in inputs:
        validate_caterpillar(c, edge_set)
        parse_blocker(c, edge_set)
    assert built == []
    Edge(2, 1)
    assert built == [(2, 1)]


def test_structural_checks_keep_to_the_input_edges():
    # A refused set and any report at m = 300 make none of the context's
    # 179,700 edges; regenerating a parsed blocker makes only its own.
    ctx = PolygonContext(300)
    spine = [Edge(p, p + 1) for p in range(300)]  # a blocker with t = m
    report = validate_caterpillar(ctx, spine)
    assert report.ok and report.spine_length == 300
    assert all(e is f for e, f in zip(report.boundary_path, spine, strict=True))
    refused = spine[:-1] + [Edge(0, 2)]
    assert parse_blocker(ctx, refused).name == VIOLATION_EVEN_ORDER
    path = validate_caterpillar(ctx, refused).boundary_path
    assert all(e is f for e, f in zip(path, spine[:-1], strict=True))
    assert first_avoiding_spm(ctx, refused) is not None
    assert "edge_of" not in ctx.__dict__
    assert "edge_table" not in ctx.__dict__
    # The whole single-set path of `blocker check` and `render` on the spine.
    assert parse_blocker(ctx, spine) == BlockerSpec(0, 300)
    assert first_avoiding_spm(ctx, spine) is None
    assert generate_blocker(ctx, BlockerSpec(0, 300)) == frozenset(spine)
    assert len(ctx.edge_of) == 600
    assert "edge_table" not in ctx.__dict__
    assert "edge_rank" not in ctx.__dict__


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
    with pytest.raises(StructureError) as refused:
        parse_blocker(ctx, FIGURE_BLOCKER)
    assert str(refused.value) == ("parsed parameters BlockerSpec(start=0, t=3, "
                                  "eps=(1, 2, 4)) do not regenerate the edge set")


def test_parse_and_validate_reject_non_edge_members():
    mixed = [(0, 1), Edge(1, 2), Edge(2, 3)]
    with pytest.raises(InputError):
        parse_blocker(PolygonContext(3), mixed)
    with pytest.raises(InputError):
        validate_caterpillar(PolygonContext(3), mixed)


# Every entry that takes edges, called on a polygon and a member list.
EDGE_ENTRIES = {
    "parse_blocker": parse_blocker,
    "validate_caterpillar": validate_caterpillar,
    "first_avoiding_spm": first_avoiding_spm,
    "is_blocking_set": lambda ctx, members: is_blocking_set(
        build_family_index(ctx), members),
    "missed_spms": lambda ctx, members: missed_spms(build_family_index(ctx), members),
    "edge_index": lambda ctx, members: [ctx.edge_index(e) for e in members],
    "render_figure": lambda ctx, members: render_figure(
        RenderSpec(m=ctx.m, solid=tuple(members))),
}


@pytest.mark.parametrize("name", EDGE_ENTRIES)
@pytest.mark.parametrize("m, members, pair", [
    (3, [(0, 1), Edge(1, 2), Edge(2, 3)], (0, 1)),
    # The figure blocker with its leg 2-5 given as the equal plain pair.
    (6, [(2, 5), *(FIGURE_BLOCKER - {(2, 5)})], (2, 5)),
], ids=["mixed", "equal-to-member"])
def test_edge_entries_refuse_plain_pairs(name, m, members, pair):
    with pytest.raises(InputError, match=re.escape(f"expected an Edge, got {pair}")):
        EDGE_ENTRIES[name](PolygonContext(m), members)


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


def test_validate_flags_leg_at_spine_endpoint():
    report = validate_caterpillar(PolygonContext(6), edges("0-1,1-2,2-3,2-5,2-7,0-9"))
    names = {v.name for v in report.violations}
    assert VIOLATION_BAD_ATTACHMENT in names
    # the same edge set also reuses a parallel class ([2,7] and [0,9])
    assert VIOLATION_DUPLICATE_CLASS in names


def test_validate_flags_tied_legs():
    # Legs 1-8 and 3-6 are parallel, so their attachment gap ties with the
    # gap of their far endpoints: a leg-gap violation besides the class one.
    report = validate_caterpillar(PolygonContext(6), edges("0-1,1-2,2-3,3-4,1-8,3-6"))
    assert [(v.name, v.witness) for v in report.violations] == [
        (VIOLATION_DUPLICATE_CLASS, (Edge(1, 8), Edge(3, 6))),
        (VIOLATION_LEG_GAP, (Edge(1, 8), Edge(3, 6)))]


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
    assert repr(report).endswith(", violations=())")


@pytest.fixture
def check_edge_calls(monkeypatch):
    """The edges `PolygonContext.check_edge` is called on, in call order."""
    calls = []
    check_edge = PolygonContext.check_edge

    def counting(self, e):
        calls.append(e)
        return check_edge(self, e)

    monkeypatch.setattr(PolygonContext, "check_edge", counting)
    return calls


def test_scan_checks_each_edge_once(check_edge_calls):
    # One scan serves parse_blocker and then validate_caterpillar on the
    # same frozenset object: m check_edge calls in total, not 2m.  An equal
    # but distinct copy is scanned again, and each call alone on a fresh
    # set makes m calls.
    calls = check_edge_calls
    ctx11 = PolygonContext(11)
    cases = [(ctx11, generate_blocker(ctx11, BlockerSpec(5, 4, (1, 2, 3, 5, 6, 8, 9)))),
             (PolygonContext(2), edges("0-1,2-3"))]  # not a tree
    cases += [(PolygonContext(m), edges(text)) for m, text, _name in MUTANTS]
    for ctx, edge_set in cases:
        calls.clear()
        parse_blocker(ctx, edge_set)
        validate_caterpillar(ctx, edge_set)
        assert sorted(calls) == sorted(edge_set)
        copy = frozenset(list(edge_set))
        assert copy == edge_set and copy is not edge_set
        parse_blocker(ctx, copy)
        validate_caterpillar(ctx, copy)
        assert sorted(calls) == sorted([*edge_set, *edge_set])
        for check in (parse_blocker, validate_caterpillar):
            calls.clear()
            check(ctx, frozenset(list(edge_set)))
            assert sorted(calls) == sorted(edge_set), check.__name__


def test_a_changed_report_leaves_the_cached_scan_alone(check_edge_calls):
    # A report cannot be changed: its violations are the cached tuple.
    ctx = PolygonContext(6)
    for edge_set in (FIGURE_BLOCKER, edges("0-1,1-2,2-3,2-5,2-7,4-7")):
        parsed = parse_blocker(ctx, edge_set)
        report = validate_caterpillar(ctx, edge_set)
        kept = report.to_json()
        with pytest.raises(AttributeError):
            report.violations.append(StructuralViolation(VIOLATION_LEG_GAP))
        check_edge_calls.clear()
        assert parse_blocker(ctx, edge_set) == parsed
        again = validate_caterpillar(ctx, edge_set)
        assert check_edge_calls == []  # both came from the cached scan
        assert again == report and again.to_json() == report.to_json() == kept
        assert again == validate_caterpillar(ctx, frozenset(list(edge_set)))


def _outcome(check, ctx, edge_set):
    """What one call returns, or the type and text of the InputError it
    raises."""
    try:
        return check(ctx, edge_set)
    except InputError as exc:
        return InputError, str(exc)


@st.composite
def _scan_runs(draw):
    """A pool of m = 6 sets and a run of calls on it.  The pool holds two
    blockers, a one-edge swap and an equal copy of each, and the plain-pair
    twin of the first; each call names a check and a (context, set) target,
    or None to repeat the previous target.  Contexts 0 and 1 are equal
    objects for m = 6, context 2 is m = 7."""
    ctx = PolygonContext(6)
    specs = st.sampled_from(enumerate_blocker_specs(ctx))
    pool = []
    for spec in (draw(specs), draw(specs)):
        blocker = generate_blocker(ctx, spec)
        out = draw(st.sampled_from(sorted(blocker)))
        into = draw(st.sampled_from([e for e in ctx.edges() if e not in blocker]))
        pool += [blocker, (blocker - {out}) | {into}, frozenset(list(blocker))]
    pool.append(frozenset(tuple(e) for e in pool[0]))
    targets = st.none() | st.tuples(st.integers(0, 2), st.integers(0, len(pool) - 1))
    checks = st.sampled_from([parse_blocker, validate_caterpillar])
    return pool, draw(st.lists(st.tuples(checks, targets), min_size=1, max_size=40))


@given(_scan_runs())
def test_scan_runs_agree_with_fresh_copies(run):
    # The slow twin: every (check, context, set) result of a scan of fresh,
    # equal copies, taken before the run so that no call of the run can
    # find it in the cache.  Each report the run gets hashes like its twin.
    pool, steps = run
    contexts = [PolygonContext(6), PolygonContext(6), PolygonContext(7)]
    expected = {
        (check, i, j): _outcome(check, PolygonContext(ctx.m), frozenset(list(s)))
        for check in (parse_blocker, validate_caterpillar)
        for i, ctx in enumerate(contexts) for j, s in enumerate(pool)}
    target = (0, 0)
    for check, chosen in steps:
        target = chosen or target
        i, j = target
        got = _outcome(check, contexts[i], pool[j])
        assert got == expected[check, i, j]
        if isinstance(got, CaterpillarReport):
            assert hash(got) == hash(expected[check, i, j])


@st.composite
def _edge_sets(draw):
    m = draw(st.integers(1, 9))
    ctx = PolygonContext(m)
    chosen = draw(st.sets(st.sampled_from(list(ctx.edges()))))
    chosen |= draw(st.sets(st.sampled_from(ctx.boundary_edges())))
    if draw(st.booleans()):
        chosen.add(Edge(0, ctx.n - 1))  # the wrap edge
    return ctx, frozenset(chosen)


def _boundary_set(m, positions):
    ctx = PolygonContext(m)
    return ctx, frozenset(ctx.boundary_edge(p) for p in positions)


@given(_edge_sets())
@example(_boundary_set(3, range(6)))  # the full cycle
@example(_boundary_set(4, (1, 2, 5, 6)))  # two runs of length 2
@example(_boundary_set(4, (7, 0, 3, 4)))  # a tie with the wrapping run
def test_scan_agrees_with_the_validated_predicates(case):
    ctx, edge_set = case
    report = validate_caterpillar(ctx, edge_set)
    found = {}
    for v in report.violations:
        found.setdefault(v.name, []).append(v.witness)
    ordered = sorted(edge_set)
    assert found.get(VIOLATION_EVEN_ORDER, []) == [
        (e,) for e in ordered if edge_class(ctx, e) % 2 == 0]
    assert found.get(VIOLATION_CROSSING, []) == [
        (e, f) for e, f in itertools.combinations(ordered, 2) if edges_cross(ctx, e, f)]
    boundary_count = sum(1 for e in edge_set if is_boundary_edge(ctx, e))
    assert (VIOLATION_FEW_BOUNDARY in found) == (boundary_count < 2)
    path = report.boundary_path
    assert set(path) <= edge_set
    assert all(is_boundary_edge(ctx, e) for e in path)
    positions = [boundary_position(ctx, e) for e in path]
    assert all((p + 1) % ctx.n == q for p, q in zip(positions, positions[1:]))
    # The path is a longest cyclic run of boundary positions, a full cycle
    # included, and on a tie the one that starts at the smallest position.
    n = ctx.n
    present = {boundary_position(ctx, e) for e in edge_set if is_boundary_edge(ctx, e)}

    def run_from(p):
        length = 0
        while length < n and (p + length) % n in present:
            length += 1
        return length

    longest = max(run_from(p) for p in range(n))
    assert len(path) == report.spine_length == longest
    if path:
        assert positions[0] == min(p for p in range(n) if run_from(p) == longest)


def _slow_is_tree(edges) -> bool:
    """The adjacency walk `_is_tree` replaced: count the touched vertices,
    then walk from one of them and require every vertex seen."""
    if not edges:
        return False
    adjacency: dict[int, list[int]] = {}
    for e in edges:
        adjacency.setdefault(e.a, []).append(e.b)
        adjacency.setdefault(e.b, []).append(e.a)
    if len(edges) != len(adjacency) - 1:
        return False
    seen = set()
    stack = [next(iter(adjacency))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v])
    return len(seen) == len(adjacency)


@pytest.mark.parametrize("text, expected", [
    ("", False),
    ("0-1", True),
    ("0-1,1-2,2-3", True),
    ("0-1,0-3,0-5", True),
    ("0-1,1-2,0-2", False),
    ("0-1,1-2,2-3,0-3", False),
    ("0-1,2-3", False),
    ("0-1,1-2,1-4,3-5", False),
], ids=["empty", "one-edge", "path", "star", "triangle", "4-cycle",
        "two-disjoint", "tree-plus-edge"])
def test_is_tree_fixed_cases(text, expected):
    edge_set = edges(text) if text else frozenset()
    assert blockers._is_tree(edge_set) == _slow_is_tree(edge_set) == expected


@given(st.integers(1, 7).flatmap(
    lambda m: st.sets(st.sampled_from(list(PolygonContext(m).edges())))))
def test_is_tree_agrees_with_the_walk(chosen):
    assert blockers._is_tree(frozenset(chosen)) == _slow_is_tree(chosen)


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


@pytest.mark.parametrize("m", range(3, 9))
def test_restriction_maps_blockers_to_blockers(m):
    # Closure without the oracle: every admissible restriction of a
    # generated m-blocker is a generated (m-1)-blocker, and each of those
    # is the image of some m-blocker.
    ctx = PolygonContext(m)
    smaller = set(enumerate_blockers(PolygonContext(m - 1)))
    images = set()
    for blocker in enumerate_blockers(ctx):
        for e, f in _admissible_pairs(ctx, blocker):
            sub_ctx, sub = restrict_blocker(ctx, blocker, e, f)
            assert sub_ctx.m == m - 1
            assert sub in smaller, (sorted(blocker), e, f)
            images.add(sub)
    assert images == smaller


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


def test_boundary_checks_name_the_edge():
    ctx = PolygonContext(3)
    message = "^1-4 is not a boundary edge$"
    with pytest.raises(InputError, match=message):
        classify_boundary_set(ctx, [Edge(1, 4)])
    blocker = edges("0-1,1-2,1-4")
    with pytest.raises(InputError, match=message):
        restrict_blocker(ctx, blocker, Edge(1, 4), Edge(2, 3))
    with pytest.raises(InputError, match=message):
        restrict_blocker(ctx, blocker, Edge(0, 1), Edge(1, 4))


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
