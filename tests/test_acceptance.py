"""Acceptance suite: every exit criterion, exact tolerances, one printed
pass/fail line per criterion (run with `pytest -s tests/test_acceptance.py`
to see the lines as they pass)."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from conftest import BoundaryCase, classify_boundary_set, edges
from convex_blockers.blockers import (
    VIOLATION_BAD_ATTACHMENT,
    VIOLATION_CROSSING,
    VIOLATION_DUPLICATE_CLASS,
    VIOLATION_EVEN_ORDER,
    VIOLATION_FEW_BOUNDARY,
    VIOLATION_LEG_GAP,
    VIOLATION_NOT_CONSECUTIVE,
    BlockerSpec,
    StructuralViolation,
    enumerate_blockers,
    generate_blocker,
    parse_blocker,
    restrict_blocker,
    validate_caterpillar,
)
from convex_blockers.geometry import (
    PolygonContext,
    boundary_position,
    edge_class,
    edges_cross,
    is_boundary_edge,
)
from convex_blockers.matchings import enumerate_spms, triangular_spm, TriangularSpec
from convex_blockers.oracle import (
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    build_family_index,
    find_minimum_blockers,
    is_blocking_set,
)
from convex_blockers.render import RenderSpec, render_figure

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, f"criterion {number} failed: {description} {detail}".rstrip()


@pytest.fixture(scope="module")
def contexts():
    return {m: PolygonContext(m) for m in range(1, 8)}


@pytest.fixture(scope="module")
def indexes(contexts):
    return {m: build_family_index(contexts[m]) for m in range(1, 7)}


@pytest.fixture(scope="module")
def generated(contexts):
    return {m: enumerate_blockers(contexts[m]) for m in range(2, 7)}


@pytest.fixture(scope="module")
def pruned_results(indexes):
    return {m: find_minimum_blockers(indexes[m], MODE_CLASS_PRUNED)
            for m in range(2, 7)}


@pytest.fixture(scope="module")
def naive_results(indexes):
    return {m: find_minimum_blockers(indexes[m], MODE_NAIVE)
            for m in range(2, 6)}


def test_criterion_1_blocker_counts(generated):
    expected = {2: 4, 3: 12, 4: 32, 5: 80, 6: 192}
    ok = all(
        len(generated[m]) == expected[m] == m * 2 ** (m - 1)
        and len(set(generated[m])) == expected[m]
        for m in range(2, 7))
    _report(1, "enumerate_blockers yields exactly m*2^(m-1) distinct sets "
               "for m=2..6", ok)


def test_criterion_2_theorem_set_equality(generated, pruned_results, naive_results):
    ok = True
    detail = []
    for m in range(2, 7):
        if set(pruned_results[m].minimum_sets) != set(generated[m]):
            ok = False
            detail.append(f"pruned != generated at m={m}")
    for m in range(2, 6):
        if set(naive_results[m].minimum_sets) != set(generated[m]):
            ok = False
            detail.append(f"naive != generated at m={m}")
    _report(2, "independent searches find exactly the generated blockers "
               "(pruned m=2..6, naive m=2..5)", ok, "; ".join(detail))


def test_criterion_3_lower_bound(naive_results):
    ok = all(naive_results[m].minimum_size == m for m in range(2, 6))
    _report(3, "exhaustive search finds no blocking set of size m-1 for "
               "m=2..5", ok)


def test_criterion_4_spm_counts(contexts):
    expected = [1, 2, 5, 14, 42, 132, 429]
    counts = [len(enumerate_spms(contexts[m])) for m in range(1, 8)]
    _report(4, "matching counts for m=1..7 are 1, 2, 5, 14, 42, 132, 429",
            counts == expected, f"got {counts}")


def test_criterion_5_reference_fixtures(contexts, indexes):
    ctx6 = contexts[6]
    blocker_ok = (generate_blocker(ctx6, BlockerSpec(0, 3, (1, 2, 4)))
                  == edges("0-1,1-2,2-3,2-5,2-7,1-10"))
    spec = TriangularSpec.from_positions(ctx6, 3, 8, 11)
    triangle_ok = (
        (spec.a, spec.b, spec.c) == (3, 2, 1)
        and triangular_spm(ctx6, 3, 8, 11) == edges("0-5,1-4,2-3,6-9,7-8,10-11"))
    pair = edges("0-1,4-5")
    missed = [s for s in enumerate_spms(contexts[3]) if s.isdisjoint(pair)]
    counterexample_ok = (not is_blocking_set(indexes[3], pair)
                         and edges("1-2,3-4,5-0") in missed)
    _report(5, "reference fixtures reproduce exactly (blocker (0,3,(1,2,4)), "
               "triangular (3,8,11), non-blocking pair at m=3)",
            blocker_ok and triangle_ok and counterexample_ok)


MUTANTS = [
    (6, "0-1,1-2,2-3,2-5,2-7,1-11", VIOLATION_EVEN_ORDER),
    (6, "0-1,1-2,2-3,2-5,3-10,1-10", VIOLATION_DUPLICATE_CLASS),
    (6, "0-1,6-9,1-4,1-6,1-8,1-10", VIOLATION_FEW_BOUNDARY),
    (3, "0-1,2-3,4-5", VIOLATION_NOT_CONSECUTIVE),
    (6, "0-1,1-2,2-3,2-5,2-7,4-7", VIOLATION_CROSSING),
    (4, "0-1,1-2,0-5,2-5", VIOLATION_BAD_ATTACHMENT),
    (6, "0-1,1-2,2-3,3-4,1-8,3-8", VIOLATION_LEG_GAP),
]


def test_criterion_6_structural_suite(contexts, generated, indexes):
    ok = True
    detail = []
    for m in range(2, 7):
        ctx = contexts[m]
        for blocker in generated[m]:
            report = validate_caterpillar(ctx, blocker)
            boundary = sum(1 for e in blocker if is_boundary_edge(ctx, e))
            structural = (
                report.ok
                and report.is_tree
                and 2 <= report.spine_length == boundary <= m
                and sorted(edge_class(ctx, e) for e in blocker)
                == list(range(1, ctx.n, 2))
                and not any(edges_cross(ctx, e, f)
                            for e, f in itertools.combinations(blocker, 2))
                and is_blocking_set(indexes[m], blocker))
            if not structural:
                ok = False
                detail.append(f"structural failure at m={m}: {sorted(blocker)}")
                break
    for m, text, expected in MUTANTS:
        result = parse_blocker(contexts[m], edges(text))
        if not (isinstance(result, StructuralViolation) and result.name == expected):
            ok = False
            detail.append(f"mutant {text} wanted {expected}, got {result}")
    _report(6, "every generated blocker passes the full structural suite and "
               "every seeded mutant is rejected by name (m<=6)",
            ok, "; ".join(detail))


def test_criterion_7_trichotomy(contexts, generated):
    ok = True
    for m in range(2, 6):
        ctx = contexts[m]
        boundary = ctx.boundary_edges()
        for r in range(1, ctx.n + 1):
            for subset in itertools.combinations(boundary, r):
                if not classify_boundary_set(ctx, subset):
                    ok = False
        for blocker in generated[m]:
            cases = classify_boundary_set(
                ctx, [e for e in blocker if is_boundary_edge(ctx, e)])
            if (BoundaryCase.HALF_BOUNDARY not in cases
                    or BoundaryCase.OPPOSITE_PAIR in cases):
                ok = False
    _report(7, "every nonempty boundary subset lands in a case (exhaustive "
               "m<=5) and blocker boundaries are half-boundary, never "
               "opposite", ok)


def test_criterion_8_restriction(contexts, generated, indexes):
    ok = True
    detail = []
    for m in range(3, 7):
        ctx = contexts[m]
        sub_index = indexes[m - 1]
        for blocker in generated[m]:
            for e in sorted(blocker):
                if not is_boundary_edge(ctx, e):
                    continue
                f = ctx.boundary_edge(boundary_position(ctx, e) + 1)
                if f in blocker:
                    continue
                _sub_ctx, sub = restrict_blocker(ctx, blocker, e, f)
                if not is_blocking_set(sub_index, sub):
                    ok = False
                    detail.append(f"m={m} blocker {sorted(blocker)}")
    _report(8, "every admissible restriction of every blocker blocks the "
               "polygon on 2m-2 vertices (m=3..6)", ok, "; ".join(detail))


def test_criterion_9_rendering_determinism():
    ctx = PolygonContext(6)
    blocker = generate_blocker(ctx, BlockerSpec(0, 3, (1, 2, 4)))
    matching = triangular_spm(ctx, 3, 8, 11)
    marked = edges("2-3,7-8,10-11")
    specs = {
        "blocker_m6_t3.svg": RenderSpec(m=6, solid=tuple(blocker)),
        "triangular_m6.svg": RenderSpec(m=6, solid=tuple(matching)),
        "triangular_m6_marked.svg": RenderSpec(
            m=6, solid=tuple(matching), thick=tuple(marked)),
    }
    ok = True
    for name, spec in specs.items():
        first = render_figure(spec).encode()
        second = render_figure(spec).encode()
        golden = (GOLDEN / name).read_bytes()
        if not (first == second == golden):
            ok = False
    _report(9, "the three reference figures render byte-identically across "
               "runs and match their golden files", ok)
