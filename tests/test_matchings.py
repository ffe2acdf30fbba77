from __future__ import annotations

import itertools

import pytest

from conftest import edges
from convex_blockers.errors import InfeasibilityError, InputError, ResourceLimitError
from convex_blockers.geometry import Edge, PolygonContext, are_parallel, edge_order, is_boundary_edge
from convex_blockers.matchings import (
    TriangularSpec,
    catalan_number,
    enumerate_spms,
    is_spm,
    parallel_spm,
    triangular_spm,
    triangular_spm_from_blocks,
)

# Catalan numbers 0..8, frozen from the convolution recurrence below.
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def _catalan_by_recurrence(n: int) -> int:
    values = [1]
    for size in range(1, n + 1):
        values.append(sum(values[i] * values[size - 1 - i] for i in range(size)))
    return values[n]


def _pairs_cross(p: tuple[int, int], q: tuple[int, int]) -> bool:
    (a, b), (c, d) = sorted(p), sorted(q)
    return a < c < b < d or c < a < d < b


def _spms_by_bruteforce(m: int) -> set[frozenset[Edge]]:
    """All pairings of 0..2m-1, filtered by a local crossing test."""

    def pairings(items: tuple[int, ...]):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for i, other in enumerate(rest):
            for sub in pairings(rest[:i] + rest[i + 1:]):
                yield ((first, other),) + sub

    out = set()
    for pairing in pairings(tuple(range(2 * m))):
        if not any(_pairs_cross(p, q)
                   for p, q in itertools.combinations(pairing, 2)):
            out.add(frozenset(Edge(*p) for p in pairing))
    return out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_catalan_number_matches_recurrence_and_frozen_values():
    for n, expected in enumerate(CATALAN):
        assert _catalan_by_recurrence(n) == expected
        assert catalan_number(n) == expected
    with pytest.raises(InputError):
        catalan_number(-1)


@pytest.mark.parametrize("m", range(1, 9))
def test_enumerate_counts_are_catalan(m):
    assert len(enumerate_spms(PolygonContext(m))) == CATALAN[m]


def test_enumerate_smallest_cases_exactly():
    assert enumerate_spms(PolygonContext(1)) == [edges("0-1")]
    assert enumerate_spms(PolygonContext(2)) == [edges("0-1,2-3"), edges("0-3,1-2")]


@pytest.mark.parametrize("m", range(2, 6))
def test_enumerate_matches_bruteforce_pairings(m):
    assert set(enumerate_spms(PolygonContext(m))) == _spms_by_bruteforce(m)


def test_enumerate_contains_triangular_example():
    spms = enumerate_spms(PolygonContext(6))
    assert len(spms) == 132
    assert edges("0-5,1-4,2-3,6-9,7-8,10-11") in spms


@pytest.mark.parametrize("m", range(1, 10))
def test_enumerate_is_sorted_valid_and_distinct(m):
    ctx = PolygonContext(m)
    spms = enumerate_spms(ctx)
    keys = [tuple((e.a, e.b) for e in sorted(s)) for s in spms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for s in spms:
        assert is_spm(ctx, s)


@pytest.mark.parametrize("m", range(1, 8))
def test_every_spm_edge_has_odd_order(m):
    ctx = PolygonContext(m)
    for s in enumerate_spms(ctx):
        for e in s:
            assert edge_order(ctx, e) % 2 == 1


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_spms(PolygonContext(13))
    with pytest.raises(ResourceLimitError):
        enumerate_spms(PolygonContext(5), max_m=4)
    assert len(enumerate_spms(PolygonContext(5), max_m=5)) == 42


# ---------------------------------------------------------------------------
# is_spm
# ---------------------------------------------------------------------------

def test_is_spm_examples():
    ctx2 = PolygonContext(2)
    assert is_spm(ctx2, edges("0-1,2-3"))
    assert not is_spm(ctx2, edges("0-2,1-3"))
    assert is_spm(PolygonContext(6), edges("0-5,1-4,2-3,6-9,7-8,10-11"))


def test_is_spm_rejects_malformed_sets():
    ctx = PolygonContext(2)
    assert not is_spm(ctx, edges("0-1"))
    assert not is_spm(ctx, edges("0-1,1-2"))
    assert not is_spm(ctx, edges("0-1,2-5"))


# ---------------------------------------------------------------------------
# parallel matchings
# ---------------------------------------------------------------------------

def test_parallel_spm_examples():
    assert parallel_spm(PolygonContext(2), 1) == edges("0-1,2-3")
    assert parallel_spm(PolygonContext(6), 1) == edges("0-1,6-7,2-11,3-10,4-9,5-8")
    assert parallel_spm(PolygonContext(3), 2) == edges("1-2,4-5,0-3")


def test_parallel_spm_range_errors():
    with pytest.raises(InputError):
        parallel_spm(PolygonContext(3), 0)
    with pytest.raises(InputError):
        parallel_spm(PolygonContext(3), 4)


@pytest.mark.parametrize("m", range(1, 9))
def test_parallel_spms_are_valid_disjoint_and_parallel(m):
    ctx = PolygonContext(m)
    family = [parallel_spm(ctx, l) for l in range(1, m + 1)]
    for matching in family:
        assert is_spm(ctx, matching)
        for e, f in itertools.combinations(matching, 2):
            assert are_parallel(ctx, e, f)
    for a, b in itertools.combinations(family, 2):
        assert not a & b


# ---------------------------------------------------------------------------
# triangular matchings
# ---------------------------------------------------------------------------

def test_triangular_spm_example():
    ctx = PolygonContext(6)
    spec = TriangularSpec.from_positions(ctx, 3, 8, 11)
    assert (spec.p, spec.q, spec.r) == (5, 3, 4)
    assert (spec.a, spec.b, spec.c) == (3, 2, 1)
    assert triangular_spm(ctx, 3, 8, 11) == edges("0-5,1-4,2-3,6-9,7-8,10-11")


def test_triangular_spm_symmetric_case():
    assert triangular_spm(PolygonContext(3), 2, 4, 6) == edges("1-2,3-4,0-5")


def test_triangular_spm_infeasible_distances():
    with pytest.raises(InfeasibilityError):
        triangular_spm(PolygonContext(6), 1, 2, 9)  # q = 7 >= m


def test_triangular_spm_input_errors():
    ctx = PolygonContext(6)
    with pytest.raises(InputError):
        triangular_spm(ctx, 0, 4, 8)
    with pytest.raises(InputError):
        triangular_spm(ctx, 4, 4, 8)
    with pytest.raises(InputError):
        triangular_spm(ctx, 3, 8, 13)


@pytest.mark.parametrize("m", range(2, 8))
def test_triangular_exhaustive(m):
    ctx = PolygonContext(m)
    all_spms = set(enumerate_spms(ctx))
    for i1, i2, i3 in itertools.combinations(range(1, ctx.n + 1), 3):
        p, q, r = i2 - i1, i3 - i2, i1 + ctx.n - i3
        if max(p, q, r) >= m:
            with pytest.raises(InfeasibilityError):
                triangular_spm(ctx, i1, i2, i3)
            continue
        spec = TriangularSpec.from_positions(ctx, i1, i2, i3)
        assert (spec.a + spec.b, spec.b + spec.c, spec.c + spec.a) == (p, q, r)
        matching = triangular_spm(ctx, i1, i2, i3)
        assert is_spm(ctx, matching)
        assert matching in all_spms
        boundary = {e for e in matching if is_boundary_edge(ctx, e)}
        assert boundary == {ctx.edge(i - 1, i) for i in (i1, i2, i3)}


def test_triangular_from_blocks_matches_position_form():
    ctx = PolygonContext(6)
    assert (triangular_spm_from_blocks(ctx, 0, 3, 2, 1)
            == triangular_spm(ctx, 3, 8, 11))


def test_triangular_from_blocks_wraps_past_zero():
    assert (triangular_spm_from_blocks(PolygonContext(3), 5, 1, 1, 1)
            == edges("5-0,1-2,3-4"))


def test_triangular_from_blocks_input_errors():
    ctx = PolygonContext(6)
    with pytest.raises(InputError):
        triangular_spm_from_blocks(ctx, 0, 3, 3, 1)
    with pytest.raises(InputError):
        triangular_spm_from_blocks(ctx, 0, 0, 3, 3)
    with pytest.raises(InputError):
        triangular_spm_from_blocks(ctx, 12, 3, 2, 1)


@pytest.mark.parametrize("m", range(3, 6))
def test_triangular_from_blocks_exhaustive(m):
    ctx = PolygonContext(m)
    for start in range(ctx.n):
        for a in range(1, m - 1):
            for b in range(1, m - a):
                c = m - a - b
                matching = triangular_spm_from_blocks(ctx, start, a, b, c)
                assert is_spm(ctx, matching)
                # the three block-splitting diagonals are in the matching
                assert ctx.edge(start, start + 2 * a - 1) in matching
                assert ctx.edge(start + 2 * a, start + 2 * a + 2 * b - 1) in matching
                assert ctx.edge(start + 2 * a + 2 * b, start - 1) in matching
