from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import edges, random_spec
from convex_blockers.blockers import BlockerSpec, enumerate_blockers, generate_blocker
from convex_blockers.errors import InfeasibilityError, InputError, ResourceLimitError
from convex_blockers.geometry import (
    Edge,
    PolygonContext,
    are_parallel,
    boundary_position,
    edge_order,
    is_boundary_edge,
)
from convex_blockers.matchings import (
    TriangularSpec,
    _spm_splits,
    catalan_number,
    enumerate_spms,
    first_avoiding_spm,
    is_spm,
    parallel_spm,
    spm_pairs,
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


def _slow_pair_matchings(m: int):
    """The per-length enumerator: the matchings of an interval depend only on
    its length up to a vertex shift, so each length below 2m is built once on
    0..L-1, moved into place by shift maps, and only the top length streams."""
    n = 2 * m
    # shift[s] moves a pair s vertices up; map() through it moves a block.
    shift = [{(a, b): (a + s, b + s) for a in range(n) for b in range(a + 1, n, 2)
              }.__getitem__ for s in range(n + 1)]
    blocks = [[()]]  # blocks[h]: the matchings of the vertices 0..2h-1

    def splits(h: int):
        # Edge (0, k), the inner block [1, k) and the outer block [k+1, 2h).
        for j in range(h):
            k = 2 * j + 1
            yield ((0, k), [tuple(map(shift[1], t)) for t in blocks[j]],
                   [tuple(map(shift[k + 1], t)) for t in blocks[h - 1 - j]])

    for h in range(1, m):
        blocks.append([(e,) + inner + outer for e, inners, outers in splits(h)
                       for inner in inners for outer in outers])
    for e, inners, outers in splits(m):
        for inner in inners:
            for outer in outers:
                yield (e,) + inner + outer


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_catalan_number_matches_recurrence_and_frozen_values():
    for n, expected in enumerate(CATALAN):
        assert _catalan_by_recurrence(n) == expected
        assert catalan_number(n) == expected
    for n in range(41):
        assert catalan_number(n) == _catalan_by_recurrence(n)
    with pytest.raises(InputError):
        catalan_number(-1)


@pytest.mark.parametrize("m", range(1, 9))
def test_enumerate_counts_are_catalan(m):
    assert len(enumerate_spms(PolygonContext(m))) == CATALAN[m]


def test_enumerate_smallest_cases_exactly():
    assert enumerate_spms(PolygonContext(1)) == [edges("0-1")]
    assert enumerate_spms(PolygonContext(2)) == [edges("0-1,2-3"), edges("0-3,1-2")]


@pytest.mark.parametrize("m", range(2, 7))
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
def test_spm_pairs_are_exact_int_tuples_equal_to_the_edges(m):
    ctx = PolygonContext(m)
    pairs = list(spm_pairs(ctx))
    spms = enumerate_spms(ctx)
    assert pairs == [tuple(sorted(s)) for s in spms]
    assert {type(p) for s in pairs for p in s} == {tuple}
    assert {type(v) for s in pairs for p in s for v in p} == {int}
    assert {type(e) for s in spms for e in s} == {Edge}


@pytest.mark.parametrize("m", range(1, 11))
def test_spm_pairs_match_the_per_length_enumerator(m):
    pairs = list(spm_pairs(PolygonContext(m)))
    assert pairs == list(_slow_pair_matchings(m))
    assert {type(s) for s in pairs} == {tuple}
    assert {type(p) for s in pairs for p in s} == {tuple}
    assert {type(v) for s in pairs for p in s for v in p} == {int}


@pytest.mark.parametrize("m", range(1, 9))
def test_spm_splits_try_only_partners_at_odd_distance(m):
    # An even distance leaves an odd interval with no matchings, whose empty
    # block drops every product, so only the calls to `unit` show the waste.
    calls = []

    def unit(i, k):
        calls.append((i, k))
        return ((i, k),)

    tops = list(_spm_splits(PolygonContext(m), unit, ()))
    assert [head for head, _, _ in tops] == [((0, k),) for k in range(1, 2 * m, 2)]
    assert calls and all((k - i) % 2 == 1 for i, k in calls)


@pytest.mark.parametrize("m", range(1, 8))
def test_every_spm_edge_has_odd_order(m):
    ctx = PolygonContext(m)
    for s in enumerate_spms(ctx):
        for e in s:
            assert edge_order(ctx, e) % 2 == 1


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_spms(PolygonContext(13))
    # On the call itself, before any matching is asked for.
    with pytest.raises(ResourceLimitError, match="m=13 exceeds the enumeration cap 12"):
        spm_pairs(PolygonContext(13))


# ---------------------------------------------------------------------------
# first_avoiding_spm, against its definition: the first matching of
# `enumerate_spms` that shares no edge with the set
# ---------------------------------------------------------------------------

@functools.cache
def _spms(m: int) -> list:
    return enumerate_spms(PolygonContext(m))


def _assert_first_avoiding_matches_definition(m: int, chosen) -> None:
    ctx = PolygonContext(m)
    found = first_avoiding_spm(ctx, chosen)
    assert found == next((s for s in _spms(m) if s.isdisjoint(chosen)), None)
    if found is not None:
        assert is_spm(ctx, found)
        assert found.isdisjoint(chosen)


@pytest.mark.parametrize("m", range(2, 9))
def test_first_avoiding_spm_on_blockers_and_one_edge_swaps(m):
    ctx = PolygonContext(m)
    rng = random.Random(m)
    all_edges = ctx.edge_table
    for blocker in enumerate_blockers(ctx):
        _assert_first_avoiding_matches_definition(m, blocker)
        dropped = rng.choice(sorted(blocker))
        added = rng.choice([e for e in all_edges if e not in blocker])
        _assert_first_avoiding_matches_definition(m, (blocker - {dropped}) | {added})


@given(st.data())
def test_first_avoiding_spm_on_arbitrary_edge_sets(data):
    m = data.draw(st.integers(2, 8))
    chosen = data.draw(st.sets(st.sampled_from(PolygonContext(m).edge_table)))
    _assert_first_avoiding_matches_definition(m, chosen)


def _slow_first_avoiding_spm(ctx: PolygonContext, chosen):
    """`first_avoiding_spm` before its bitset rows: a (2m+1)^2 table of
    bools filled interval length by length, O(m^3) generator steps."""
    banned = set(map(ctx.check_edge, chosen))
    n = ctx.n
    # ok[i][j]: the vertices i..j-1 have a perfect matching avoiding `chosen`.
    ok = [[i == j for j in range(n + 1)] for i in range(n + 1)]

    def splits(i: int, j: int):
        return (k for k in range(i + 1, j, 2)
                if (i, k) not in banned and ok[i + 1][k] and ok[k + 1][j])

    for length in range(2, n + 1, 2):
        for i in range(n - length + 1):
            ok[i][i + length] = any(splits(i, i + length))
    if not ok[0][n]:
        return None
    out = []
    pending = [(0, n)]
    while pending:
        i, j = pending.pop()
        if i < j:
            k = next(splits(i, j))
            out.append(Edge(i, k))
            pending += [(k + 1, j), (i + 1, k)]
    return frozenset(out)


@pytest.mark.parametrize("m", range(2, 41))
def test_first_avoiding_spm_agrees_with_the_slow_twin(m):
    # Every blocker up to m = 6, seeded ones beyond, each with a one-edge
    # swap, and seeded edge sets of 0..3m edges, past DEFAULT_MAX_M too.
    ctx = PolygonContext(m)
    rng = random.Random(m)
    all_edges = ctx.edge_table
    if m <= 6:
        blockers = enumerate_blockers(ctx)
    else:
        blockers = [generate_blocker(ctx, random_spec(rng, m)) for _ in range(4)]
    cases = []
    for blocker in blockers:
        dropped = rng.choice(sorted(blocker))
        added = rng.choice([e for e in all_edges if e not in blocker])
        cases += [blocker, (blocker - {dropped}) | {added}]
    cases += [rng.sample(all_edges, rng.randint(0, 3 * m)) for _ in range(4)]
    for chosen in cases:
        assert first_avoiding_spm(ctx, chosen) == _slow_first_avoiding_spm(ctx, chosen)


def test_first_avoiding_spm_beyond_the_enumeration_cap():
    ctx = PolygonContext(40)
    assert first_avoiding_spm(ctx, ()) == frozenset(
        Edge(2 * i, 2 * i + 1) for i in range(40))
    blocker = generate_blocker(ctx, BlockerSpec(0, 2, tuple(range(1, 39))))
    assert first_avoiding_spm(ctx, blocker) is None


def test_first_avoiding_spm_rejects_foreign_edges():
    ctx = PolygonContext(3)
    with pytest.raises(InputError):
        first_avoiding_spm(ctx, edges("0-1,2-9"))
    with pytest.raises(InputError):
        first_avoiding_spm(ctx, [(0, 1)])


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


def _slow_triangular_spm(ctx: PolygonContext, i1: int, i2: int, i3: int):
    """Each fan placed around its own boundary edge, with the sizes
    a = m-q, b = m-r, c = m-p solved here: the slow twin of the fan-size
    builder."""
    m = ctx.m
    p, q, r = i2 - i1, i3 - i2, i1 + ctx.n - i3

    def fan(position: int, size: int) -> list[Edge]:
        return [ctx.edge(position - 1 - eps, position + eps) for eps in range(size)]

    return frozenset(fan(i1, m - q) + fan(i2, m - r) + fan(i3, m - p))


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
        assert matching == _slow_triangular_spm(ctx, i1, i2, i3)
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


@pytest.mark.parametrize("m", range(3, 9))
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
                # and the position form at its three boundary edges builds it
                positions = sorted(boundary_position(ctx, e) + 1
                                   for e in matching if is_boundary_edge(ctx, e))
                assert triangular_spm(ctx, *positions) == matching
