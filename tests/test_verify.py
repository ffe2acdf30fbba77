from __future__ import annotations

import random

import pytest

from conftest import boundary_edges, is_boundary_edge, random_spec
from convex_blockers import verify
from convex_blockers.blockers import (
    BlockerSpec,
    enumerate_blockers,
    generate_blocker,
    parse_blocker,
)
from convex_blockers.errors import InputError, ResourceLimitError
from convex_blockers.geometry import PolygonContext, edge_class, parallel_class
from convex_blockers.matchings import first_avoiding_spm
from convex_blockers.oracle import build_family_index, find_minimum_blockers, is_blocking_set
from convex_blockers.verify import MAX_WITNESSES, verify_theorem


def test_verify_small_range_with_naive():
    reports = verify_theorem(2, 4, 4)
    assert [r.verdict for r in reports] == ["PASS", "PASS", "PASS"]
    assert [r.generated_count for r in reports] == [4, 12, 32]
    assert [r.oracle_count for r in reports] == [4, 12, 32]
    assert [r.spm_count for r in reports] == [2, 5, 14]
    for r in reports:
        assert r.set_equality and r.structural_pass and r.blocks_all_spms
        assert r.naive_agrees is True
        assert r.lower_bound_pass is True
        assert r.oracle_only == () and r.generated_only == ()


def test_verify_m6_without_naive():
    (report,) = verify_theorem(6, 6, 0)
    assert report.verdict == "PASS"
    assert report.spm_count == 132
    assert report.generated_count == 192
    assert report.naive_agrees is None
    assert report.lower_bound_pass is None


def test_verify_m2_lower_bound():
    (report,) = verify_theorem(2, 2, 2)
    assert report.verdict == "PASS"
    assert report.lower_bound_pass is True


def test_verify_full_default_range_passes():
    reports = verify_theorem(2, 6, 4)
    assert [r.verdict for r in reports] == ["PASS"] * 5
    assert [r.generated_count for r in reports] == [4, 12, 32, 80, 192]


def test_verify_argument_errors():
    with pytest.raises(InputError):
        verify_theorem(1, 3, 0)
    with pytest.raises(InputError):
        verify_theorem(4, 3, 0)
    with pytest.raises(ResourceLimitError):
        verify_theorem(2, 12, 0)


def test_naive_cap_is_refused_before_any_work(monkeypatch):
    def no_index(*args, **kwargs):
        raise AssertionError("built an index before refusing the naive cap")

    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(ResourceLimitError, match="m=6 exceeds the naive search cap 5"):
        verify_theorem(2, 6, 6)
    with pytest.raises(ResourceLimitError, match="m=6 exceeds the naive search cap 5"):
        verify_theorem(2, 8, 7)


def test_naive_up_to_beyond_m_max_is_not_refused():
    (report,) = verify_theorem(2, 2, 6)
    assert report.verdict == "PASS"
    assert report.naive_agrees is True


def test_witnesses_are_the_first_mismatches_in_edge_order(monkeypatch):
    ctx = PolygonContext(4)
    blockers = enumerate_blockers(ctx)
    dropped = blockers[::2][:12]
    rng = random.Random(5)
    extra = set()
    while len(extra) < 12:
        candidate = frozenset(rng.sample(ctx.edge_table, 4))
        if candidate not in blockers:
            extra.add(candidate)
    fake = [s for s in blockers if s not in dropped] + sorted(extra, key=sorted)
    monkeypatch.setattr(verify, "enumerate_blockers", lambda ctx: fake)
    (report,) = verify_theorem(4, 4, 0)

    def first(sets):
        keys = sorted(tuple((e.a, e.b) for e in sorted(s)) for s in sets)
        return tuple(keys[:MAX_WITNESSES])

    assert report.verdict == "FAIL" and not report.set_equality
    assert report.oracle_only == first(dropped)
    assert report.generated_only == first(extra)
    witnesses = report.to_json()["witnesses"]
    assert witnesses["oracle_only"] == [[list(p) for p in key] for key in first(dropped)]
    assert witnesses["generated_only"] == [[list(p) for p in key] for key in first(extra)]
    assert hash(report) == hash(report._replace())


def test_report_json_is_deterministic_apart_from_timings():
    def stripped(report):
        payload = report.to_json()
        payload.pop("durations_ms")
        return payload

    first = [stripped(r) for r in verify_theorem(2, 3, 3)]
    second = [stripped(r) for r in verify_theorem(2, 3, 3)]
    assert first == second
    assert first[0]["verdict"] == "PASS"
    assert "witnesses" in first[0]


def test_report_json_has_phase_durations():
    (report,) = verify_theorem(3, 3, 3)
    durations = report.to_json()["durations_ms"]
    phases = ["spm_enumeration", "blocker_generation", "oracle_class_pruned",
              "structural_checks", "blocking_checks", "oracle_naive"]
    # The report keeps the phases in run order, and so does the JSON.
    assert [phase for phase, _ms in report.durations_ms] == list(durations) == phases
    assert all(ms >= 0 for ms in durations.values())


@pytest.mark.parametrize("m", range(2, 10))
def test_special_blockers(m):
    # The half-boundaries and the odd stars, at every start, are generated
    # blockers and meet every matching; every set the search finds keeps at
    # least 2 boundary edges.
    ctx = PolygonContext(m)
    generated = set(enumerate_blockers(ctx))
    for s in range(ctx.n):
        half_boundary = frozenset(ctx.boundary_edge(s + i) for i in range(m))
        odd_star = frozenset(ctx.edge(s, s + k) for k in range(1, ctx.n, 2))
        for special in (half_boundary, odd_star):
            assert special in generated
            assert first_avoiding_spm(ctx, special) is None
    found = find_minimum_blockers(build_family_index(ctx)).minimum_sets
    assert len(found) == m << (m - 1)
    assert all(sum(is_boundary_edge(ctx, e) for e in s) >= 2 for s in found)


@pytest.mark.parametrize("m, blockers", [(20, 30), (60, 15), (150, 6)])
def test_parser_and_blocking_check_agree_past_the_cap(m, blockers):
    """Seeded differential witness far past the enumeration cap: on m-edge
    sets the structural parser accepts exactly the sets that the blocking
    check finds no avoiding matching for.  The sets are generated blockers
    and near misses of three kinds: a one-edge swap within the edge's odd
    class, a broken spine (one spine edge traded for another boundary edge)
    and a random transversal of the odd classes.  This is evidence for the
    theorem at sizes the oracle cannot reach, not a proof of completeness."""
    ctx = PolygonContext(m)
    rng = random.Random(m)
    boundary = boundary_edges(ctx)
    cases = []
    for _ in range(blockers):
        spec = random_spec(rng, m)
        blocker = generate_blocker(ctx, spec)
        assert parse_blocker(ctx, blocker) == spec
        dropped = rng.choice(sorted(blocker))
        twin = rng.choice([e for e in parallel_class(ctx, edge_class(ctx, dropped))
                           if e != dropped])
        spine_edge = rng.choice([e for e in blocker if is_boundary_edge(ctx, e)])
        other = rng.choice([e for e in boundary if e not in blocker])
        transversal = {rng.choice(parallel_class(ctx, c)) for c in range(1, ctx.n, 2)}
        cases += [blocker, blocker - {dropped} | {twin},
                  blocker - {spine_edge} | {other}, transversal]
    for edge_set in cases:
        accepted = isinstance(parse_blocker(ctx, edge_set), BlockerSpec)
        assert accepted == (first_avoiding_spm(ctx, edge_set) is None), sorted(edge_set)


@pytest.mark.parametrize("m", range(2, 9))
def test_blocking_checks_agree_with_checking_every_set(m, monkeypatch):
    # The slow twin evaluates every generated set.  `verify` evaluates start
    # 0's 2^(m-2) once the sets equal the found ones: each stands for its
    # rotation orbit.
    calls = []

    def counting(index, edge_set):
        calls.append(edge_set)
        return is_blocking_set(index, edge_set)

    monkeypatch.setattr(verify, "is_blocking_set", counting)
    (report,) = verify_theorem(m, m, 0)
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    generated = enumerate_blockers(ctx)
    assert report.set_equality
    assert report.blocks_all_spms == all(is_blocking_set(index, s) for s in generated)
    assert calls == generated[:1 << (m - 2)]


def test_a_non_blocking_set_past_start_0_fails_the_blocking_checks(monkeypatch):
    # Without set equality the shortcut does not hold, and every generated
    # set is evaluated: a non-blocking m-set at start 1 or later is found.
    m = 5
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    blockers = enumerate_blockers(ctx)
    rng = random.Random(m)
    position = rng.randrange(1 << (m - 2), len(blockers))
    every_edge = ctx.edge_table
    while True:
        swap = frozenset(rng.sample(every_edge, m))
        if not is_blocking_set(index, swap):
            break
    fake = blockers[:position] + [swap] + blockers[position + 1:]
    monkeypatch.setattr(verify, "enumerate_blockers", lambda ctx: fake)
    (report,) = verify_theorem(m, m, 0)
    assert report.verdict == "FAIL"
    assert report.set_equality is False
    assert report.blocks_all_spms is False
