from __future__ import annotations

import random

import pytest

from convex_blockers import verify
from convex_blockers.blockers import enumerate_blockers
from convex_blockers.errors import InputError, ResourceLimitError
from convex_blockers.geometry import PolygonContext
from convex_blockers.verify import MAX_WITNESSES, verify_special_blockers, verify_theorem


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
        assert r.oracle_only == [] and r.generated_only == []


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
        verify_theorem(2, 9, 0)


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
        candidate = frozenset(rng.sample(list(ctx.edges()), 4))
        if candidate not in blockers:
            extra.add(candidate)
    fake = [s for s in blockers if s not in dropped] + sorted(extra, key=sorted)
    monkeypatch.setattr(verify, "enumerate_blockers", lambda ctx: fake)
    (report,) = verify_theorem(4, 4, 0)

    def first(sets):
        keys = sorted(tuple((e.a, e.b) for e in sorted(s)) for s in sets)
        return [[list(p) for p in key] for key in keys[:MAX_WITNESSES]]

    assert report.verdict == "FAIL" and not report.set_equality
    assert report.oracle_only == first(dropped)
    assert report.generated_only == first(extra)


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
    for phase in ("spm_enumeration", "blocker_generation", "oracle_class_pruned",
                  "structural_checks", "blocking_checks", "oracle_naive"):
        assert phase in durations
        assert durations[phase] >= 0


@pytest.mark.parametrize("m", [2, 3, 6])
def test_special_blockers(m):
    assert verify_special_blockers(m)


def test_special_blockers_rejects_m1():
    with pytest.raises(InputError):
        verify_special_blockers(1)
