"""Every bound on m: one message for the lower bounds and one for the four
size caps, and every refusal before any work."""

from __future__ import annotations

import pytest

from convex_blockers import cli, verify
from convex_blockers.blockers import (
    BlockerSpec,
    count_blockers,
    count_blockers_by_spine,
    enumerate_blocker_specs,
    enumerate_blockers,
    parse_blocker,
    restrict_blocker,
)
from convex_blockers.errors import InputError, ResourceLimitError
from convex_blockers.geometry import Edge, PolygonContext
from convex_blockers.matchings import spm_pairs
from convex_blockers.oracle import (
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    build_family_index,
    find_minimum_blockers,
)
from convex_blockers.verify import verify_special_blockers, verify_theorem


def no_index(*args, **kwargs):
    raise AssertionError("built an index before refusing a size cap")


def refusal(call) -> str:
    with pytest.raises(ResourceLimitError) as info:
        call()
    return str(info.value)


def cli_refusal(capsys, *argv) -> str:
    """The message of a CLI refusal, which exits 1 with nothing on stdout."""
    status = cli.run_cli(list(argv))
    out, err = capsys.readouterr()
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: "):-1]


@pytest.mark.parametrize("m, what, cap, refuse", [
    (13, "enumeration", 12,
     lambda capsys: refusal(lambda: spm_pairs(PolygonContext(13)))),
    (13, "enumeration", 12,
     lambda capsys: cli_refusal(capsys, "spm", "enumerate", "--m", "13")),
    (13, "enumeration", 12,
     lambda capsys: cli_refusal(capsys, "spm", "enumerate", "--m", "13",
                                "--format", "json")),
    (13, "enumeration", 12,
     lambda capsys: cli_refusal(capsys, "blocker", "enumerate", "--m", "13")),
    (13, "enumeration", 12,
     lambda capsys: refusal(lambda: enumerate_blocker_specs(PolygonContext(13)))),
    (13, "enumeration", 12,
     lambda capsys: refusal(lambda: enumerate_blockers(PolygonContext(13)))),
    (6, "naive search", 5,
     lambda capsys: refusal(lambda: find_minimum_blockers(
         build_family_index(PolygonContext(6)), MODE_NAIVE))),
    (6, "naive search", 5,
     lambda capsys: refusal(lambda: verify_theorem(2, 6, 6))),
    (6, "naive search", 5,
     lambda capsys: cli_refusal(capsys, "oracle", "--m", "6", "--mode", "naive")),
    (9, "pruned search", 8,
     lambda capsys: refusal(lambda: find_minimum_blockers(
         build_family_index(PolygonContext(9)), MODE_CLASS_PRUNED))),
    (9, "pruned search", 8,
     lambda capsys: refusal(lambda: verify_theorem(2, 9))),
    (9, "pruned search", 8,
     lambda capsys: cli_refusal(capsys, "oracle", "--m", "9")),
    (14272, "count", 14271,
     lambda capsys: cli_refusal(capsys, "blocker", "count", "--m", "14272")),
    (14272, "count", 14271,
     lambda capsys: cli_refusal(capsys, "blocker", "count", "--m", "14272",
                                "--by-spine")),
], ids=["spm_pairs", "spm-enumerate", "spm-enumerate-json", "blocker-enumerate",
        "enumerate_blocker_specs", "enumerate_blockers",
        "naive-find_minimum_blockers", "naive-verify", "naive-oracle",
        "pruned-find_minimum_blockers", "pruned-verify", "pruned-oracle", "blocker-count",
        "blocker-count-by-spine"])
def test_every_refusal_has_the_one_cap_format(capsys, m, what, cap, refuse):
    assert refuse(capsys) == f"m={m} exceeds the {what} cap {cap}"


def test_count_cap_is_the_largest_count_that_prints(capsys):
    status = cli.run_cli(["blocker", "count", "--m", "14271"])
    out, err = capsys.readouterr()
    assert (status, err) == (0, "")
    assert out.endswith("\n") and len(out) == 4300 + 1 and out[:-1].isdigit()


@pytest.mark.parametrize("m, mode, message", [
    ("12", "pruned", "m=12 exceeds the pruned search cap 8"),
    ("11", "naive", "m=11 exceeds the naive search cap 5"),
])
def test_oracle_refuses_its_search_cap_before_the_index(capsys, monkeypatch,
                                                        m, mode, message):
    monkeypatch.setattr(cli, "build_family_index", no_index)
    assert cli_refusal(capsys, "oracle", "--m", m, "--mode", mode) == message


def test_verify_applies_the_enumeration_cap_up_front(monkeypatch):
    # A pruned cap past the enumeration cap still meets it before any work.
    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(ResourceLimitError, match="m=13 exceeds the enumeration cap 12"):
        verify_theorem(12, 13, pruned_cap=13)


def test_special_blockers_refuse_the_pruned_cap_before_the_index(monkeypatch):
    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(ResourceLimitError, match="m=9 exceeds the pruned search cap 8"):
        verify_special_blockers(9)


LOWER_BOUND_REFUSALS = [
    (["spm", "enumerate", "--m", "0"], "m must be >= 1, got 0"),
    (["spm", "parallel", "--m", "0", "--l", "0"], "m must be >= 1, got 0"),
    (["spm", "triangular", "--m", "0", "--edges", "1,2,3"], "m must be >= 1, got 0"),
    (["blocker", "enumerate", "--m", "0"], "m must be >= 1, got 0"),
    (["blocker", "count", "--m", "0"], "m must be >= 2, got 0"),
    (["blocker", "count", "--m", "0", "--by-spine"], "m must be >= 2, got 0"),
    (["blocker", "check", "--m", "0", "--edges", "0-1"], "m must be >= 1, got 0"),
    (["oracle", "--m", "0"], "m must be >= 1, got 0"),
    (["oracle", "--m", "0", "--mode", "naive"], "m must be >= 1, got 0"),
    (["render", "--m", "0", "--edges", "0-1"], "m must be >= 1, got 0"),
    (["render", "--m", "0", "--blocker-spec", "0,2"], "m must be >= 1, got 0"),
    (["blocker", "enumerate", "--m", "1"], "m must be >= 2, got 1"),
    (["blocker", "count", "--m", "1"], "m must be >= 2, got 1"),
    (["blocker", "count", "--m", "1", "--by-spine"], "m must be >= 2, got 1"),
    (["blocker", "check", "--m", "1", "--edges", "0-1"], "m must be >= 2, got 1"),
    (["render", "--m", "1", "--blocker-spec", "0,2"], "m must be >= 2, got 1"),
    (["verify", "--m-min", "1", "--m-max", "3"], "need 2 <= m_min <= m_max, got 1..3"),
]


@pytest.mark.parametrize("argv, message", LOWER_BOUND_REFUSALS,
                         ids=["_".join(argv).replace("--", "").replace(",", "_")
                              for argv, _message in LOWER_BOUND_REFUSALS])
def test_every_lower_bound_refusal(capsys, tmp_path, argv, message):
    target = tmp_path / "x.svg"
    if argv[0] == "render":
        argv = [*argv, "--out", str(target)]
    assert cli_refusal(capsys, *argv) == message
    assert not target.exists()


@pytest.mark.parametrize("m, least, call", [
    (0, 1, lambda: PolygonContext(0)),
    (1, 2, lambda: BlockerSpec(0, 2).validate(PolygonContext(1))),
    (1, 2, lambda: enumerate_blocker_specs(PolygonContext(1))),
    (1, 2, lambda: parse_blocker(PolygonContext(1), [Edge(0, 1)])),
    (1, 2, lambda: count_blockers(1)),
    (1, 2, lambda: count_blockers_by_spine(1, 2)),
    (1, 2, lambda: restrict_blocker(PolygonContext(1), [Edge(0, 1)],
                                    Edge(0, 1), Edge(0, 1))),
    (1, 2, lambda: verify_special_blockers(1)),
], ids=["PolygonContext", "BlockerSpec.validate", "enumerate_blocker_specs",
        "parse_blocker", "count_blockers", "count_blockers_by_spine",
        "restrict_blocker", "verify_special_blockers"])
def test_every_library_lower_bound_has_the_one_message(m, least, call):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == f"m must be >= {least}, got {m}"
