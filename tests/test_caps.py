"""Every bound on m: one message for the lower bounds and one for the five
size caps, and every refusal before any work."""

from __future__ import annotations

import pytest

from convex_blockers import blockers, cli, oracle, verify
from convex_blockers.blockers import (
    BlockerSpec,
    count_blockers,
    count_blockers_by_spine,
    enumerate_blockers,
    parse_blocker,
    restrict_blocker,
)
from convex_blockers.errors import InputError, ResourceLimitError
from convex_blockers.geometry import Edge, PolygonContext, parallel_class
from convex_blockers.matchings import (
    catalan_number,
    parallel_spm,
    spm_pairs,
    triangular_spm,
    triangular_spm_from_blocks,
)
from convex_blockers.oracle import (
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    SpmFamilyIndex,
    build_family_index,
    find_minimum_blockers,
)
from convex_blockers.verify import verify_theorem


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
     lambda capsys: cli_refusal(capsys, "blocker", "enumerate", "--m", "13",
                                "--format", "json")),
    (13, "enumeration", 12,
     lambda capsys: refusal(lambda: enumerate_blockers(PolygonContext(13)))),
    (6, "naive search", 5,
     lambda capsys: refusal(lambda: find_minimum_blockers(
         build_family_index(PolygonContext(6)), MODE_NAIVE))),
    (6, "naive search", 5,
     lambda capsys: refusal(lambda: verify_theorem(2, 6, 6))),
    (6, "naive search", 5,
     lambda capsys: cli_refusal(capsys, "oracle", "--m", "6", "--mode", "naive")),
    # The cap is checked before the search reads the index, so a stub
    # stands in for the m = 12 one.
    (12, "pruned search", 11,
     lambda capsys: refusal(lambda: find_minimum_blockers(
         SpmFamilyIndex(PolygonContext(12), (), ()), MODE_CLASS_PRUNED))),
    (12, "pruned search", 11,
     lambda capsys: refusal(lambda: verify_theorem(2, 12))),
    (12, "pruned search", 11,
     lambda capsys: cli_refusal(capsys, "oracle", "--m", "12")),
    (14272, "count", 14271,
     lambda capsys: cli_refusal(capsys, "blocker", "count", "--m", "14272")),
    (14272, "count", 14271,
     lambda capsys: cli_refusal(capsys, "blocker", "count", "--m", "14272",
                                "--by-spine")),
    (10001, "single-set", 10000,
     lambda capsys: cli_refusal(capsys, "spm", "parallel", "--m", "10001", "--l", "1")),
    (10001, "single-set", 10000,
     lambda capsys: cli_refusal(capsys, "spm", "triangular", "--m", "10001",
                                "--edges", "1,6668,13335")),
], ids=["spm_pairs", "spm-enumerate", "spm-enumerate-json", "blocker-enumerate",
        "blocker-enumerate-json",
        "enumerate_blockers",
        "naive-find_minimum_blockers", "naive-verify", "naive-oracle",
        "pruned-find_minimum_blockers", "pruned-verify", "pruned-oracle", "blocker-count",
        "blocker-count-by-spine", "spm-parallel", "spm-triangular"])
def test_every_refusal_has_the_one_cap_format(capsys, m, what, cap, refuse):
    assert refuse(capsys) == f"m={m} exceeds the {what} cap {cap}"


@pytest.mark.parametrize("m, error, message", [
    (13, ResourceLimitError, "m=13 exceeds the enumeration cap 12"),
    (1, InputError, "m must be >= 2, got 1"),
], ids=["cap", "lower-bound"])
@pytest.mark.parametrize("call", [
    enumerate_blockers,
    # A generator: it refuses when first advanced, before any edge.
    lambda ctx: next(blockers._blockers_by_start(ctx)),
], ids=["enumerate_blockers", "_blockers_by_start"])
def test_blocker_enumeration_refuses_before_any_edge_table(m, error, message, call):
    ctx = PolygonContext(m)
    with pytest.raises(error) as info:
        call(ctx)
    assert str(info.value) == message
    assert not {"edge_of", "edge_table", "edge_rank"} & set(vars(ctx))


@pytest.mark.parametrize("solid", [("--edges", "0-1"), ("--blocker-spec", "0,2")],
                         ids=["edges", "blocker-spec"])
def test_render_refuses_the_single_set_cap_before_writing(capsys, tmp_path, solid):
    out = tmp_path / "big.svg"
    message = cli_refusal(capsys, "render", "--m", "10001", *solid, "--out", str(out))
    assert message == "m=10001 exceeds the single-set cap 10000"
    assert not out.exists()


def test_the_single_set_cap_admits_its_own_value(capsys):
    m = cli.SINGLE_SET_CAP
    assert cli.run_cli(["spm", "parallel", "--m", str(m), "--l", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("-") == m and out.startswith("0-1,")


def test_count_cap_is_the_largest_count_that_prints(capsys):
    status = cli.run_cli(["blocker", "count", "--m", "14271"])
    out, err = capsys.readouterr()
    assert (status, err) == (0, "")
    assert out.endswith("\n") and len(out) == 4300 + 1 and out[:-1].isdigit()


@pytest.mark.parametrize("m, mode, message", [
    ("12", "pruned", "m=12 exceeds the pruned search cap 11"),
    ("11", "naive", "m=11 exceeds the naive search cap 5"),
])
def test_oracle_refuses_its_search_cap_before_the_index(capsys, monkeypatch,
                                                        m, mode, message):
    # `oracle` is imported when the command runs, so it reads the patched name.
    monkeypatch.setattr(oracle, "build_family_index", no_index)
    assert cli_refusal(capsys, "oracle", "--m", m, "--mode", mode) == message


def test_verify_applies_the_enumeration_cap_up_front(monkeypatch):
    # m = 13 is past both caps: the enumeration cap is named, before any work.
    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(ResourceLimitError, match="m=13 exceeds the enumeration cap 12"):
        verify_theorem(13, 13)


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
    (["blocker", "enumerate", "--m", "1", "--format", "json"], "m must be >= 2, got 1"),
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
    (1, 2, lambda: parse_blocker(PolygonContext(1), [Edge(0, 1)])),
    (1, 2, lambda: count_blockers(1)),
    (1, 2, lambda: count_blockers_by_spine(1, 2)),
    (1, 2, lambda: restrict_blocker(PolygonContext(1), [Edge(0, 1)],
                                    Edge(0, 1), Edge(0, 1))),
], ids=["PolygonContext", "BlockerSpec.validate", "parse_blocker", "count_blockers",
        "count_blockers_by_spine", "restrict_blocker"])
def test_every_library_lower_bound_has_the_one_message(m, least, call):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == f"m must be >= {least}, got {m}"


@pytest.mark.parametrize("m, call", [
    (2.5, lambda: count_blockers(2.5)),
    (True, lambda: count_blockers(True)),
    (2.5, lambda: count_blockers_by_spine(2.5, 2)),
    (2.5, lambda: verify_theorem(2.5, 3)),
    (3.0, lambda: verify_theorem(2, 3.0)),
    (True, lambda: verify_theorem(True, 3)),
], ids=["count_blockers", "count_blockers-bool",
        "count_blockers_by_spine",
        "verify_theorem-m_min", "verify_theorem-m_max", "verify_theorem-bool"])
def test_every_library_integer_check_has_the_one_message(monkeypatch, m, call):
    # Refused by `errors.check_ints` before any range test, cap or index, in
    # the message `PolygonContext` gives (see `tests/test_geometry.py`).
    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == f"m must be an integer, got {m}"


@pytest.mark.parametrize("name, value, call", [
    ("t", 2.5, lambda: count_blockers_by_spine(5, 2.5)),
    ("t", True, lambda: count_blockers_by_spine(5, True)),
    ("n", 2.5, lambda: catalan_number(2.5)),
    ("n", True, lambda: catalan_number(True)),
    ("naive_up_to", 2.5, lambda: verify_theorem(2, 3, 2.5)),
    ("i1", True, lambda: triangular_spm(PolygonContext(3), True, 3, 5)),
    ("i3", 5.0, lambda: triangular_spm(PolygonContext(3), 1, 3, 5.0)),
    ("start", 0.0, lambda: triangular_spm_from_blocks(PolygonContext(3), 0.0, 1, 1, 1)),
    ("a", True, lambda: triangular_spm_from_blocks(PolygonContext(3), 0, True, 1, 1)),
    ("c", 1.0, lambda: triangular_spm_from_blocks(PolygonContext(3), 0, 1, 1, 1.0)),
    ("l", True, lambda: parallel_spm(PolygonContext(3), True)),
    ("l", 2.5, lambda: parallel_spm(PolygonContext(3), 2.5)),
    ("class_id", True, lambda: parallel_class(PolygonContext(3), True)),
    ("class_id", 1.0, lambda: parallel_class(PolygonContext(3), 1.0)),
], ids=["count_blockers_by_spine", "count_blockers_by_spine-bool", "catalan_number",
        "catalan_number-bool", "verify_theorem-naive_up_to", "triangular_spm-bool",
        "triangular_spm", "triangular_spm_from_blocks-start",
        "triangular_spm_from_blocks-bool", "triangular_spm_from_blocks-fan",
        "parallel_spm-bool", "parallel_spm", "parallel_class-bool", "parallel_class"])
def test_every_other_integer_check_names_its_argument(monkeypatch, name, value, call):
    # The same test as for m, before any range test, cap or index.
    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == f"{name} must be an integer, got {value}"


@pytest.mark.parametrize("message, call", [
    ("n must be >= 0", lambda: catalan_number(-1)),
    ("t must be in 2..5, got 1", lambda: count_blockers_by_spine(5, 1)),
    ("need 2 <= m_min <= m_max, got 3..2", lambda: verify_theorem(3, 2)),
    ("positions must satisfy 1 <= i1 < i2 < i3 <= 6, got (0, 3, 5)",
     lambda: triangular_spm(PolygonContext(3), 0, 3, 5)),
    ("start must be in 0..5, got 6",
     lambda: triangular_spm_from_blocks(PolygonContext(3), 6, 1, 1, 1)),
    ("fan sizes must be positive with a+b+c = m, got (0, 1, 2)",
     lambda: triangular_spm_from_blocks(PolygonContext(3), 0, 0, 1, 2)),
    ("l must be in 1..3, got 4", lambda: parallel_spm(PolygonContext(3), 4)),
    ("class id 6 out of range 0..5", lambda: parallel_class(PolygonContext(3), 6)),
], ids=["catalan_number", "count_blockers_by_spine", "verify_theorem",
        "triangular_spm", "triangular_spm_from_blocks-start",
        "triangular_spm_from_blocks-fans", "parallel_spm", "parallel_class"])
def test_an_int_out_of_range_keeps_its_range_message(message, call):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
