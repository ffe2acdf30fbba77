"""The three size caps: one message format, and every refusal before any work."""

from __future__ import annotations

import pytest

from convex_blockers import cli, verify
from convex_blockers.errors import ResourceLimitError
from convex_blockers.geometry import PolygonContext
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
     lambda capsys: cli_refusal(capsys, "blocker", "enumerate", "--m", "13")),
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
], ids=["spm_pairs", "blocker-enumerate", "naive-find_minimum_blockers",
        "naive-verify", "naive-oracle", "pruned-find_minimum_blockers",
        "pruned-verify", "pruned-oracle"])
def test_every_refusal_has_the_one_cap_format(capsys, m, what, cap, refuse):
    assert refuse(capsys) == f"m={m} exceeds the {what} cap {cap}"


@pytest.mark.parametrize("m, mode, message", [
    ("12", "pruned", "m=12 exceeds the pruned search cap 8"),
    ("11", "naive", "m=11 exceeds the naive search cap 5"),
])
def test_oracle_refuses_its_search_cap_before_the_index(capsys, monkeypatch,
                                                        m, mode, message):
    monkeypatch.setattr(cli, "build_family_index", no_index)
    assert cli_refusal(capsys, "oracle", "--m", m, "--mode", mode) == message


def test_verify_applies_the_enumeration_cap_up_front(capsys, monkeypatch):
    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(ResourceLimitError, match="m=6 exceeds the enumeration cap 5"):
        verify_theorem(2, 8, 5, max_m=5)
    monkeypatch.setenv(cli.ENV_MAX_M, "5")
    assert (cli_refusal(capsys, "verify", "--m-min", "2", "--m-max", "8",
                        "--naive-up-to", "5")
            == "m=6 exceeds the enumeration cap 5")


def test_special_blockers_refuse_the_pruned_cap_before_the_index(monkeypatch):
    monkeypatch.setattr(verify, "build_family_index", no_index)
    with pytest.raises(ResourceLimitError, match="m=9 exceeds the pruned search cap 8"):
        verify_special_blockers(9)
