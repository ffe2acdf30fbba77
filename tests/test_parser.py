"""The CLI's parser builds only the path its arguments name, and it must
answer exactly as the parser with every path filled in: the slow twin
below.  For each case, stdout, stderr and exit status of `run_cli` match."""

from __future__ import annotations

import argparse
import re

import pytest

from convex_blockers import cli



def full_parser(argv=()) -> argparse.ArgumentParser:
    """Every parser path filled in, whatever `argv` names."""
    parser = argparse.ArgumentParser(
        prog="convex-blockers",
        description="Minimum blocking sets for non-crossing perfect matchings "
                    "of a convex polygon")
    sub = parser.add_subparsers(dest="command", required=True)
    # Argparse copies a parent's arguments ahead of the command's own.
    polygon = argparse.ArgumentParser(add_help=False)
    polygon.add_argument("--m", type=cli._int_flag, required=True)
    listing = argparse.ArgumentParser(add_help=False, parents=[polygon])
    listing.add_argument("--format", type=cli._choice, choices=("lines", "json"),
                         default="lines")

    spm = sub.add_parser("spm", help="simple perfect matchings")
    spm_sub = spm.add_subparsers(dest="subcommand", required=True)
    p = spm_sub.add_parser("enumerate", help="list every matching", parents=[listing])
    p.set_defaults(func=cli.cmd_spm_enumerate)
    p = spm_sub.add_parser("parallel", help="the l-th parallel matching",
                           parents=[polygon])
    p.add_argument("--l", type=cli._int_flag, required=True)
    p.set_defaults(func=cli.cmd_spm_parallel)
    p = spm_sub.add_parser("triangular", parents=[polygon],
                           help="triangular matching from three boundary edges")
    p.add_argument("--edges", required=True, metavar="I1,I2,I3")
    p.set_defaults(func=cli.cmd_spm_triangular)

    blocker = sub.add_parser("blocker", help="minimum blocking sets")
    blocker_sub = blocker.add_subparsers(dest="subcommand", required=True)
    p = blocker_sub.add_parser("enumerate", help="list every blocker", parents=[listing])
    p.set_defaults(func=cli.cmd_blocker_enumerate)
    p = blocker_sub.add_parser("count", help="closed-form blocker count",
                               parents=[polygon])
    p.add_argument("--by-spine", action="store_true",
                   help="one count per spine length t = 2..m")
    p.set_defaults(func=cli.cmd_blocker_count)
    p = blocker_sub.add_parser("check", parents=[polygon],
                               help="parse, structural report, blocking check")
    p.add_argument("--edges", required=True, metavar="LIST",
                   help="comma-separated edges, e.g. 0-1,1-2,1-4")
    p.set_defaults(func=cli.cmd_blocker_check)

    p = sub.add_parser("oracle", help="brute-force minimum blocking sets",
                       parents=[polygon])
    p.add_argument("--mode", type=cli._choice, choices=("naive", "pruned"), default="pruned")
    p.set_defaults(func=cli.cmd_oracle)

    p = sub.add_parser("verify", help="cross-check generator against search")
    p.add_argument("--m-min", type=cli._int_flag, required=True)
    p.add_argument("--m-max", type=cli._int_flag, required=True)
    p.add_argument("--naive-up-to", type=cli._int_flag, default=4)
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("render", help="draw an edge set as SVG", parents=[polygon])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--edges", metavar="LIST")
    group.add_argument("--blocker-spec", metavar="START,T,EPS...")
    p.add_argument("--thick-edges", metavar="LIST")
    p.add_argument("--context-edges", metavar="LIST")
    p.add_argument("--labels", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cli.cmd_render)

    return parser


PATHS = [(), ("spm",), ("spm", "enumerate"), ("spm", "parallel"), ("spm", "triangular"),
         ("blocker",), ("blocker", "enumerate"), ("blocker", "count"),
         ("blocker", "check"), ("oracle",), ("verify",), ("render",)]
# On every path: help, no further argument, `--m` without a value, not an
# int, an int, and given twice.
PATH_TAILS = [("--help",), (), ("--m",), ("--m", "x"), ("--m", "3"), ("--m", "3", "--m", "4")]
OTHER_CASES = [
    ("frobnicate",),
    ("spm", "frobnicate"),
    ("blocker", "frobnicate", "--m", "3"),
    ("spm", "enumerate", "--m", "3", "--format", "xml"),
    ("blocker", "enumerate", "--m", "3", "--format", "xml"),
    ("blocker", "count", "--m", "3", "--bogus"),
    ("render", "--m", "2", "--edges", "0-1", "--blocker-spec", "0,2", "--out", "x.svg"),
    ("spm", "enumerate", "--m", "3", "--format"),
    ("blocker", "count", "--by-spine"),
    # -h after a valid command
    ("blocker", "-h"),
    ("blocker", "check", "--m", "3", "--edges", "0-1", "-h"),
    ("verify", "--m-min", "2", "-h"),
    # an option before the command
    ("--m", "3", "spm", "enumerate"),
    ("--format", "json", "blocker", "enumerate", "--m", "2"),
    ("-h", "spm", "enumerate"),
    # a command name as another argument's value
    ("blocker", "check", "--m", "2", "--edges", "render"),
    # commands that run
    ("verify", "--m-min", "2", "--m-max", "3"),
    ("render", "--m", "3", "--blocker-spec", "0,2,1", "--out", "x.svg"),
]
# The timings in `oracle` and `verify` reports differ from run to run.
TIMINGS = re.compile(r'"(millis|durations_ms)":(\{[^}]*\}|[0-9.e-]+)')
CASES = [(*path, *tail) for path in PATHS for tail in PATH_TAILS] + OTHER_CASES


def outcome(capsys, monkeypatch, argv, build):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", build)
        status = cli.run_cli(list(argv))
    out, err = capsys.readouterr()
    return status, TIMINGS.sub(r'"\1":0', out), err


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_the_path_parser_answers_as_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(capsys, monkeypatch, argv, full_parser)
    assert outcome(capsys, monkeypatch, argv, cli.build_parser) == expected

