"""The checks of `wide.py`, which CI runs past tier-1's sizes: each passes
from the command line at m = 4, and each fails on a doctored program."""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convex_blockers
import wide
from convex_blockers import blockers, cli, matchings

WIDE = Path(wide.__file__)


@pytest.mark.parametrize("check", wide.CHECKS)
def test_each_check_passes_from_the_command_line(check):
    env = {**os.environ, "PYTHONPATH": str(Path(convex_blockers.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(WIDE), check, "--m", "4"],
                          capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.count(b"\n") == 1 and b"m=4" in done.stdout


def test_an_unknown_check_is_refused():
    with pytest.raises(SystemExit) as refused:
        wide.main(["scan", "--m", "4"])
    assert refused.value.code == 2


def _cli_in_process(*args, unbuffered=False, timeout=None):
    # `wide._cli` without a child process, so that a doctored module of
    # this process reaches the CLI too.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run_cli(args)
    return status, out.getvalue().encode()


def _drop_an_edge(generate_blocker):
    return lambda ctx, spec: frozenset(sorted(generate_blocker(ctx, spec))[1:])


def _drop_the_last_violation(scan):
    def doctored(ctx, edges):
        violations, path, spine = scan(ctx, edges)
        return violations[:-1], path, spine
    return doctored


def _swap_two_fans(triangular_spm_from_blocks):
    return lambda ctx, start, a, b, c: triangular_spm_from_blocks(ctx, start, b, a, c)


def _drop_the_first_split(spm_splits):
    return lambda *args: itertools.islice(spm_splits(*args), 1, None)


def _another_spine_length(blocker_json):
    return lambda ctx, spec, edges: {**blocker_json(ctx, spec, edges), "t": spec.t + 1}


def _block_every_set(first_avoiding_spm):
    return lambda ctx, edges: None


DOCTORED = [
    ("parse-validate", blockers, "generate_blocker", _drop_an_edge),
    ("scan-twin", blockers, "_scan", _drop_the_last_violation),
    ("triangular", matchings, "triangular_spm_from_blocks", _swap_two_fans),
    ("enumerate-cap", cli, "_spm_splits", _drop_the_first_split),
    ("enumerate-cap", cli, "_blocker_json", _another_spine_length),
    ("blocker-check", cli, "first_avoiding_spm", _block_every_set),
    ("blocker-check", blockers, "_scan", _drop_the_last_violation),
]


@pytest.mark.parametrize("check,module,name,doctor", DOCTORED,
                         ids=[f"{check}-{name}" for check, _m, name, _d in DOCTORED])
def test_each_check_fails_on_a_doctored_program(monkeypatch, check, module, name, doctor):
    monkeypatch.setattr(wide, "_cli", _cli_in_process)
    wide.CHECKS[check](4)
    monkeypatch.setattr(module, name, doctor(getattr(module, name)))
    with pytest.raises(wide.CheckFailed):
        wide.CHECKS[check](4)
