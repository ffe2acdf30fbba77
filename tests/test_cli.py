from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import convex_blockers
from conftest import blocker_specs, edges
from convex_blockers import cli
from convex_blockers.blockers import (
    BlockerSpec,
    blocker_to_json,
    enumerate_blockers,
    generate_blocker,
)
from convex_blockers.cli import _CHUNK, run_cli
from convex_blockers.geometry import Edge, PolygonContext, edges_to_lists, edges_to_text
from convex_blockers.errors import InfeasibilityError, InputError
from convex_blockers.matchings import enumerate_spms, is_spm, parallel_spm, triangular_spm
from test_blockers import MUTANTS


def run(capsys, *args):
    status = run_cli(list(args))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# ---------------------------------------------------------------------------
# counting and enumeration
# ---------------------------------------------------------------------------

def test_blocker_count(capsys):
    status, out, _ = run(capsys, "blocker", "count", "--m", "6")
    assert status == 0
    assert out == "192\n"


def test_blocker_count_by_spine(capsys):
    status, out, _ = run(capsys, "blocker", "count", "--m", "6", "--by-spine")
    assert status == 0
    assert out.splitlines() == ["1", "4", "6", "4", "1"]


@pytest.mark.parametrize("flags", [[], ["--by-spine"]])
@pytest.mark.parametrize("m", ["1", "-4"])
def test_blocker_count_refuses_small_m(capsys, m, flags):
    status, out, err = run(capsys, "blocker", "count", "--m", m, *flags)
    assert (status, out, err) == (1, "", f"error: m must be >= 2, got {m}\n")


def test_spm_enumerate_lines(capsys):
    status, out, _ = run(capsys, "spm", "enumerate", "--m", "2")
    assert status == 0
    assert out.splitlines() == ["0-1,2-3", "0-3,1-2"]


def test_spm_enumerate_json(capsys):
    status, out, _ = run(capsys, "spm", "enumerate", "--m", "2", "--format", "json")
    assert status == 0
    assert json.loads(out) == [[[0, 1], [2, 3]], [[0, 3], [1, 2]]]


@pytest.mark.parametrize("m", range(1, 10))
def test_spm_enumerate_lines_match_edge_sets(capsys, m):
    status, out, err = run(capsys, "spm", "enumerate", "--m", str(m))
    assert (status, err) == (0, "")
    spms = enumerate_spms(PolygonContext(m))
    assert out == "".join(edges_to_text(s) + "\n" for s in spms)


@pytest.mark.parametrize("m", range(1, 8))
def test_spm_enumerate_json_matches_edge_sets(capsys, m):
    status, out, err = run(capsys, "spm", "enumerate", "--m", str(m), "--format", "json")
    assert (status, err) == (0, "")
    spms = enumerate_spms(PolygonContext(m))
    assert out == json.dumps([edges_to_lists(s) for s in spms], separators=(",", ":")) + "\n"


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_spm_enumerate_makes_no_edge(capsys, monkeypatch, fmt):
    # Each edge's text comes from its two ints, so the edge store stays empty.
    contexts = []
    monkeypatch.setattr(cli, "PolygonContext",
                        lambda m: contexts.append(PolygonContext(m)) or contexts[-1])
    status, out, err = run(capsys, "spm", "enumerate", "--m", "6", "--format", fmt)
    assert (status, err, len(contexts)) == (0, "", 1) and out
    assert not {"edge_of", "edge_table", "edge_rank"} & set(vars(contexts[0]))


def _child_env(unbuffered: bool) -> dict:
    """The test's environment with the package on the path, and with or
    without `PYTHONUNBUFFERED`, whatever the test runner was started with."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(convex_blockers.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("command", [("spm", "enumerate", "--m", "10"),
                                     ("spm", "enumerate", "--m", "10", "--format", "json"),
                                     ("blocker", "enumerate", "--m", "10"),
                                     ("blocker", "enumerate", "--m", "10", "--format", "json")])
def test_closed_stdout_pipe_exits_quietly(command):
    # Each output is several pipe buffers long, so the writer still has
    # text to write when the reader closes its end after the first bytes;
    # the JSON array is a single line, so the reader takes bytes, not a line.
    for unbuffered in (False, True):
        with subprocess.Popen([sys.executable, "-m", "convex_blockers", *command],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=_child_env(unbuffered)) as proc:
            assert proc.stdout.read(64)
            proc.stdout.close()
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert (unbuffered, proc.returncode, err) == (unbuffered, 1, b"")


def test_spm_parallel(capsys):
    status, out, _ = run(capsys, "spm", "parallel", "--m", "3", "--l", "2")
    assert status == 0
    assert out == "0-3,1-2,4-5\n"


def test_spm_triangular(capsys):
    status, out, _ = run(capsys, "spm", "triangular", "--m", "6", "--edges", "3,8,11")
    assert status == 0
    assert out == "0-5,1-4,2-3,6-9,7-8,10-11\n"


def test_blocker_enumerate_lines(capsys):
    status, out, _ = run(capsys, "blocker", "enumerate", "--m", "2")
    assert status == 0
    assert out.splitlines() == ["0-1,1-2", "1-2,2-3", "0-3,2-3", "0-1,0-3"]


def test_blocker_enumerate_json(capsys):
    status, out, _ = run(capsys, "blocker", "enumerate", "--m", "3",
                         "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert len(payload) == 12
    assert payload[0] == {"m": 3, "start": 0, "t": 2, "eps": [1],
                          "edges": [[0, 1], [1, 2], [1, 4]]}


# ---------------------------------------------------------------------------
# blocker check
# ---------------------------------------------------------------------------

def test_blocker_check_accepts_valid_blocker(capsys):
    status, out, _ = run(capsys, "blocker", "check", "--m", "6",
                         "--edges", "0-1,1-2,2-3,2-5,2-7,1-10")
    assert status == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert (payload["start"], payload["t"], payload["eps"]) == (0, 3, [1, 2, 4])
    assert payload["blocks_all_spms"] is True
    assert payload["caterpillar"]["violations"] == []


def test_blocker_check_rejects_matching_shaped_set(capsys):
    status, out, _ = run(capsys, "blocker", "check", "--m", "3",
                         "--edges", "0-1,2-3,4-5")
    assert status == 1
    assert out == (
        '{"ok":false,"violation":"boundary_not_consecutive",'
        '"witness":[[0,1],[2,3],[4,5]],"missed_spm":[[0,5],[1,2],[3,4]],'
        '"caterpillar":{"is_tree":false,"spine_length":1,"boundary_path":[[0,1]],'
        '"violations":[{"violation":"not_a_tree","witness":[[0,1],[2,3],[4,5]]},'
        '{"violation":"boundary_not_consecutive","witness":[[0,1],[2,3],[4,5]]}]},'
        '"blocks_all_spms":false}\n')


def test_blocker_check_out_of_range_vertex_is_domain_error(capsys):
    status, out, err = run(capsys, "blocker", "check", "--m", "3",
                           "--edges", "0-1,1-2,2-9")
    assert status == 1
    assert out == ""
    assert "out of range" in err


def test_blocker_check_beyond_the_enumeration_cap(capsys):
    ctx = PolygonContext(14)
    blocker = generate_blocker(ctx, BlockerSpec(3, 4, (1, 2, 4, 5, 7, 8, 9, 10, 11, 12)))
    status, out, _ = run(capsys, "blocker", "check", "--m", "14",
                         "--edges", edges_to_text(blocker))
    assert status == 0
    assert json.loads(out)["blocks_all_spms"] is True
    # The swap empties odd parallel class 7, so its parallel matching escapes.
    mutant = (blocker - {ctx.edge(3, 4)}) | {ctx.edge(0, 13)}
    assert len(mutant) == 14
    status, out, _ = run(capsys, "blocker", "check", "--m", "14",
                         "--edges", edges_to_text(mutant))
    assert status == 1
    payload = json.loads(out)
    assert payload["blocks_all_spms"] is False
    missed = frozenset(Edge(a, b) for a, b in payload["missed_spm"])
    assert is_spm(ctx, missed)
    assert not missed & mutant


def test_blocker_check_wrong_cardinality_is_domain_error(capsys):
    status, out, err = run(capsys, "blocker", "check", "--m", "3",
                           "--edges", "0-1,1-2")
    assert status == 1
    assert out == ""
    assert "error:" in err


# A blank item reads as an empty one: both are skipped, before and after
# any edge, and the check prints what it prints for `0-1,1-2,1-4`.
@pytest.mark.parametrize("text", ["0-1,,1-2,1-4", "0-1, ,1-2,1-4", "0-1,1-2,1-4,\t",
                                  " ,0-1,1-2, ,1-4, ,"])
def test_blocker_check_skips_blank_items(capsys, text):
    expected = run(capsys, "blocker", "check", "--m", "3", "--edges", "0-1,1-2,1-4")
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, "blocker", "check", "--m", "3", "--edges", text) == expected


def test_blocker_check_repeated_edge_is_domain_error(capsys):
    # Folded into a set, the three items would pass as a two-edge blocker.
    status, out, err = run(capsys, "blocker", "check", "--m", "2",
                           "--edges", "0-1,1-0,1-2")
    assert (status, out, err) == (1, "", "error: repeated edge 1-0\n")


# ---------------------------------------------------------------------------
# oracle and verify
# ---------------------------------------------------------------------------

def test_oracle_naive(capsys):
    status, out, _ = run(capsys, "oracle", "--m", "2", "--mode", "naive")
    assert status == 0
    payload = json.loads(out)
    assert payload["mode"] == "naive"
    assert payload["minimum_size"] == 2
    assert payload["count"] == 4


def test_oracle_pruned(capsys):
    status, out, _ = run(capsys, "oracle", "--m", "4", "--mode", "pruned")
    assert status == 0
    payload = json.loads(out)
    assert payload["mode"] == "class_pruned"
    assert payload["minimum_size"] == 4
    assert payload["count"] == 32


def test_oracle_runs_past_m_8_up_to_the_pruned_cap(capsys):
    # The pruned cap is 11; m = 9 finds all m * 2^(m-1) sets.
    status, out, err = run(capsys, "oracle", "--m", "9")
    assert (status, err) == (0, "")
    assert '"count":2304,' in out and '"nodes":91009,' in out


# SHA-256 of the `oracle` stdout with its "millis" field cut out.  The
# pruned digests were recorded before the searches moved to complement
# masks; the naive ones were re-pinned when its `nodes` became search-tree
# calls, and `ORACLE_SET_DIGESTS` below keeps its sets on the older bytes.
ORACLE_DIGESTS = [
    ("naive", 1, "bddb92baabf6bdf531300e3010fa7e06c68405280217b7041cb1045293e9604a"),
    ("naive", 2, "c20258b6b612994f2d4973f007ccef2b73ad359c9a88529e0f4ff4d5bfca7b51"),
    ("naive", 3, "19170fe9f8496a712dbf9a353eba6197f2879bfe5c16381ba96f870e61f4016f"),
    ("naive", 4, "3ee676d758734fa1924290d43061116001d5b4381bf9a6ac8c2993d29afe5403"),
    ("naive", 5, "15283b6b2c40ec5fca0ad8dc7c86a5d50b775ff1e4547bb3f9dcf797c2d7f76c"),
    ("pruned", 1, "7a9c470a13f9ea8209f7ac572d8a17776bac5ec325f84929f28657847aea4e5f"),
    ("pruned", 2, "96364d2e1919d4eadc48ee623805beed4976fc673cca7f7a5dcbe740f98ece79"),
    ("pruned", 3, "1c3bd16aa6c38aed892b8e80e8b4bd75335e74c066a2922049a7e3ccec051ea6"),
    ("pruned", 4, "5af28da2e6c86d157c0531bcd8b944548e57629b1b932d1db16a114ed9516f5d"),
    ("pruned", 5, "73cc03622f5aeea76cb5182c2779a2be54d72af03dd866292f3ecf36a2b346d6"),
    ("pruned", 6, "9cd83e6e9868c87a682a651a4fb19847bd11300a73e982938e086ba8b6860ef8"),
    ("pruned", 7, "74a2f70e1ad432e7a0f028dda69c30daaec2ac82837b8685ae94a277dc0e9a01"),
    ("pruned", 8, "7359849ef7d6e3a98893295859e0727b10bfa7b478d08755e978fe83ca5b05bb"),
]


@pytest.mark.parametrize("mode,m,digest", ORACLE_DIGESTS)
def test_oracle_stdout_is_pinned(capsys, mode, m, digest):
    status, out, err = run(capsys, "oracle", "--m", str(m), "--mode", mode)
    assert (status, err) == (0, "")
    stripped, cut = re.subn(r',"millis":[0-9.]+', "", out)
    assert cut == 1
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


# SHA-256 of the naive `oracle` stdout with both "nodes" and "millis" cut
# out, recorded before the naive search became a search tree: the minimum
# size, the sets and their order stay byte-identical whatever `nodes` counts.
ORACLE_SET_DIGESTS = [
    (1, "3741cb384c7de6f9c31ea0e6d0e6c707cab9ce6a766d0a21c7bccf8e9361ad43"),
    (2, "ad6cdfcbbc909825e881d92ef6b75ea0b989983cb7de02632273dfec53f92eac"),
    (3, "a8447572c12a2f4259c459f012509cad6cad11d876b26344bc900539e282b678"),
    (4, "1b2cbf9fef44e8d8bf8149a81db610a66174be5511519d6d69f8ed2eb935228b"),
    (5, "89758bce69df83625fce65e257137d77ace83e759b5df690df216045231d5f4b"),
]


@pytest.mark.parametrize("m,digest", ORACLE_SET_DIGESTS)
def test_naive_oracle_sets_are_pinned(capsys, m, digest):
    status, out, err = run(capsys, "oracle", "--m", str(m), "--mode", "naive")
    assert (status, err) == (0, "")
    stripped, cut = re.subn(r',"(nodes|millis)":[0-9.]+', "", out)
    assert cut == 2
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


# The same cut of the pruned `oracle` stdout, recorded before the pruned
# search's class order may change, so its sets and their order stay pinned
# to these bytes whatever `nodes` counts.
PRUNED_SET_DIGESTS = [
    (1, "c02a75c1e47da3cb7c8696e6f51af006f578a4faadd1ae6945896b923d96fe84"),
    (2, "514e35826643871af9635976d2dad44f58e878b6c9bab2a3c6d710546738409a"),
    (3, "47bd7b7dd59b86a4ffdc0e67e95c09b6d4ebc37386247830a14df36152e1a767"),
    (4, "a7c349e9a4abc952d637c500e93f84354495880078b6c7765d874ea1232f9625"),
    (5, "25902b0afa1a3233d7a412d52d9b405d29d013124db73b8d66274daf7a9d32d3"),
    (6, "3023aab01f1e1bb416dbb68506eb6532360c627958a9bd68ad651687b356ec54"),
    (7, "731a461d17b5b9dd2c1e57b421e673d3afc8615152639959841e1a8b064ded85"),
    (8, "40e5f0056e9ecbdd4bc22bf324c769cf499ed7d4500878f82ff6709d473be91d"),
]


@pytest.mark.parametrize("m,digest", PRUNED_SET_DIGESTS)
def test_pruned_oracle_sets_are_pinned(capsys, m, digest):
    status, out, err = run(capsys, "oracle", "--m", str(m), "--mode", "pruned")
    assert (status, err) == (0, "")
    stripped, cut = re.subn(r',"(nodes|millis)":[0-9.]+', "", out)
    assert cut == 2
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


# SHA-256 digests of more outputs, recorded before every bound on m moved
# behind `errors`: `verify` stdout with "durations_ms" cut out, `blocker
# enumerate` in both formats, and `blocker check` over a fixed corpus.
VERIFY_DIGEST = "7d66ad34b3f63a05af507586731a0c266ca46957ee437070a22e154440465f5b"
ENUMERATE_DIGESTS = [
    ("lines", 2, "ec4f8147fe88067c92d770600fb36e626d59a260a005b89df64a8c5973864111"),
    ("lines", 3, "17167eed788d32bad512b6af624712854a7d5fa0c4d7d1e95ae03b012df8da91"),
    ("lines", 4, "2ee29794043502470c31608fe2464b1b9fac730b8ca39b052a9b69647b28d7ba"),
    ("lines", 5, "4b625ba6d8a360217cf09d597eb550628f96558e24949ee8b3306b5378ded85f"),
    ("lines", 6, "e8c994b92a5de61acec84390853276a349b6920b629a5a6d3a90363f7296294d"),
    ("json", 2, "074f34840639afc1233996951b22ae0453b75bf650872bf3d3976bec0946667b"),
    ("json", 3, "b99545b947ce2cfef4b40aa911261a2e06e5e579485cc48e36d72b31f25e8b01"),
    ("json", 4, "48c51fe3149f23b74a4abdb03af1bf5b0c14e829e714072469a24f7e78a8cabd"),
    ("json", 5, "3dc2a068204a411ed5ba6db91ce2efb28cb21f29ca7fd6f1e90ba954787dab0d"),
    ("json", 6, "51d971b6b46eec1546f68059b47e03d0c42cacc9d4823b21b01bb55348824f10"),
]
CHECK_CORPUS_DIGEST = "d73c23860c66d15e7778c93fa36380d4aab3d74c15e987cc5257525b080059c3"
# SHA-256 digests of `spm enumerate` stdout, recorded from the per-length
# enumerator that `_slow_pair_matchings` keeps in `test_matchings.py`:
# lines for m = 1..11 and JSON for m = 1..10.
SPM_ENUMERATE_DIGESTS = [
    ("lines", 1, "06c7168eabf724fe9d8184b87c401160ff4c740c5782a6445495523f811d3cfd"),
    ("lines", 2, "7db7c35947c0282e9ff67104865830a38840ca4edc07af4f46689deebfb11bb4"),
    ("lines", 3, "3e329814dcb2ed731582410db7aa719fc4882d725f485aac4376706a9baaac4c"),
    ("lines", 4, "da75db8986f078ecb8f301aff6f4c7614e7444fe36d9a93485cac554a4d38193"),
    ("lines", 5, "adbad61068387675b80f14a9b78aa9d7664707e76c7be2698bafd0e7b9f342c0"),
    ("lines", 6, "5e24e943127afef50ac6570f223e7fbde1ce704bc8daa067aab1eae40c07b1b2"),
    ("lines", 7, "fd705dd21c683d650ec1f02cfcaf3d8ba8da512f800b2dc28987298889888eeb"),
    ("lines", 8, "38a7da0292f6963368df66eba3ed1e866333283979200dc0e9221d38404adbd1"),
    ("lines", 9, "12eb44bb0546f0d192418a91ca4c39394dc7666b3eb36fd474e56f2ae7273c09"),
    ("lines", 10, "33d407ae9693c9d2ae7562d67aa3e14e901718072982c7f334b0535d5fe2b62e"),
    ("lines", 11, "d775a3ae8662551bd7c180e72c1fb44e8c8e751f57ef7b93e1ddbb58fafac880"),
    ("json", 1, "ad2658a8cd6fa0075259abcac7146a690166408c24dd5b9aa418f86f4ae9958a"),
    ("json", 2, "e7e374146bab8120f451c0de5851022240953df7811d5a5caed1f74e0650ff0a"),
    ("json", 3, "99fe81bf057ab056448f0cbde35572fcf022fc6f1aeb06545d542712ce8c5cf4"),
    ("json", 4, "3d1f180d9dda6aa5f4f4f38e6f9b2a42d62cf3f21a88e1d81d6818ef002ab859"),
    ("json", 5, "460dcd0aa67db1a095dfc3503bdebb76686fc391c0c2484d221d79eaf1bb533f"),
    ("json", 6, "d5785f7319f1c4c279b87226042834749f98615c9fa021d5d729a21078074321"),
    ("json", 7, "28792b61076a8e86ead349575e7ad0c542cfbbbfe6e73cf7cb017e08525676cf"),
    ("json", 8, "693c71421c72e7d8ae18e5cd63da51e6db8e451a8e408788553bc55f6d85a576"),
    ("json", 9, "10ff017f24619b73da3487e786d1c5d7be594b65908d1513581eec2ec5ac1e5f"),
    ("json", 10, "4f54714348f4a8552846a8f74b74058b5407f2913509866f389ba1bff7696fee"),
]


def test_verify_stdout_is_pinned(capsys):
    status, out, err = run(capsys, "verify", "--m-min", "2", "--m-max", "8",
                           "--naive-up-to", "5")
    assert (status, err) == (0, "")
    stripped, cut = re.subn(r',"durations_ms":\{[^}]*\}', "", out)
    assert cut == 7
    assert hashlib.sha256(stripped.encode()).hexdigest() == VERIFY_DIGEST


@pytest.mark.parametrize("fmt,m,digest", ENUMERATE_DIGESTS,
                         ids=[f"{fmt}-{m}" for fmt, m, _digest in ENUMERATE_DIGESTS])
def test_blocker_enumerate_stdout_is_pinned(capsys, fmt, m, digest):
    status, out, err = run(capsys, "blocker", "enumerate", "--m", str(m),
                           "--format", fmt)
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["lines", "json"])
@pytest.mark.parametrize("m", [7, 8])
def test_blocker_enumerate_equals_the_per_spec_rendering(capsys, m, fmt):
    # The command turns start 0's blockers through the other starts; the
    # reference renders every spec through `generate_blocker` on its own.
    ctx = PolygonContext(m)
    specs = blocker_specs(ctx)
    if fmt == "json":
        expected = json.dumps([blocker_to_json(ctx, spec) for spec in specs],
                              separators=(",", ":")) + "\n"
    else:
        expected = "".join(edges_to_text(generate_blocker(ctx, spec)) + "\n"
                           for spec in specs)
    status, out, err = run(capsys, "blocker", "enumerate", "--m", str(m),
                           "--format", fmt)
    assert (status, out, err) == (0, expected, "")


@pytest.mark.parametrize("fmt,m,digest", SPM_ENUMERATE_DIGESTS,
                         ids=[f"{fmt}-{m}" for fmt, m, _digest in SPM_ENUMERATE_DIGESTS])
def test_spm_enumerate_stdout_is_pinned(capsys, fmt, m, digest):
    status, out, err = run(capsys, "spm", "enumerate", "--m", str(m), "--format", fmt)
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["lines", "json"])
@pytest.mark.parametrize("command,items", [("spm", 4862), ("blocker", 2304)])
def test_bulk_output_takes_one_write_per_chunk(monkeypatch, command, items, fmt):
    # `sys.stdout` is looked up at each write, so a stand-in sees them all.
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert run_cli([command, "enumerate", "--m", "9", "--format", fmt]) == 0
    text = out.getvalue()
    assert len(json.loads(text) if fmt == "json" else text.splitlines()) == items
    assert out.writes <= -(-items // _CHUNK) + 2


# Under `-u` each `sys.stdout.write` is its own system call: the chunked
# bulk writers must still write the pinned bytes.  With a buffered stdout,
# `main`'s flush before `os._exit` is the only thing that writes the tail.
UNBUFFERED_DIGESTS = (
    [("spm", fmt, m, digest) for fmt, m, digest in SPM_ENUMERATE_DIGESTS if m == 10]
    + [("blocker", fmt, m, digest) for fmt, m, digest in ENUMERATE_DIGESTS if m == 6])
STDOUT_CASES = [(unbuffered, *case) for case in UNBUFFERED_DIGESTS
                for unbuffered in (True, False)]


@pytest.mark.parametrize(
    "unbuffered,command,fmt,m,digest", STDOUT_CASES,
    ids=[f"{c}-{fmt}-{m}" + ("" if u else "-buffered") for u, c, fmt, m, _d in STDOUT_CASES])
def test_unbuffered_stdout_writes_the_pinned_bytes(unbuffered, command, fmt, m, digest):
    done = subprocess.run([sys.executable, "-m", "convex_blockers", command, "enumerate",
                           "--m", str(m), "--format", fmt],
                          capture_output=True, env=_child_env(unbuffered), timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == digest


# `main` runs `blocker count --m 3`: an exit handler prints to stdout, and an
# object held to the end says on stderr whether the interpreter tore its
# modules down.  The command sits in the script, since pdb 3.13.0 takes
# `--m` after the script for an option of its own.
MAIN_SCRIPT = """
import atexit, os, sys
class Teardown:
    def __del__(self, write=os.write):
        write(2, b"teardown\\n")
held = Teardown()
atexit.register(print, "exit handler")
if sys.argv[1] == "traced":
    sys.settrace(lambda frame, event, arg: None)
sys.argv[1:] = ["blocker", "count", "--m", "3"]
from convex_blockers.cli import main
main()
"""


def test_main_ends_the_process_as_run_cli_returns(capsys, tmp_path):
    def child(*argv, stdin=b""):
        done = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                              env=_child_env(False), timeout=60)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    statuses = []
    for args in (["blocker", "count", "--m", "3"],
                 ["blocker", "check", "--m", "3", "--edges", "0-9"],
                 ["spm", "enumerate"]):
        expected = run(capsys, *args)
        assert child("-m", "convex_blockers", *args) == expected
        statuses.append(expected[0])
    assert statuses == [0, 1, 2]
    # The exit handler runs and its line is flushed; the teardown is skipped
    # unless a tracer watches, and then the interpreter exits as usual.
    assert child("-c", MAIN_SCRIPT, "plain") == (0, "12\nexit handler\n", "")
    assert child("-c", MAIN_SCRIPT, "traced") == (0, "12\nexit handler\n", "teardown\n")
    # cProfile prints its table at the interpreter's exit: through
    # `sys.setprofile` before Python 3.12, a `sys.monitoring` tool since.
    status, out, err = child("-m", "cProfile", "-m", "convex_blockers",
                             "blocker", "count", "--m", "3")
    assert (status, err) == (0, "") and out.startswith("12\n")
    assert "function calls" in out and "Ordered by" in out
    # pdb's `continue` with no breakpoint clears the trace function; pdb
    # still sees the exit and offers a restart, which `q` ends.
    script = tmp_path / "count.py"
    script.write_text(MAIN_SCRIPT)
    status, out, _err = child("-m", "pdb", str(script), "plain", stdin=b"c\nq\n")
    assert status == 0
    assert "12\nThe program exited via sys.exit(). Exit status: 0\n" in out


def check_corpus() -> list[tuple[int, frozenset[Edge]]]:
    """Every blocker for m = 2..5, each followed by a seeded swap of one of
    its edges for an edge outside it, then the structural mutants."""
    rng = random.Random(2009)
    corpus = []
    for m in range(2, 6):
        ctx = PolygonContext(m)
        universe = ctx.edge_table
        for blocker in enumerate_blockers(ctx):
            dropped = rng.choice(sorted(blocker))
            added = rng.choice([e for e in universe if e not in blocker])
            corpus += [(m, blocker), (m, blocker - {dropped} | {added})]
    return corpus + [(m, edges(text)) for m, text, _name in MUTANTS]


def test_blocker_check_over_a_fixed_corpus_is_pinned(capsys):
    digest = hashlib.sha256()
    for m, edge_set in check_corpus():
        status, out, err = run(capsys, "blocker", "check", "--m", str(m),
                               "--edges", edges_to_text(edge_set))
        digest.update(f"{status}\n{out}{err}".encode())
    assert digest.hexdigest() == CHECK_CORPUS_DIGEST


@pytest.mark.parametrize("text", [
    "0-1,1-\u0662", "0-+1,0_1-2",
    # past `int`'s digit limit: one error line, not a ValueError's traceback
    pytest.param("0-1,1-" + "1" * 5000, id="0-1,1-5000-digits"),
    pytest.param("0-1," + "1" * 5000 + "-" + "1" * 5000, id="0-1,5000-digits-twice")])
def test_blocker_check_refuses_vertex_text_that_is_not_ascii_digits(capsys, text):
    status, out, err = run(capsys, "blocker", "check", "--m", "2", "--edges", text)
    assert (status, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: bad edge ") and err.endswith("; vertices must be integers\n")
    if len(text) > 40:  # the refusal echoes the edge's first 40 characters
        bad = text.split(",")[-1]
        assert err == f"error: bad edge {bad[:40]!r}...; vertices must be integers\n"
        assert len(err) < 200


@pytest.mark.parametrize("text, shown", [
    ("1-1", "[1,1]"), ("0-1,2-02", "[2,2]"),
    pytest.param("0-1," + "1" * 4000 + "-" + "1" * 4000, f"[{'1' * 40}...,{'1' * 40}...]",
                 id="0-1,4000-digits-twice")])
def test_blocker_check_refuses_a_degenerate_edge_as_degenerate(capsys, text, shown):
    # One short `error:` line that names the edge degenerate.
    status, out, err = run(capsys, "blocker", "check", "--m", "2", "--edges", text)
    assert (status, out, err) == (1, "", f"error: degenerate edge {shown}\n")


def test_oracle_naive_cap_maps_to_domain_error(capsys):
    status, out, err = run(capsys, "oracle", "--m", "6", "--mode", "naive")
    assert status == 1
    assert "error:" in err


def test_verify_passes(capsys):
    status, out, _ = run(capsys, "verify", "--m-min", "2", "--m-max", "3",
                         "--naive-up-to", "3")
    assert status == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["m"] for r in reports] == [2, 3]
    assert all(r["verdict"] == "PASS" for r in reports)
    assert reports[0]["generated_count"] == 4
    assert reports[1]["lower_bound_pass"] is True


# ---------------------------------------------------------------------------
# flag and domain errors
# ---------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    status, _, _ = run(capsys, "frobnicate")
    assert status == 2


def test_missing_required_flag_is_usage_error(capsys):
    status, _, _ = run(capsys, "blocker", "count")
    assert status == 2


# Each command that takes --m, with its other required flags.
POLYGON_COMMANDS = [
    ["spm", "enumerate"],
    ["spm", "parallel", "--l", "1"],
    ["spm", "triangular", "--edges", "1,2,3"],
    ["blocker", "enumerate"],
    ["blocker", "count"],
    ["blocker", "check", "--edges", "0-1"],
    ["oracle"],
    ["render", "--edges", "0-1"],
]


@pytest.mark.parametrize("m_flag, message", [
    ([], "error: the following arguments are required: --m\n"),
    (["--m", "x"], "error: argument --m: invalid int value: 'x'\n"),
], ids=["missing", "not-an-int"])
@pytest.mark.parametrize("command", POLYGON_COMMANDS, ids=lambda command: "-".join(
    word for word in command[:2] if not word.startswith("--")))
def test_every_polygon_command_takes_m_as_a_required_int(capsys, tmp_path,
                                                         command, m_flag, message):
    target = tmp_path / "x.svg"
    argv = [*command, *m_flag]
    if command[0] == "render":
        argv += ["--out", str(target)]
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("usage: convex-blockers ") and err.endswith(message)
    assert not target.exists()


# Each integer flag, with the other flags of its command.  `int` would take
# `٣` as 3, `1_0` as 10 and `+4` as 4, and argparse echoed a value of
# 5,000 digits whole.
INT_FLAGS = {
    "--m": ["blocker", "count", "--m", "{}"],
    "--l": ["spm", "parallel", "--m", "3", "--l", "{}"],
    "--m-min": ["verify", "--m-min", "{}", "--m-max", "3"],
    "--m-max": ["verify", "--m-min", "2", "--m-max", "{}"],
    "--naive-up-to": ["verify", "--m-min", "2", "--m-max", "3", "--naive-up-to", "{}"],
}


@pytest.mark.parametrize("value", ["٣", "1_0", "+4", "1" * 5000],
                         ids=["arabic-indic", "underscore", "plus", "5000-digits"])
@pytest.mark.parametrize("flag", INT_FLAGS)
def test_integer_flags_take_only_ascii_digits(capsys, flag, value):
    argv = [value if word == "{}" else word for word in INT_FLAGS[flag]]
    status, out, err = run(capsys, *argv)
    echo = repr(value) if len(value) <= 40 else f"{value[:40]!r}..."
    assert (status, out) == (2, "")
    assert err.startswith("usage: convex-blockers ")
    assert err.endswith(f" error: argument {flag}: invalid int value: {echo}\n")
    assert len(err.encode()) < 256  # `verify`'s usage alone takes 120 bytes


# Each choice flag, after the other flags of its command.  argparse's own
# `invalid choice` line repeats the value whole.
CHOICE_FLAGS = [
    pytest.param(["oracle", "--m", "3", "--mode"], id="oracle-mode"),
    pytest.param(["spm", "enumerate", "--m", "3", "--format"], id="spm-format"),
    pytest.param(["blocker", "enumerate", "--m", "3", "--format"], id="blocker-format"),
]


@pytest.mark.parametrize("command", CHOICE_FLAGS)
def test_choice_flags_cut_a_long_value(capsys, command):
    value = "x" * 5000
    status, out, err = run(capsys, *command, value)
    assert (status, out) == (2, "")
    assert err.startswith("usage: convex-blockers ")
    assert err.endswith(f" error: argument {command[-1]}: invalid choice: "
                        f"{value[:40]!r}...\n")
    assert len(err.encode()) < 256


# A value of up to 40 characters meets argparse's own check and refusal,
# whose list of choices is worded differently across Python versions.
@pytest.mark.parametrize("command", CHOICE_FLAGS)
@pytest.mark.parametrize("value", ["x", "x" * 40])
def test_choice_flags_keep_argparses_refusal_up_to_40_characters(capsys, command, value):
    status, out, err = run(capsys, *command, value)
    assert (status, out) == (2, "")
    assert (f" error: argument {command[-1]}: invalid choice: {value!r} "
            "(choose from ") in err


# The positions are ASCII digits after an optional `-`: `int` would read
# `\u0665` as 5, `+9` and `0_9` as 9, and so take three of these as (1, 5, 9).
@pytest.mark.parametrize("edges", ["1,x,9", "1,9", "1,\u0665,9", "1,5,+9", "1,5,0_9",
                                   "1,5,- 9"])
def test_spm_triangular_bad_positions_is_domain_error(capsys, edges):
    status, out, err = run(capsys, "spm", "triangular", "--m", "6", "--edges", edges)
    assert (status, out) == (1, "")
    assert err == ("error: --edges expects three comma-separated positions, "
                   f"got {edges!r}\n")


def test_domain_error_status(capsys):
    status, out, err = run(capsys, "spm", "parallel", "--m", "3", "--l", "9")
    assert status == 1
    assert out == ""
    assert "error:" in err


def test_infeasible_triangle_status(capsys):
    status, _, err = run(capsys, "spm", "triangular", "--m", "6", "--edges", "1,2,9")
    assert status == 1
    assert "error:" in err


@pytest.mark.parametrize("value", ["3", "40", "lots"])
def test_environment_does_not_move_the_enumeration_cap(capsys, monkeypatch, value):
    # No value of the variable moves the cap or refuses anything.
    monkeypatch.setenv("CONVEX_BLOCKERS_MAX_M", value)
    refusal = (1, "", "error: m=13 exceeds the enumeration cap 12\n")
    assert run(capsys, "blocker", "enumerate", "--m", "13") == refusal
    assert run(capsys, "spm", "enumerate", "--m", "13") == refusal
    status, out, err = run(capsys, "spm", "enumerate", "--m", "4")
    assert (status, len(out.splitlines()), err) == (0, 14, "")
    status, out, err = run(capsys, "blocker", "enumerate", "--m", "4")
    assert (status, len(out.splitlines()), err) == (0, 32, "")


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_render_blocker_spec_writes_deterministic_svg(tmp_path, capsys):
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    for out_file in (out_a, out_b):
        status, _, _ = run(capsys, "render", "--m", "6",
                           "--blocker-spec", "0,3,1,2,4", "--out", str(out_file))
        assert status == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith('<?xml version="1.0"')


def test_render_edges_with_context(tmp_path, capsys):
    out_file = tmp_path / "fig.svg"
    status, _, _ = run(capsys, "render", "--m", "2", "--edges", "0-1,1-2",
                       "--context-edges", "2-3", "--no-labels",
                       "--out", str(out_file))
    assert status == 0
    svg = out_file.read_text()
    assert "stroke-dasharray" in svg
    assert "<text" not in svg


def test_render_requires_edge_source(tmp_path, capsys):
    status, _, _ = run(capsys, "render", "--m", "2", "--out",
                       str(tmp_path / "x.svg"))
    assert status == 2


def test_render_rejects_both_edge_sources(tmp_path, capsys):
    status, _, _ = run(capsys, "render", "--m", "2", "--edges", "0-1",
                       "--blocker-spec", "0,2", "--out", str(tmp_path / "x.svg"))
    assert status == 2


def test_render_bad_blocker_spec(tmp_path, capsys):
    status, _, err = run(capsys, "render", "--m", "6", "--blocker-spec", "0",
                         "--out", str(tmp_path / "x.svg"))
    assert status == 1
    assert "error:" in err


def test_render_non_integer_blocker_spec_is_domain_error(tmp_path, capsys):
    target = tmp_path / "x.svg"
    # Read by `int`, each text after the first is the valid spec (0, 6).
    for spec in ["0,a", "0,\u0666", "+0,6", "0_0,6"]:
        status, out, err = run(capsys, "render", "--m", "6", "--blocker-spec", spec,
                               "--out", str(target))
        assert (status, out) == (1, "")
        assert err == ("error: --blocker-spec expects integers START,T[,EPS...], "
                       f"got {spec!r}\n")
        assert not target.exists()


def test_render_blocker_spec_keeps_a_leading_minus(tmp_path, capsys):
    target = tmp_path / "x.svg"
    status, out, err = run(capsys, "render", "--m", "4", "--blocker-spec=-1,4",
                           "--out", str(target))
    assert (status, out, err) == (1, "", "error: start must be in 0..7, got -1\n")
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["spm", "triangular", "--m", "6", "--edges", "1,5," + "9" * 5000],
     "--edges expects three comma-separated positions, got '1,5," + "9" * 36 + "'..."),
    (["render", "--m", "4", "--blocker-spec", "0," + "4" * 5000],
     "--blocker-spec expects integers START,T[,EPS...], got '0," + "4" * 38 + "'..."),
], ids=["spm-triangular", "render-blocker-spec"])
def test_an_int_list_refusal_echoes_only_the_start_of_a_long_text(tmp_path, capsys,
                                                                  argv, message):
    # Past `int`'s digit limit; the echo is the text's first 40 characters.
    target = tmp_path / "x.svg"
    if argv[0] == "render":
        argv = [*argv, "--out", str(target)]
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (1, "", f"error: {message}\n")
    assert len(err) < 200
    assert not target.exists()


# A 4000-digit integer, within `int`'s digit limit; each refusal below echoed
# it whole, in an error line of over 4,000 characters.
BIG = "1" * 4000
BIG_ECHO = "1" * 40 + "..."


@pytest.mark.parametrize("argv, message", [
    (["blocker", "check", "--m", "2", "--edges", f"0-{BIG},0-{BIG}"],
     f"repeated edge 0-{'1' * 38}..."),
    (["blocker", "check", "--m", "2", "--edges", f"0-1,0-{BIG}"],
     f"vertex {BIG_ECHO} out of range for a polygon on 4 vertices"),
    (["render", "--m", "3", "--edges", "0-1", "--thick-edges", f"0-1,0-{BIG}"],
     f"vertex {BIG_ECHO} out of range for a polygon on 6 vertices"),
    (["spm", "parallel", "--m", "3", "--l", BIG], f"l must be in 1..3, got {BIG_ECHO}"),
    (["spm", "triangular", "--m", "3", "--edges", f"1,2,{BIG}"],
     f"positions must satisfy 1 <= i1 < i2 < i3 <= 6, got (1, 2, {'1' * 33}..."),
    (["blocker", "count", "--m", BIG], f"m={BIG_ECHO} exceeds the count cap 14271"),
    (["spm", "enumerate", "--m", BIG], f"m={BIG_ECHO} exceeds the enumeration cap 12"),
    (["render", "--m", "3", "--blocker-spec", f"0,2,{BIG}"],
     f"offsets must lie in 1..1, got ({'1' * 39}..."),
    (["spm", "enumerate", "--m", f"-{BIG}"], f"m must be >= 1, got -{'1' * 39}..."),
    (["blocker", "check", "--m", BIG, "--edges", "0-1"],
     f"expected exactly {BIG_ECHO} edges, got 1"),
    (["render", "--m", "3", "--blocker-spec", f"{BIG},2"],
     f"start must be in 0..5, got {BIG_ECHO}"),
    (["render", "--m", "3", "--blocker-spec", f"0,{BIG}"],
     f"spine length t must be in 2..3, got {BIG_ECHO}"),
    (["verify", "--m-min", BIG, "--m-max", "3"],
     f"need 2 <= m_min <= m_max, got {BIG_ECHO}..3"),
    # A long m of a single-set command meets its cap first.
    (["spm", "parallel", "--m", BIG, "--l", "0"],
     f"m={BIG_ECHO} exceeds the single-set cap 10000"),
    (["spm", "triangular", "--m", BIG, "--edges", f"1,2,{2 * int(BIG)}"],
     f"m={BIG_ECHO} exceeds the single-set cap 10000"),
    (["render", "--m", BIG, "--blocker-spec", "0,1"],
     f"m={BIG_ECHO} exceeds the single-set cap 10000"),
], ids=["repeated-edge", "check_edge", "render-thick-edges", "spm-parallel",
        "spm-triangular", "blocker-count", "spm-enumerate", "render-blocker-spec",
        "lower-bound", "blocker-check-size", "blocker-spec-start",
        "blocker-spec-t", "verify-range", "spm-parallel-long-m",
        "spm-triangular-long-m", "blocker-spec-long-m"])
def test_a_refusal_echoes_only_the_start_of_a_long_number(tmp_path, capsys,
                                                          argv, message):
    # Each number is cut by `errors.clipped` to its first 40 characters;
    # the rest of the message reads as for a short one.
    target = tmp_path / "x.svg"
    if argv[0] == "render":
        argv = [*argv, "--out", str(target)]
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (1, "", f"error: {message}\n")
    assert len(err) < 200
    assert not target.exists()


@pytest.mark.parametrize("call, message", [
    (lambda ctx: parallel_spm(ctx, 0), f"l must be in 1..{BIG_ECHO}, got 0"),
    (lambda ctx: triangular_spm(ctx, 1, 2, 2 * int(BIG)),
     "no triangular matching exists: consecutive distances "
     f"(p=1, q={'2' * 40}..., r=1) must all be below m={BIG_ECHO}"),
    (lambda ctx: generate_blocker(ctx, BlockerSpec(0, 1)),
     f"spine length t must be in 2..{BIG_ECHO}, got 1"),
], ids=["parallel_spm", "triangular_spm", "generate_blocker"])
def test_a_long_m_is_cut_where_the_range_it_bounds_is_echoed(call, message):
    # The library has no single-set cap, so these refusals still echo m.
    with pytest.raises((InputError, InfeasibilityError)) as refused:
        call(PolygonContext(int(BIG)))
    assert str(refused.value) == message


def test_render_repeated_edge_is_domain_error(tmp_path, capsys):
    target = tmp_path / "x.svg"
    status, out, err = run(capsys, "render", "--m", "2", "--edges", "0-1,0-1",
                           "--out", str(target))
    assert (status, out, err) == (1, "", "error: repeated edge 0-1\n")
    assert not target.exists()


def test_render_to_a_missing_directory_is_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    status, out, err = run(capsys, "render", "--m", "6",
                           "--blocker-spec", "0,3,1,2,4", "--out", str(target))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_render_out_is_opened_as_given(tmp_path, capsys):
    # A trailing slash names a directory: the path is not normalized into
    # the file `x.svg`.
    target = f"{tmp_path / 'x.svg'}/"
    status, out, err = run(capsys, "render", "--m", "6",
                           "--blocker-spec", "0,3,1,2,4", "--out", target)
    assert (status, out, err) == (1, "", f"error: cannot write {target}: Is a directory\n")
    assert list(tmp_path.iterdir()) == []
