"""Checks of the program past tier-1's sizes, one function per check.

Each check takes m, returns its one-line result, and raises `CheckFailed`
when the program is at fault.  From the command line,

    PYTHONPATH=src python tests/wide.py scan-twin --m 12

prints that line and exits 0, or prints why it failed on stderr and exits
1.  CI runs every check at the sizes its docstring names; tier-1 runs them
at small m (`test_wide.py`, and the tests that call them at m <= 8).  The
specs come from the definition, `conftest.blocker_specs`, and the program's
CLI runs as `python -m convex_blockers` with this package on
`PYTHONPATH`.  The program functions that `test_wide.py` doctors are
called through their modules, so that its monkeypatch reaches them.
Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import convex_blockers
from conftest import blocker_specs, boundary_edges, is_boundary_edge, odd_classes
from convex_blockers import blockers, matchings
from convex_blockers.blockers import (
    VIOLATION_BAD_ATTACHMENT,
    VIOLATION_CROSSING,
    VIOLATION_DUPLICATE_CLASS,
    VIOLATION_EVEN_ORDER,
    VIOLATION_FEW_BOUNDARY,
    VIOLATION_LEG_GAP,
    VIOLATION_NOT_A_TREE,
    VIOLATION_NOT_CONSECUTIVE,
    StructuralViolation,
)
from convex_blockers.errors import DOMAIN_ERRORS
from convex_blockers.geometry import PolygonContext, boundary_position, edges_to_text
from convex_blockers.matchings import is_spm, triangular_spm


class CheckFailed(Exception):
    """A check found the program at fault."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli(*args: str, unbuffered: bool = False, timeout: float | None = None
         ) -> tuple[int, bytes]:
    """Exit status and stdout of `python -m convex_blockers ARGS`, run on
    this package, with `PYTHONUNBUFFERED=1` or without it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(convex_blockers.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "convex_blockers", *args],
                              stdout=subprocess.PIPE, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{' '.join(args[:2])} ran past {timeout} s") from None
    return done.returncode, done.stdout


def _blockers(m: int) -> int:
    """The theorem's count m * 2^(m-1)."""
    return m << (m - 1)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def parse_validate(m: int) -> str:
    """Parse and validate every blocker at m, each made by `generate_blocker`
    from a spec built from the definition; fail unless there are
    m * 2^(m-1) of them and each parses to its own spec, validates `ok` and
    is a tree.  The microseconds per set of the parse and validate calls
    are recorded, not gated.  Tier-1 parses every blocker up to m = 8; CI
    runs m = 12, 24,576 blockers, in about 1-2 s."""
    ctx = PolygonContext(m)
    specs = blocker_specs(ctx)
    sets = [blockers.generate_blocker(ctx, spec) for spec in specs]
    started = time.perf_counter()
    results = [_parse_and_validate(ctx, edge_set) for edge_set in sets]
    per_set_us = (time.perf_counter() - started) / len(sets) * 1e6
    bad = [spec for spec, (parsed, report) in zip(specs, results)
           if parsed != spec or not report.ok or not report.is_tree]
    _require(len(sets) == _blockers(m) and not bad,
             f"{len(bad)} of {len(sets)} blockers at m={m} do not parse back "
             f"or validate, first {bad[:1]}")
    return f"parse + validate at m={m}: {len(sets)} blockers, {per_set_us:.1f} us per set"


def _parse_and_validate(ctx, edge_set):
    """`parse_blocker` and `validate_caterpillar` on one set, or the domain
    error either raised and None."""
    try:
        return blockers.parse_blocker(ctx, edge_set), blockers.validate_caterpillar(ctx, edge_set)
    except DOMAIN_ERRORS as exc:
        return exc, None


def scan_twin(m: int, count: int | None = None) -> str:
    """Compare `_scan` with its slow twin `_slow_scan` on every blocker at m
    and on `count` seeded mutants of each kind `_blockers_and_mutants`
    draws, by default a third as many as there are blockers.  Each side
    scans a fresh copy of the set, and any difference in the violations,
    witnesses, path or spine fails.  Tier-1 runs m = 2..8 with 200 of each;
    CI runs m = 12 with 8,192 of each, 24,576 blockers and 24,576 mutants,
    in about 4 s."""
    if count is None:
        count = _blockers(m) // 3
    ctx = PolygonContext(m)
    family, mutants = _blockers_and_mutants(ctx, count)
    bad = [sorted(s) for s in family + mutants
           if blockers._scan(ctx, frozenset(list(s))) != _slow_scan(ctx, frozenset(list(s)))]
    line = f"{len(family)} blockers and {len(mutants)} mutants, {len(bad)} differ"
    _require(len(family) == _blockers(m) and len(mutants) == 3 * count and not bad,
             f"{line} at m={m}, first {bad[:1]}")
    return f"scan at m={m}: {line}"


def triangular(m: int) -> str:
    """Build every triangular matching at m from its start and fan sizes
    a, b and c = m - a - b.  Each must be a simple perfect matching, hold
    its three block-splitting diagonals, and equal the position form at its
    three boundary edges; the distinct ones must number 2m * C(m-1, 2) / 3.
    Tier-1 runs m = 3..8; CI runs m = 12..15, that is 440, 572, 728 and 910
    matchings, in about 1 s."""
    ctx, family, bad = PolygonContext(m), set(), []
    for start in range(ctx.n):
        for a in range(1, m - 1):
            for b in range(1, m - a):
                matching = matchings.triangular_spm_from_blocks(ctx, start, a, b, m - a - b)
                diagonals = {ctx.edge(start, start + 2 * a - 1),
                             ctx.edge(start + 2 * a, start + 2 * a + 2 * b - 1),
                             ctx.edge(start + 2 * a + 2 * b, start - 1)}
                positions = sorted(boundary_position(ctx, e) + 1
                                   for e in matching if is_boundary_edge(ctx, e))
                if not (is_spm(ctx, matching) and diagonals <= matching
                        and len(positions) == 3 and triangular_spm(ctx, *positions) == matching):
                    bad.append((start, a, b))
                family.add(matching)
    expected = 2 * m * comb(m - 1, 2) // 3
    line = f"triangular at m={m}: {len(family)} distinct matchings"
    _require(len(family) == expected and not bad,
             f"{line}, expected {expected}; wrong at (start, a, b) {bad[:3]}")
    return line


def enumerate_cap(m: int) -> str:
    """Run `blocker enumerate` and `spm enumerate` at m in both formats.
    The blockers must number m * 2^(m-1), as lines and as JSON items, and
    their bytes must hash as those of every spec built from the definition
    and rendered on its own through `generate_blocker` and
    `blocker_to_json`, since the command turns start 0's blockers through
    the other starts.  The matchings must number Catalan(m), as lines and
    as JSON items, counted one at a time (`_json_items`), with the same
    bytes under `PYTHONUNBUFFERED=1`.  Tier-1 stops below the enumeration
    cap; CI runs it, m = 12: 24,576 blockers and 208,012 matchings, in
    3.4-4.2 s with a 70 MB peak RSS of this process (`resource.getrusage`),
    on a shared 2-core host with Python 3.11.7; `json.loads` of the
    matchings took it to 326 MB."""
    ctx = PolygonContext(m)
    for fmt, text in _reference_texts(ctx).items():
        status, out = _cli("blocker", "enumerate", "--m", str(m), "--format", fmt)
        items = out.count(b"\n") if fmt == "lines" else len(json.loads(out))
        digests = hashlib.sha256(out).hexdigest(), hashlib.sha256(text.encode()).hexdigest()
        _require(status == 0 and items == _blockers(m) and digests[0] == digests[1],
                 f"blocker enumerate --m {m} --format {fmt}: exit {status}, "
                 f"{items} blockers, sha256 {digests[0][:12]} against the reference's "
                 f"{digests[1][:12]}")
    catalan = comb(2 * m, m) // (m + 1)
    for fmt in ("lines", "json"):
        args = ("spm", "enumerate", "--m", str(m), "--format", fmt)
        status, out = _cli(*args)
        items = out.count(b"\n") if fmt == "lines" else _json_items(out)
        _require(status == 0 and items == catalan,
                 f"{' '.join(args)}: exit {status}, {items} matchings, expected {catalan}")
        _require(_cli(*args, unbuffered=True) == (0, out),
                 f"{' '.join(args)} writes other bytes under PYTHONUNBUFFERED=1")
    return (f"enumerate at m={m}: {_blockers(m)} blockers as the reference, "
            f"{catalan} matchings, the same bytes unbuffered")


def _json_items(out: bytes) -> int | None:
    """The number of items of the compact JSON array that `out` holds, one
    line, or None if it holds no such array.  Each item is decoded and
    dropped in turn, so the items are never all alive at once."""
    text, decoder = out.decode(), json.JSONDecoder()
    if text == "[]\n":
        return 0
    if text[:1] != "[":
        return None
    at, items = 1, 0
    try:
        while True:
            _item, at = decoder.raw_decode(text, at)
            items += 1
            if text[at:at + 1] != ",":
                break
            at += 1
    except json.JSONDecodeError:
        return None
    return items if text[at:] == "]\n" else None


def _reference_texts(ctx) -> dict[str, str]:
    """What `blocker enumerate` writes at ctx.m in each format, from every
    spec rendered on its own."""
    specs = blocker_specs(ctx)
    return {
        "lines": "".join(edges_to_text(blockers.generate_blocker(ctx, spec)) + "\n"
                         for spec in specs),
        "json": json.dumps([blockers.blocker_to_json(ctx, spec) for spec in specs],
                           separators=(",", ":")) + "\n",
    }


def blocker_check(m: int) -> str:
    """Run `blocker check` at m >= 3, 20 s at most per call, on the spine
    0-1,...,(m-1)-m; on the same spine turned to start at 3m/2, which wraps
    through vertex 0; and on the spine with (m-1)-m swapped for 0-2, which
    must fail with exit 1.  The swapped set's parse and caterpillar report
    come from one shared scan: the report must list, in order, the cycle
    0-1-2 as not_a_tree with every edge, 0-2 as an even-order edge and 0-2
    again as attached at the spine's first vertex, and the parse must name
    the even-order edge.  `blocker check` has no cap and tier-1 stays at
    small m; CI runs m = 300 and 1000, about 0.5 s per call at 1000."""
    n, half = 2 * m, 3 * m // 2
    spine = [f"{i}-{i + 1}" for i in range(m)]
    cases = [
        ("spine", spine, 0, ['"blocks_all_spms":true', f'"t":{m}']),
        ("turned spine",
         [f"{i % n}-{(i + 1) % n}" for i in range(half, half + m)],
         0, ['"blocks_all_spms":true', f'"start":{half},"t":{m}']),
        ("swapped spine", spine[:-1] + ["0-2"], 1,
         ['"missed_spm":[[', '"ok":false,"violation":"even_order_edge"']),
    ]
    outputs = {}
    for name, edges, expected, fields in cases:
        status, outputs[name] = _cli("blocker", "check", "--m", str(m),
                                     "--edges", ",".join(edges), timeout=20)
        missing = [field for field in fields if field.encode() not in outputs[name]]
        _require(status == expected and not missing,
                 f"blocker check of the {name} at m={m}: exit {status}, missing {missing}")
    report = json.loads(outputs["swapped spine"])["caterpillar"]
    swapped = sorted([[i, i + 1] for i in range(m - 1)] + [[0, 2]])
    violations = [{"violation": VIOLATION_NOT_A_TREE, "witness": swapped},
                  {"violation": VIOLATION_EVEN_ORDER, "witness": [[0, 2]]},
                  {"violation": VIOLATION_BAD_ATTACHMENT, "witness": [[0, 2]]}]
    _require(report["is_tree"] is False and report["violations"] == violations,
             f"blocker check of the swapped spine at m={m}: is_tree {report['is_tree']}, "
             f"violations {[v['violation'] for v in report['violations']]}, expected "
             f"{[v['violation'] for v in violations]} with their witnesses")
    return f"blocker check at m={m}: the spine and its turn block, the swapped spine fails"


CHECKS = {
    "parse-validate": parse_validate,
    "scan-twin": scan_twin,
    "triangular": triangular,
    "enumerate-cap": enumerate_cap,
    "blocker-check": blocker_check,
}


# ---------------------------------------------------------------------------
# the slow twin of the scan and the seeded mutants
# ---------------------------------------------------------------------------

def _slow_scan(ctx, edges):
    """The scan `_scan` replaced, without its memo: the crossing search
    copies the tail of the sorted list for each edge, and the run finder
    walks from the first position and from each one after a gap."""
    n = ctx.n
    edge_list = sorted(map(ctx.check_edge, edges))
    violations = []
    by_class = {}
    boundary = {}
    interior = []
    for e in edge_list:
        a, b = e
        c = (a + b) % n
        if c % 2 == 0:
            violations.append(StructuralViolation(VIOLATION_EVEN_ORDER, (e,)))
        elif c in by_class:
            violations.append(
                StructuralViolation(VIOLATION_DUPLICATE_CLASS, (by_class[c], e)))
        else:
            by_class[c] = e
        if b - a == 1:
            boundary[a] = e
        elif b - a == n - 1:
            boundary[n - 1] = e
        else:
            interior.append(e)
    if len(boundary) < 2:
        violations.append(StructuralViolation(
            VIOLATION_FEW_BOUNDARY, tuple(boundary.values())))
    start = t = 0
    previous = None
    for p in sorted(boundary):
        if p - 1 != previous:
            k = 1
            while k < n and (p + k) % n in boundary:
                k += 1
            if k > t:
                start, t = p, k
        previous = p
    if t < len(boundary):
        violations.append(StructuralViolation(
            VIOLATION_NOT_CONSECUTIVE, tuple(boundary.values())))
    path = tuple(boundary[p % n] for p in range(start, start + t))
    for i, e in enumerate(edge_list):
        a, b = e
        for f in edge_list[i + 1:]:
            c, d = f
            if c >= b:
                break
            if a < c and b < d:
                violations.append(StructuralViolation(VIOLATION_CROSSING, (e, f)))
    spine = None
    if t == len(boundary) and t >= 2:
        legs = []
        for e in interior:
            a, b = e
            ra, rb = (a - start) % n, (b - start) % n
            attach, far = (ra, rb) if ra < rb else (rb, ra)
            if 1 <= attach <= t - 1 and t + 1 <= far:
                legs.append((attach, far, e))
            else:
                violations.append(StructuralViolation(VIOLATION_BAD_ATTACHMENT, (e,)))
        legs.sort()
        for (p, pf, e1), (q, qf, e2) in itertools.combinations(legs, 2):
            if p < q and p + pf <= q + qf:
                violations.append(StructuralViolation(
                    VIOLATION_LEG_GAP, tuple(sorted((e1, e2)))))
        spine = (start, t, tuple(sorted(legs, key=lambda leg: (-leg[0], leg[1]))))
    return tuple(violations), path, spine


def _blockers_and_mutants(ctx, count: int):
    """Every blocker, and `count` seeded mutants of each kind the benchmark
    draws: one-edge swaps, which cross, repeat a class or break the spine;
    broken spines, one spine edge moved to another boundary position; and
    transversals, one random edge of each odd parallel class.  Seeded by m,
    so each call with the same m and count draws the same sets."""
    family = blockers.enumerate_blockers(ctx)
    rng = random.Random(ctx.m)
    every_edge = ctx.edge_table
    mutants = []
    for _ in range(count):
        blocker = rng.choice(family)
        out = rng.choice(sorted(blocker))
        into = rng.choice([e for e in every_edge if e not in blocker])
        mutants.append(blocker - {out} | {into})
    specs = blocker_specs(ctx)
    classes = odd_classes(ctx)
    for _ in range(count):
        start, t, _eps = spec = rng.choice(specs)
        blocker = blockers.generate_blocker(ctx, spec)
        out = ctx.boundary_edge((start + rng.randrange(t)) % ctx.n)
        into = rng.choice([e for e in boundary_edges(ctx) if e not in blocker])
        mutants.append(blocker - {out} | {into})
        mutants.append(frozenset(rng.choice(row) for row in classes))
    return family, mutants


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wide.py", description="Run one check of the program at m.")
    parser.add_argument("check", choices=CHECKS)
    parser.add_argument("--m", type=int, required=True)
    ns = parser.parse_args(argv)
    try:
        print(CHECKS[ns.check](ns.m))
    except CheckFailed as exc:
        print(f"{ns.check} --m {ns.m} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
