"""Command-line interface.

Structured output goes to stdout, diagnostics to stderr.  Malformed
flags exit with status 2, domain errors with status 1; `verify` and
`blocker check` map their verdict to the exit status.  When the reader of
stdout goes away (`| head`), `main` stops quietly with status 1.

Too small an m is refused with `m must be >= 1, got M` for the polygon,
checked first, and `m must be >= 2, got M` for every `blocker` command and
`render --blocker-spec`.  `verify` refuses `--m-min` below 2 by its range.
Fixed size caps refuse with `m=M exceeds the WHAT cap CAP` before any
work: enumeration (`DEFAULT_MAX_M`) for `spm enumerate`, `blocker
enumerate`, `oracle` and `verify`; naive search (`DEFAULT_NAIVE_CAP`) and
pruned search (`DEFAULT_PRUNED_CAP`) for `oracle`, which checks it before
building the index, and `verify`, which checks every m of its range up
front; count (14271, the largest m whose count the interpreter prints) for
`blocker count` in both forms.  `blocker check` has no cap: its blocking
check is one (2m+1)-bit int row per vertex, and it makes only the set's edges.
It hands `parse_blocker` and `validate_caterpillar` the same frozenset, so
the set is scanned once: the scan keeps its last result, keyed by object
identity, since an equal set of plain pairs must still be refused.

The bulk commands, `spm enumerate` and `blocker enumerate` in both
formats, stream their output through `_write_chunks`: one
`sys.stdout.write` per `_CHUNK` matchings or blockers, so an unbuffered
stdout (`-u`) costs one system call per chunk, not one per line, and the
text held at once stays bounded.  Their bytes are the same either way.
Every other command prints its few lines; `verify` prints each m as it
finishes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from .blockers import (
    BlockerSpec,
    blocker_to_json,
    count_blockers,
    count_blockers_by_spine,
    enumerate_blocker_specs,
    generate_blocker,
    parse_blocker,
    validate_caterpillar,
)
from .errors import (
    InfeasibilityError,
    InputError,
    ResourceLimitError,
    StructureError,
    check_cap,
)
from .geometry import (
    PolygonContext,
    edge_to_text,
    edges_from_text,
    edges_to_lists,
    edges_to_text,
)
from .matchings import (
    _spm_splits,
    first_avoiding_spm,
    parallel_spm,
    triangular_spm,
)
from .oracle import (
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    build_family_index,
    check_search_cap,
    find_minimum_blockers,
    oracle_report_json,
)
from .render import RenderSpec, render_figure
from .verify import verify_theorem

def _count_cap() -> int:
    """The largest m whose count m * 2^(m-1) prints within the interpreter's
    digit limit (4300 when it is off), walking down from the bit length of
    10^digits, where the count has passed it already."""
    limit = 10 ** (sys.get_int_max_str_digits() or 4300)
    m = limit.bit_length()
    while count_blockers(m) >= limit:
        m -= 1
    return m


# Texts (lines, or items of a JSON array) per `sys.stdout.write` in the bulk
# commands: few system calls under `-u`, and a join small enough that the
# peak memory stays where one write per line kept it.
_CHUNK = 1024


def _json(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _write_chunks(texts) -> None:
    """Write the texts in order, `_CHUNK` of them per `sys.stdout.write`.
    `sys.stdout` is looked up on each write, never replaced."""
    texts = iter(texts)
    while chunk := list(itertools.islice(texts, _CHUNK)):
        sys.stdout.write("".join(chunk))


def _json_array(items):
    """The texts of a one-line JSON array, from `,`-led item texts: the
    first comma becomes the `[`, byte for byte as `json.dumps` writes it."""
    items = iter(items)
    yield "[" + next(items, ",")[1:]
    yield from items
    yield "]\n"


def _matching_texts(splits, first: str, last: str):
    """Each matching as `first + units + last`, its first unit's comma cut."""
    for head, inners, outers in splits:
        head = first + head[1:]
        for inner in inners:
            for outer in outers:
                yield f"{head}{inner}{outer}{last}"


def cmd_spm_enumerate(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    if ns.format == "json":
        # `_json` of the pair lists, one `,[[a,b],...]` at a time.
        splits = _spm_splits(ctx, lambda a, b: "," + _json((a, b)), "")
        _write_chunks(_json_array(_matching_texts(splits, ",[", "]")))
    else:
        splits = _spm_splits(ctx, lambda a, b: "," + edge_to_text(ctx.edge_of[a, b]), "")
        _write_chunks(_matching_texts(splits, "", "\n"))
    return 0


def cmd_spm_parallel(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    print(edges_to_text(parallel_spm(ctx, ns.l)))
    return 0


def cmd_spm_triangular(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    try:
        i1, i2, i3 = (int(p) for p in ns.edges.split(","))
    except ValueError:
        raise InputError(
            f"--edges expects three comma-separated positions, got {ns.edges!r}"
        ) from None
    print(edges_to_text(triangular_spm(ctx, i1, i2, i3)))
    return 0


def cmd_blocker_enumerate(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    specs = enumerate_blocker_specs(ctx)
    if ns.format == "json":
        _write_chunks(_json_array("," + _json(blocker_to_json(ctx, spec))
                                  for spec in specs))
    else:
        _write_chunks(edges_to_text(generate_blocker(ctx, spec)) + "\n"
                      for spec in specs)
    return 0


def cmd_blocker_count(ns: argparse.Namespace) -> int:
    check_cap(ns.m, _count_cap(), "count")
    total = count_blockers(ns.m)  # refuses m < 2 for both forms
    if ns.by_spine:
        for t in range(2, ns.m + 1):
            print(count_blockers_by_spine(ns.m, t))
    else:
        print(total)
    return 0


def cmd_blocker_check(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    edges = edges_from_text(ns.edges)
    parsed = parse_blocker(ctx, edges)
    report = validate_caterpillar(ctx, edges)
    miss = first_avoiding_spm(ctx, edges)
    if isinstance(parsed, BlockerSpec):
        payload = {"ok": True, **blocker_to_json(ctx, parsed)}
    else:
        payload = {"ok": False, **parsed.to_json()}
        payload["missed_spm"] = None if miss is None else edges_to_lists(miss)
    payload["caterpillar"] = report.to_json()
    payload["blocks_all_spms"] = miss is None
    print(_json(payload))
    return 0 if payload["ok"] else 1


def cmd_oracle(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    mode = MODE_NAIVE if ns.mode == "naive" else MODE_CLASS_PRUNED
    check_search_cap(ns.m, mode)
    index = build_family_index(ctx)
    result = find_minimum_blockers(index, mode)
    print(_json(oracle_report_json(index, result)))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    reports = verify_theorem(ns.m_min, ns.m_max, ns.naive_up_to)
    for report in reports:
        print(_json(report.to_json()))
    return 0 if all(r.passed for r in reports) else 1


def _parse_blocker_spec_arg(text: str) -> BlockerSpec:
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise InputError(
            f"--blocker-spec expects integers START,T[,EPS...], got {text!r}"
        ) from None
    if len(values) < 2:
        raise InputError("--blocker-spec needs at least START,T")
    return BlockerSpec(values[0], values[1], tuple(values[2:]))


def cmd_render(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    if ns.blocker_spec is not None:
        solid = generate_blocker(ctx, _parse_blocker_spec_arg(ns.blocker_spec))
    else:
        solid = edges_from_text(ns.edges)
    thick = edges_from_text(ns.thick_edges) if ns.thick_edges else ()
    dotted = edges_from_text(ns.context_edges) if ns.context_edges else ()
    spec = RenderSpec(m=ns.m, solid=tuple(solid), thick=tuple(thick),
                      dotted=tuple(dotted), labels=ns.labels)
    svg = render_figure(spec)
    try:
        Path(ns.out).write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {ns.out}: {exc.strerror}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convex-blockers",
        description="Minimum blocking sets for non-crossing perfect matchings "
                    "of a convex polygon")
    sub = parser.add_subparsers(dest="command", required=True)

    spm = sub.add_parser("spm", help="simple perfect matchings")
    spm_sub = spm.add_subparsers(dest="subcommand", required=True)
    p = spm_sub.add_parser("enumerate", help="list every matching")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("lines", "json"), default="lines")
    p.set_defaults(func=cmd_spm_enumerate)
    p = spm_sub.add_parser("parallel", help="the l-th parallel matching")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_spm_parallel)
    p = spm_sub.add_parser("triangular",
                           help="triangular matching from three boundary edges")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--edges", required=True, metavar="I1,I2,I3")
    p.set_defaults(func=cmd_spm_triangular)

    blocker = sub.add_parser("blocker", help="minimum blocking sets")
    blocker_sub = blocker.add_subparsers(dest="subcommand", required=True)
    p = blocker_sub.add_parser("enumerate", help="list every blocker")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("lines", "json"), default="lines")
    p.set_defaults(func=cmd_blocker_enumerate)
    p = blocker_sub.add_parser("count", help="closed-form blocker count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--by-spine", action="store_true",
                   help="one count per spine length t = 2..m")
    p.set_defaults(func=cmd_blocker_count)
    p = blocker_sub.add_parser("check",
                               help="parse, structural report, blocking check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--edges", required=True, metavar="LIST",
                   help="comma-separated edges, e.g. 0-1,1-2,1-4")
    p.set_defaults(func=cmd_blocker_check)

    p = sub.add_parser("oracle", help="brute-force minimum blocking sets")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("naive", "pruned"), default="pruned")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="cross-check generator against search")
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--naive-up-to", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw an edge set as SVG")
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--edges", metavar="LIST")
    group.add_argument("--blocker-spec", metavar="START,T,EPS...")
    p.add_argument("--thick-edges", metavar="LIST")
    p.add_argument("--context-edges", metavar="LIST")
    p.add_argument("--labels", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.func(ns)
    except (InputError, InfeasibilityError, StructureError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        status = run_cli()
        # Flush here, so that a closed pipe raises inside the try block.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`| head`).  The interpreter flushes stdout
        # again at exit; pointing it at devnull keeps that flush silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
