"""Command-line interface.

Structured output goes to stdout, diagnostics to stderr.  Malformed
flags exit with status 2, domain errors with status 1; `verify` and
`blocker check` map their verdict to the exit status.  When the reader of
stdout goes away (`| head`), `main` stops quietly with status 1.

Size caps refuse with `m=M exceeds the WHAT cap CAP` before any work:
enumeration (12, or CONVEX_BLOCKERS_MAX_M) for `spm enumerate`, `blocker
enumerate`, `oracle` and `verify`; naive search (5) and pruned search (8)
for `oracle`, which checks it before building the index, and `verify`,
which checks every m of its range up front.  `blocker check` never
enumerates matchings (its blocking check is O(m^3)) and has no cap.
"""

from __future__ import annotations

import argparse
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
    DEFAULT_MAX_M,
    first_avoiding_spm,
    parallel_spm,
    spm_pairs,
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

ENV_MAX_M = "CONVEX_BLOCKERS_MAX_M"


def _max_m() -> int:
    raw = os.environ.get(ENV_MAX_M, str(DEFAULT_MAX_M))
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{ENV_MAX_M} must be an integer, got {raw!r}") from None


def _print_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def cmd_spm_enumerate(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    spms = spm_pairs(ctx, max_m=_max_m())
    if ns.format == "json":
        _print_json(list(spms))
    else:
        # The pairs come sorted, so each line joins the texts of its edges.
        text = {(e.a, e.b): edge_to_text(e) for e in ctx.edges()}.__getitem__
        sys.stdout.writelines(",".join(map(text, s)) + "\n" for s in spms)
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
    check_cap(ns.m, _max_m(), "enumeration")
    specs = enumerate_blocker_specs(ctx)
    if ns.format == "json":
        _print_json([blocker_to_json(ctx, spec) for spec in specs])
    else:
        for spec in specs:
            print(edges_to_text(generate_blocker(ctx, spec)))
    return 0


def cmd_blocker_count(ns: argparse.Namespace) -> int:
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
    _print_json(payload)
    return 0 if payload["ok"] else 1


def cmd_oracle(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    mode = MODE_NAIVE if ns.mode == "naive" else MODE_CLASS_PRUNED
    check_search_cap(ns.m, mode)
    index = build_family_index(ctx, max_m=_max_m())
    result = find_minimum_blockers(index, mode)
    _print_json(oracle_report_json(index, result))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    reports = verify_theorem(ns.m_min, ns.m_max, ns.naive_up_to, max_m=_max_m())
    for report in reports:
        _print_json(report.to_json())
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
