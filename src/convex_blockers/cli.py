"""Command-line interface.

Structured output goes to stdout, diagnostics to stderr.  Malformed
flags exit with status 2, domain errors with status 1; `verify` and
`blocker check` map their verdict to the exit status.  When the reader of
stdout goes away (`| head`), `main` stops quietly with status 1.

`run_cli(argv)` is the in-process entry: it runs one command and returns
its status.  `main`, behind `python -m convex_blockers` and the
`convex-blockers` script, ends the process: it flushes stdout, runs the
`atexit` handlers, flushes stderr and calls `os._exit(status)`, which
skips the interpreter's teardown of every module and object.  While a
tracer, profiler or debugger watches (`sys.settrace`, `sys.setprofile`, a
`sys.monitoring` tool, or `bdb` loaded: coverage, cProfile, pdb) it raises
`SystemExit` instead, so their reports still print at exit.

A run imports only the modules its command uses and builds only its own
parser path.  `build_parser(argv)` registers every command and subcommand
with its help string, so help, usage and choice errors read the same on
every run, but adds arguments and sub-parsers only to those `argv` names.
`oracle`, `verify`, `render` and `json` are imported inside the commands
that use them, and the package resolves its public names on first use, so
`blocker check` loads none of the first three.

Too small an m is refused with `m must be >= 1, got M` for the polygon,
checked first, and `m must be >= 2, got M` for every `blocker` command and
`render --blocker-spec`.  `verify` refuses `--m-min` below 2 by its range.
Fixed size caps refuse with `m=M exceeds the WHAT cap CAP` before any
work: enumeration (`DEFAULT_MAX_M`, 12) for `spm enumerate`, `blocker
enumerate`, `oracle` and `verify`; naive search (`DEFAULT_NAIVE_CAP`, 5)
and pruned search (`DEFAULT_PRUNED_CAP`, 11) for `oracle`, which checks it
before building the index, and `verify`, which checks every m of its range
up front; count (14271, the largest m whose count the interpreter prints)
for `blocker count` in both forms; single set (`SINGLE_SET_CAP`, 10000)
for `spm parallel`, `spm triangular` and `render`, which build O(m) edges or
SVG elements from m alone.  `blocker check` has no cap: it takes exactly m
edges, so its input bounds m, its blocking check is one (2m+1)-bit int row
per vertex, and it makes only the set's edges.
It hands `parse_blocker` and `validate_caterpillar` the same frozenset, so
the set is scanned once: the scan keeps its last result, keyed by object
identity, since an equal set of plain pairs must still be refused.

The bulk commands, `spm enumerate` and `blocker enumerate` in both
formats, stream their output through `_write_chunks`: one
`sys.stdout.write` per `_CHUNK` matchings or blockers, so an unbuffered
stdout (`-u`) costs one system call per chunk, not one per line, and the
text held at once stays bounded.  Their bytes are the same either way.
Every other command prints its few lines; `verify` prints one line per m
once the whole range is verified.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import os
import sys

from .blockers import (
    BlockerSpec,
    _blocker_json,
    _blockers_by_start,
    _start_specs,
    count_blockers,
    count_blockers_by_spine,
    generate_blocker,
    parse_blocker,
    validate_caterpillar,
)
from .errors import DOMAIN_ERRORS, InputError, check_cap, quoted
from .geometry import PolygonContext, _ascii_int, edges_from_text, edges_to_lists, edges_to_text
from .matchings import (
    _spm_splits,
    first_avoiding_spm,
    parallel_spm,
    triangular_spm,
)


def _count_cap() -> int:
    """The largest m whose count m * 2^(m-1) prints within the interpreter's
    digit limit (4300 when it is off), walking down from the bit length of
    10^digits, where the count has passed it already."""
    limit = 10 ** (sys.get_int_max_str_digits() or 4300)
    m = limit.bit_length()
    while count_blockers(m) >= limit:
        m -= 1
    return m


# The cap on m of `spm parallel`, `spm triangular` and `render`, whose edges
# or SVG elements grow with m alone: at it the slowest, `render
# --blocker-spec 0,10000`, takes about 0.2 s and 42 MB, and an m far beyond
# it would run for minutes before the first byte.
SINGLE_SET_CAP = 10000

# Texts (lines, or items of a JSON array) per `sys.stdout.write` in the bulk
# commands: few system calls under `-u`, and a join small enough that the
# peak memory stays where one write per line kept it.
_CHUNK = 1024


def _json(payload) -> str:
    import json
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
        # The bytes `_json` writes for the pair lists, one `,[[a,b],...]` at a time.
        splits = _spm_splits(ctx, lambda a, b: f",[{a},{b}]", "")
        _write_chunks(_json_array(_matching_texts(splits, ",[", "]")))
    else:
        splits = _spm_splits(ctx, lambda a, b: f",{a}-{b}", "")
        _write_chunks(_matching_texts(splits, "", "\n"))
    return 0


def cmd_spm_parallel(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    check_cap(ns.m, SINGLE_SET_CAP, "single-set")
    print(edges_to_text(parallel_spm(ctx, ns.l)))
    return 0


def _ints(text: str, expects: str, count: int | None = None) -> list[int]:
    """The comma-separated ints of `text`, `count` of them if given, each
    by `geometry._ascii_int`'s rule.  Else refused as `EXPECTS, got TEXT`,
    cut by `quoted`."""
    values = [_ascii_int(p) for p in text.split(",")]
    if count in (None, len(values)) and None not in values:
        return values
    raise InputError(f"{expects}, got {quoted(text)}")


def _int_flag(text: str) -> int:
    """An integer flag's value (`--m`, `--l`, `--m-min`, ...) by `_ints`' rule,
    refused as argparse's `invalid int value: TEXT`, cut by `quoted`."""
    try:
        return _ints(text, "", 1)[0]
    except InputError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


def _choice(text: str) -> str:
    """A choice flag's value (`--mode`, `--format`), left to argparse's own
    check and refusal when `quoted` echoes it whole, else refused as
    `invalid choice: TEXT`, cut by `quoted`."""
    if len(text) > 40:
        raise argparse.ArgumentTypeError(f"invalid choice: {quoted(text)}")
    return text


def cmd_spm_triangular(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    check_cap(ns.m, SINGLE_SET_CAP, "single-set")
    i1, i2, i3 = _ints(ns.edges, "--edges expects three comma-separated positions", 3)
    print(edges_to_text(triangular_spm(ctx, i1, i2, i3)))
    return 0


def cmd_blocker_enumerate(ns: argparse.Namespace) -> int:
    ctx = PolygonContext(ns.m)
    # Only start 0's specs pass through `generate_blocker` and its checks;
    # later starts are turned.  At most two starts' sets are alive at once,
    # and no list of all specs is built.
    blockers = itertools.chain.from_iterable(_blockers_by_start(ctx))
    if ns.format == "json":
        specs = (spec for start in range(ctx.n) for spec in _start_specs(ctx, start))
        _write_chunks(_json_array("," + _json(_blocker_json(ctx, spec, edges))
                                  for edges, spec in zip(blockers, specs, strict=True)))
    else:
        _write_chunks(edges_to_text(edges) + "\n" for edges in blockers)
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
        payload = {"ok": True, **_blocker_json(ctx, parsed, edges)}
    else:
        payload = {"ok": False, **parsed.to_json()}
        payload["missed_spm"] = None if miss is None else edges_to_lists(miss)
    payload["caterpillar"] = report.to_json()
    payload["blocks_all_spms"] = miss is None
    print(_json(payload))
    return 0 if payload["ok"] else 1


def cmd_oracle(ns: argparse.Namespace) -> int:
    from .oracle import (
        MODE_CLASS_PRUNED,
        MODE_NAIVE,
        build_family_index,
        check_search_cap,
        find_minimum_blockers,
        oracle_report_json,
    )
    ctx = PolygonContext(ns.m)
    mode = MODE_NAIVE if ns.mode == "naive" else MODE_CLASS_PRUNED
    check_search_cap(ns.m, mode)
    index = build_family_index(ctx)
    result = find_minimum_blockers(index, mode)
    print(_json(oracle_report_json(index, result)))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import verify_theorem
    reports = verify_theorem(ns.m_min, ns.m_max, ns.naive_up_to)
    for report in reports:
        print(_json(report.to_json()))
    return 0 if all(r.passed for r in reports) else 1


def _parse_blocker_spec_arg(text: str) -> BlockerSpec:
    values = _ints(text, "--blocker-spec expects integers START,T[,EPS...]")
    if len(values) < 2:
        raise InputError("--blocker-spec needs at least START,T")
    return BlockerSpec(values[0], values[1], tuple(values[2:]))


def cmd_render(ns: argparse.Namespace) -> int:
    from .render import RenderSpec, render_figure
    ctx = PolygonContext(ns.m)
    check_cap(ns.m, SINGLE_SET_CAP, "single-set")
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
        with open(ns.out, "w", encoding="utf-8") as out:
            out.write(svg)
    except OSError as exc:
        raise InputError(f"cannot write {ns.out}: {exc.strerror}") from None
    return 0


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for `argv`.  Every command and subcommand is registered
    with its help string, so help, usage and choice errors read the same
    whatever `argv` holds, but only those whose name is a word of `argv`
    get their arguments and sub-parsers: argparse enters a command's parser
    only on a word equal to its name, so it never reaches an empty one."""
    words = set(argv)
    parser = argparse.ArgumentParser(
        prog="convex-blockers",
        description="Minimum blocking sets for non-crossing perfect matchings "
                    "of a convex polygon")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, summary, func=None):
        """Register `name`; return its parser to fill if `argv` names it."""
        p = subparsers.add_parser(name, help=summary)
        if name not in words:
            return None
        if func is not None:
            p.set_defaults(func=func)
        return p

    def polygon(p):
        p.add_argument("--m", type=_int_flag, required=True)

    def listing(p):
        polygon(p)
        p.add_argument("--format", type=_choice, choices=("lines", "json"), default="lines")

    if spm := command(sub, "spm", "simple perfect matchings"):
        spm_sub = spm.add_subparsers(dest="subcommand", required=True)
        if p := command(spm_sub, "enumerate", "list every matching", cmd_spm_enumerate):
            listing(p)
        if p := command(spm_sub, "parallel", "the l-th parallel matching",
                        cmd_spm_parallel):
            polygon(p)
            p.add_argument("--l", type=_int_flag, required=True)
        if p := command(spm_sub, "triangular",
                        "triangular matching from three boundary edges",
                        cmd_spm_triangular):
            polygon(p)
            p.add_argument("--edges", required=True, metavar="I1,I2,I3")

    if blocker := command(sub, "blocker", "minimum blocking sets"):
        blocker_sub = blocker.add_subparsers(dest="subcommand", required=True)
        if p := command(blocker_sub, "enumerate", "list every blocker",
                        cmd_blocker_enumerate):
            listing(p)
        if p := command(blocker_sub, "count", "closed-form blocker count",
                        cmd_blocker_count):
            polygon(p)
            p.add_argument("--by-spine", action="store_true",
                           help="one count per spine length t = 2..m")
        if p := command(blocker_sub, "check", "parse, structural report, blocking check",
                        cmd_blocker_check):
            polygon(p)
            p.add_argument("--edges", required=True, metavar="LIST",
                           help="comma-separated edges, e.g. 0-1,1-2,1-4")

    if p := command(sub, "oracle", "brute-force minimum blocking sets", cmd_oracle):
        polygon(p)
        p.add_argument("--mode", type=_choice, choices=("naive", "pruned"), default="pruned")

    if p := command(sub, "verify", "cross-check generator against search", cmd_verify):
        p.add_argument("--m-min", type=_int_flag, required=True)
        p.add_argument("--m-max", type=_int_flag, required=True)
        p.add_argument("--naive-up-to", type=_int_flag, default=4)

    if p := command(sub, "render", "draw an edge set as SVG", cmd_render):
        polygon(p)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--edges", metavar="LIST")
        group.add_argument("--blocker-spec", metavar="START,T,EPS...")
        p.add_argument("--thick-edges", metavar="LIST")
        p.add_argument("--context-edges", metavar="LIST")
        p.add_argument("--labels", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--out", required=True)

    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.func(ns)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _watched() -> bool:
    """True when a tracer or profiler is installed, through `sys.settrace`,
    `sys.setprofile` or one of the six `sys.monitoring` tool ids (`cProfile`
    since Python 3.12), or when a `bdb` debugger such as pdb is loaded: its
    `continue` drops the trace function while no breakpoint is set."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or "bdb" in sys.modules
            or monitoring is not None
            and any(monitoring.get_tool(tool) is not None for tool in range(6)))


def main():
    """Run the command line, then end the process with its status; it
    does not return."""
    try:
        status = run_cli()
        # Flush here, so that a closed pipe raises inside the try block.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`| head`).  Any later flush of stdout goes
        # to devnull and stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    if _watched():
        # Their reports come from the interpreter's own shutdown.
        raise SystemExit(status)
    # Every byte is out: run the exit handlers and flush what they print,
    # then skip the teardown that frees each module and object.
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
