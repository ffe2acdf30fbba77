"""Child processes the benchmark starts; never imported by run.py.

    child.py cli --src SRC --op N -- ARGV...
        Runs cli.run_cli(ARGV) under the tracer and appends one line
        `TRACE_PREFIX {summary}` to stderr.  Exits with run_cli's status.

    child.py roundtrip --src SRC --seed N --seconds S [--trace] [--setup-only]
        The blocker_roundtrip library loop at m = 11.  Prints one JSON
        object with pass walls, per-op latencies and check results; with
        --setup-only it stops once the inputs are built.

Both refuse to run unless convex_blockers is imported from SRC.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import checks
import machine
import reference as ref
from tracer import TRACE_PREFIX, Tracer, summarise

ROUNDTRIP_M = 11
# Operations between two calibration spins in the roundtrip loop.
SPIN_BLOCK = 256


def _import_package(src: str):
    import convex_blockers
    where = Path(convex_blockers.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"convex_blockers imported from {where}, not from {src}")
    return convex_blockers


def traced_cli(src: str, op: int, argv: list) -> int:
    _import_package(src)
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    from convex_blockers import cli
    status = cli.run_cli(argv)
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(summarise(tracer.spans)), file=sys.stderr)
    return status


def _plain(parsed):
    """(start, t, eps) for a BlockerSpec, the name for a violation."""
    if hasattr(parsed, "eps"):
        return (parsed.start, parsed.t, tuple(parsed.eps))
    return getattr(parsed, "name", parsed)


def roundtrip(src: str, seed: int, seconds: float, trace: bool,
              setup_only: bool = False) -> dict:
    """With `trace`, every second pass runs under the tracer."""
    started = time.perf_counter()
    cb = _import_package(src)
    m = ROUNDTRIP_M
    ctx = cb.PolygonContext(m)
    truth = ref.all_blockers(m)
    items = ref.roundtrip_inputs(seed, m)
    sets = [frozenset(cb.Edge(a, b) for a, b in edges) for _kind, edges in items]
    truths = [truth.get(edges) for _kind, edges in items]
    # The benchmark's own inputs stay out of the program's collections.
    gc.freeze()
    setup_s = time.perf_counter() - started
    if setup_only:
        return {"setup_s": setup_s}

    clock = time.perf_counter_ns
    walls, flags, scales, latencies, traces, problems = [], [], [], [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(walls) % 2 == 1 else None
        if tracer:
            tracer.install()
        parse, validate = cb.parse_blocker, cb.validate_caterpillar
        enumerate_blockers = cb.enumerate_blockers
        spin = machine.spin_s()
        t0 = clock()
        enumerated = enumerate_blockers(ctx)
        pending = clock() - t0  # timed, not an op; scaled with the first block
        block, raw, scaled, item_problems = [], 0, 0.0, []
        for i, (edges, expected) in enumerate(zip(sets, truths)):
            if tracer:
                tracer.op = i
            t0 = clock()
            try:
                parsed = parse(ctx, edges)
                ok = validate(ctx, edges).ok
            except Exception as exc:  # a failed op is counted, never fatal
                parsed, ok = f"raised {exc!r}", None
            block.append(clock() - t0)
            # Checked at once, so the program's results die young, as they
            # would in a caller that does not hoard them.
            found = checks.check_roundtrip_item(expected, _plain(parsed), ok)
            failed += bool(found)
            item_problems += found
            if len(block) == SPIN_BLOCK or i == len(sets) - 1:
                after = machine.spin_s()
                k = machine.scale(spin, after, machine.SPIN_REFERENCE_S)
                spin = after
                busy = pending + sum(block)
                raw += busy
                scaled += k * busy
                latencies += [k * v / 1e6 for v in block]
                block, pending = [], 0
        walls.append(raw / 1e9)
        scales.append(scaled / raw)
        flags.append(tracer is not None)
        if tracer:
            tracer.uninstall()
        traces.append(summarise(tracer.spans) if tracer else None)

        keys = [tuple(sorted((e.a, e.b) for e in s)) for s in enumerated]
        found = checks.check_enumerated(m, keys, truth)
        failed += bool(found)
        problems += (found + item_problems)[:5 - len(problems)]
        attempted += len(sets) + 1
        if (len(walls) > trace
                and time.perf_counter() - loop_start + walls[-1] > seconds):
            break
    blockers = sum(t is not None for t in truths)
    return {
        "setup_s": setup_s, "walls": walls, "traced": flags, "scales": scales,
        "latencies_ms": latencies,
        "ops_per_pass": len(sets), "attempted": attempted, "failed": failed,
        "problems": problems, "traces": traces,
        "kinds": {k: sum(1 for kind, _e in items if kind == k)
                  for k in (ref.BLOCKER,) + ref.MUTANT_KINDS},
        "blocker_share": blockers / len(sets),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--src", required=True)
    p.add_argument("--op", type=int, default=0)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("roundtrip")
    p.add_argument("--src", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    ns = parser.parse_args(argv)
    if ns.mode == "cli":
        cli_argv = ns.argv[1:] if ns.argv[:1] == ["--"] else ns.argv
        return traced_cli(ns.src, ns.op, cli_argv)
    print(json.dumps(roundtrip(ns.src, ns.seed, ns.seconds, ns.trace,
                               ns.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
