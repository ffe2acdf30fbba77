#!/usr/bin/env python3
"""Outside-in benchmark of convex-blockers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ./src.
Each workload repeats a fixed unit of work (a "pass") for about S
seconds, with one client and one child process at a time, and checks
every output against perfbench/reference.py.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 every second pass runs under the tracer and the metrics are the
per-layer ones.  The line before it holds run details (sample counts,
tail percentile, Python version, CPUs, source digest, failures).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import machine
import reference as ref
from tracer import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
PY = sys.executable
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 3
IMPORT_PROBE_PAIRS = 5

VERIFY_ARGS = ("verify", "--m-min", "2", "--m-max", "8", "--naive-up-to", "5")
CHECK_M = 9
SPM_M = 11
SPM_SAMPLE = 256

# verify durations_ms keys, and the traced call each phase wraps.
PHASES = {
    "spm_enumeration": "oracle.build_family_index",
    "blocker_generation": "blockers.enumerate_blockers",
    "oracle_class_pruned": "oracle.search_pruned",
    "structural_checks": "blockers.validate_caterpillar",
    "blocking_checks": "oracle.is_blocking_set",
    "oracle_naive": "oracle.search_naive",
}


@dataclasses.dataclass
class Child:
    returncode: int
    wall_s: float
    peak_rss_kb: int
    stdout: bytes
    stderr: bytes

    def trace(self):
        """A traced child's span summary, or None if it printed none."""
        for line in reversed(self.stderr.decode(errors="replace").splitlines()):
            if line.startswith(TRACE_PREFIX):
                return json.loads(line[len(TRACE_PREFIX):])
        return None


@dataclasses.dataclass
class Pass:
    """One pass: its raw wall time, per-op latencies and check results.
    `scale` turns its raw times into reference-speed times (machine.py);
    the latencies are scaled as soon as the scale is known."""

    wall_s: float
    ops: int
    attempted: int
    failed: int
    latencies_ms: list
    peak_rss_kb: int = 0
    traced: bool = False
    problems: list = dataclasses.field(default_factory=list)
    traces: list = dataclasses.field(default_factory=list)
    phases: dict = dataclasses.field(default_factory=dict)
    scale: float = 1.0


def run_child(argv: list, env: dict) -> Child:
    """Run one child to completion, draining its pipes; the peak RSS is
    this child's own, from wait4."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    out: dict = {}
    readers = [threading.Thread(target=lambda k=k, s=s: out.__setitem__(k, s.read()))
               for k, s in (("out", proc.stdout), ("err", proc.stderr))]
    for r in readers:
        r.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, time.perf_counter() - started, usage.ru_maxrss,
                 out["out"], out["err"])


def repeat(seconds: float, run_pass, trace: bool, calibration_runs: int) -> list:
    """Run passes until the next one would end after `seconds`.  With
    `trace`, every second pass is traced, so both kinds see the same
    machine, and there are at least two passes."""
    passes: list = []
    started = time.perf_counter()
    before = machine.calibration_s(calibration_runs)
    while True:
        i = len(passes)
        passes.append(run_pass(i, trace and i % 2 == 1))
        after = machine.calibration_s(calibration_runs)
        p = passes[-1]
        p.scale = machine.scale(before, after)
        p.latencies_ms = [v * p.scale for v in p.latencies_ms]
        before = after
        if (len(passes) > trace
                and time.perf_counter() - started + passes[-1].wall_s > seconds):
            return passes


class Bench:
    """Workloads driven through the CLI define `one(i, traced)`, one pass."""

    calibration_runs = 3

    def __init__(self, root: Path, seed: int):
        self.src = root / "src"
        self.seed = seed
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "CONVEX_BLOCKERS_MAX_M")}
        self.env["PYTHONPATH"] = str(self.src)

    def cli(self, args, traced: bool, op: int = 0) -> Child:
        if traced:
            argv = [PY, str(HERE / "child.py"), "cli", "--src", str(self.src),
                    "--op", str(op), "--", *args]
        else:
            argv = [PY, "-m", "convex_blockers", *args]
        return run_child(argv, self.env)

    def measure(self, seconds: float, trace: bool) -> list:
        return repeat(seconds, self.one, trace, self.calibration_runs)

    @staticmethod
    def op_latencies(passes: list) -> list:
        """Every op's latency, in reference-speed ms."""
        return [v for p in passes for v in p.latencies_ms]

    def import_probe(self) -> float:
        """Wall time of a fresh interpreter importing the CLI from ./src."""
        child = run_child([PY, "-c", "import convex_blockers.cli as c; print(c.__file__)"],
                          self.env)
        where = Path(child.stdout.decode().strip()).resolve()
        if child.returncode != 0 or self.src.resolve() not in where.parents:
            raise SystemExit(f"cannot import convex_blockers from {self.src}")
        return child.wall_s


class VerifySweep(Bench):
    def setup(self):
        self.import_probe()

    def one(self, i: int, traced: bool) -> Pass:
        child = self.cli(VERIFY_ARGS, traced, op=i)
        text = child.stdout.decode(errors="replace")
        attempted, failed, problems = checks.check_verify(text, child.returncode, 2, 8, 5)
        p = Pass(child.wall_s, attempted, attempted, failed, [child.wall_s * 1e3],
                 child.peak_rss_kb, traced, problems)
        if traced:
            p.traces = [child.trace()]
            p.phases = published_phases(text)
        return p


class CheckStream(Bench):
    """A pass is one call, so that each call has its own speed scale; one
    calibration run between calls keeps the overhead near a third."""

    calibration_runs = 1

    def setup(self):
        self.import_probe()
        self.truth = ref.all_blockers(CHECK_M)
        self.calls = (call for batch in ref.check_stream_batches(self.seed, CHECK_M)
                      for call in batch)
        self.kinds: dict = {}
        self.blockers = 0

    def one(self, i: int, traced: bool) -> Pass:
        kind, edges = next(self.calls)
        child = self.cli(("blocker", "check", "--m", str(CHECK_M),
                          "--edges", ref.edges_text(edges)), traced, op=i)
        truth = self.truth.get(edges)
        problems = checks.check_blocker_call(CHECK_M, edges, truth, child.returncode,
                                             child.stdout.decode(errors="replace"))
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        self.blockers += truth is not None
        return Pass(child.wall_s, 1, 1, bool(problems), [child.wall_s * 1e3],
                    child.peak_rss_kb, traced, problems,
                    [child.trace()] if traced else [])

    def details(self) -> dict:
        total = sum(self.kinds.values())
        return {"kind_shares": {k: v / total for k, v in sorted(self.kinds.items())},
                "blocker_share": self.blockers / total}


class SpmDump(Bench):
    def setup(self):
        self.import_probe()
        self.sample = ref.spm_sample(self.seed, ref.catalan(SPM_M), SPM_SAMPLE)

    def one(self, i: int, traced: bool) -> Pass:
        child = self.cli(("spm", "enumerate", "--m", str(SPM_M)), traced, op=i)
        attempted, failed, problems = checks.check_spm_lines(
            SPM_M, child.stdout, child.returncode, self.sample)
        return Pass(child.wall_s, child.stdout.count(b"\n"), attempted, failed,
                    [child.wall_s * 1e3], child.peak_rss_kb, traced, problems,
                    [child.trace()] if traced else [])


class BlockerRoundtrip(Bench):
    """Set-up is the worker's own: import, reference set and inputs."""

    def worker_argv(self, seconds: float) -> list:
        return [PY, str(HERE / "child.py"), "roundtrip", "--src", str(self.src),
                "--seed", str(self.seed), "--seconds", repr(seconds)]

    def setup(self):
        child = run_child(self.worker_argv(0) + ["--setup-only"], self.env)
        if child.returncode != 0:
            raise SystemExit(f"roundtrip worker failed: {child.stderr.decode()[-300:]}")
        self.worker: dict = {}

    def measure(self, seconds: float, trace: bool) -> list:
        argv = self.worker_argv(seconds) + (["--trace"] if trace else [])
        child = run_child(argv, self.env)
        try:
            report = json.loads(child.stdout.decode().splitlines()[-1])
        except (ValueError, IndexError):
            return [Pass(0.0, 0, 1, 1, [], child.peak_rss_kb, problems=[
                f"roundtrip worker exited {child.returncode}: "
                f"{child.stderr.decode(errors='replace')[-300:]}"])]
        self.worker = {k: report[k] for k in ("setup_s", "kinds", "blocker_share")}
        n = report["ops_per_pass"]
        lat = report["latencies_ms"]
        passes = [Pass(w, n, 0, 0, lat[i * n:(i + 1) * n], child.peak_rss_kb,
                       traced, traces=[summary] if traced else [], scale=scale)
                  for i, (w, traced, summary, scale) in enumerate(zip(
                      report["walls"], report["traced"], report["traces"],
                      report["scales"]))]
        passes[0].attempted, passes[0].failed = report["attempted"], report["failed"]
        passes[0].problems = report["problems"]
        if child.returncode != 0:
            passes[0].failed += 1
            passes[0].problems.append(f"worker exit code {child.returncode}")
        return passes

    @staticmethod
    def op_latencies(passes: list) -> list:
        """Each input's best time over the passes.  Every pass runs the
        same inputs, and the slowest of 60k samples measure the machine's
        4 ms preemptions, not the program; the best of several passes
        keeps the slow inputs and drops the interference."""
        return [min(times) for times in zip(*(p.latencies_ms for p in passes))]

    def details(self) -> dict:
        return {"worker": self.worker}


WORKLOADS = {
    "verify_sweep": VerifySweep,
    "check_stream": CheckStream,
    "blocker_roundtrip": BlockerRoundtrip,
    "spm_dump": SpmDump,
}


def published_phases(text: str) -> dict:
    """verify's durations_ms summed over m; keys no report has stay absent."""
    totals: dict = {}
    for line in text.splitlines():
        try:
            durations = json.loads(line).get("durations_ms", {})
        except (ValueError, AttributeError):
            continue
        for key, ms in durations.items():
            totals[key] = totals.get(key, 0.0) + ms
    return totals


def percentiles(samples: list) -> tuple:
    """(p50, tail, description).  The tail is the highest percentile with
    at least ten samples beyond it.  Below eleven samples neither is
    resolved, and both are the mean: the median of a handful of samples on
    a noisy machine spreads half again as much."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        mean = statistics.fmean(s)
        return mean, mean, f"mean of {n}; too few samples for percentiles"
    return statistics.median(s), s[n - 11], f"p{100 * (n - 10) / n:.2f} of {n}"


def end_to_end(passes: list, setup_s: float, latencies: list) -> tuple:
    """Times are reference-speed times (machine.py)."""
    walls = [p.wall_s * p.scale for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    p50_ms, tail_ms, tail_name = percentiles(latencies)
    metrics = {
        # Means: with five to ten passes they spread less than medians.
        "wall_s": (statistics.fmean(walls), "s"),
        "ops_per_s": (sum(p.ops for p in passes) / sum(walls), "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (max(p.peak_rss_kb for p in passes) / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, {"passes": len(passes), "raw_pass_walls_s": [p.wall_s for p in passes],
                     "scales": [p.scale for p in passes], "op_samples": len(latencies),
                     "op_tail": tail_name, "failed_ratio": failed / attempted}


def per_layer(untraced: list, traced: list, import_ms: float) -> tuple:
    """Per-pass means of the traced passes' span totals and counters;
    times are reference-speed times (machine.py)."""
    n = len(traced)
    fns: dict = {}
    cli_self = 0.0
    for p in traced:
        for summary in filter(None, p.traces):
            cli_self += summary["cli_layer_self_ms"] * p.scale
            for name, row in summary["functions"].items():
                acc = fns.setdefault(name, dict.fromkeys(row, 0))
                for k, v in row.items():
                    acc[k] += v * p.scale if k in ("ms", "self_ms") else v

    def get(name, key):
        return fns.get(name, {}).get(key, 0) / n

    def share(num, den):
        return num / den if den else 0.0

    m = {"cli.import_ms": (import_ms, "ms"),
         "cli.run_cli.self_ms": (cli_self / n, "ms")}
    for name in ("geometry.edges_to_text", "matchings.enumerate_spms",
                 "oracle.is_blocking_set", "oracle.missed_spms",
                 "blockers.generate_blocker", "blockers.parse_blocker",
                 "blockers.validate_caterpillar"):
        m[f"{name}.ms"] = (get(name, "ms"), "ms")
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    m["matchings.spms_out"] = (get("matchings.enumerate_spms", "note_sum"), "count")
    for name in ("oracle.build_family_index", "blockers.enumerate_blockers",
                 "verify.verify_theorem"):
        m[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    m["oracle.build_family_index.calls"] = (get("oracle.build_family_index", "calls"),
                                            "count")
    m["oracle.is_blocking_set.true_ratio"] = (
        share(get("oracle.is_blocking_set", "note_sum"),
              get("oracle.is_blocking_set", "calls")), "ratio")
    returned = get("oracle.missed_spms", "note_sum")
    m["oracle.missed_spms.returned"] = (returned, "count")
    # cli reads only the first missed matching of each call.
    m["oracle.missed_spms.used_ratio"] = (
        share(min(get("oracle.missed_spms", "calls"), returned), returned), "ratio")
    for mode in ("pruned", "naive"):
        name = f"oracle.search_{mode}"
        m[f"{name}.ms"] = (get(name, "ms"), "ms")
        m[f"{name}.nodes"] = (get(name, "note_sum"), "count")
        m[f"{name}.sets_per_node"] = (share(get(name, "sets"), get(name, "note_sum")),
                                      "ratio")
    m["blockers.parse_blocker.accept_ratio"] = (
        share(get("blockers.parse_blocker", "note_sum"),
              get("blockers.parse_blocker", "calls")), "ratio")

    detail: dict = {"traced_passes": n, "untraced_passes": len(untraced),
                    "raw_pass_walls_s": {"traced": [p.wall_s for p in traced],
                                         "untraced": [p.wall_s for p in untraced]},
                    "scales": {"traced": [p.scale for p in traced],
                               "untraced": [p.scale for p in untraced]}}
    published = [(p.phases, p.scale) for p in traced if p.phases]
    if published:
        consistency = {}
        for key, span in PHASES.items():
            if not all(key in ph for ph, _scale in published):
                detail.setdefault("missing_phase_keys", []).append(key)
                continue
            phase_ms = sum(ph[key] * scale for ph, scale in published) / n
            m[f"verify.phase.{key}.ms"] = (phase_ms, "ms")
            span_ms = get(span, "ms")
            consistency[key] = {"phase_ms": phase_ms, "span_ms": span_ms,
                                "ratio": share(phase_ms, span_ms)}
        detail["phase_vs_span"] = consistency
        detail["unlisted_phase_keys"] = sorted(
            {k for ph, _scale in published for k in ph} - set(PHASES))
    else:
        for key in PHASES:
            m[f"verify.phase.{key}.ms"] = (0.0, "ms")
    m["trace.overhead_ratio"] = (
        statistics.median(p.wall_s * p.scale for p in traced)
        / statistics.median(p.wall_s * p.scale for p in untraced), "ratio")
    detail["layers_not_run"] = sorted(
        name for name in ("geometry.edges_to_text", "matchings.enumerate_spms",
                          "oracle.build_family_index", "oracle.is_blocking_set",
                          "oracle.missed_spms", "oracle.search_pruned",
                          "oracle.search_naive", "blockers.enumerate_blockers",
                          "blockers.generate_blocker", "blockers.parse_blocker",
                          "blockers.validate_caterpillar", "verify.verify_theorem")
        if name not in fns)
    return m, detail


def import_ms(bench: Bench) -> float:
    """Median import cost of the CLI over a bare interpreter start, in
    reference-speed milliseconds."""
    bare, full = [], []
    before = machine.calibration_s(3)
    for _ in range(IMPORT_PROBE_PAIRS):
        bare.append(run_child([PY, "-c", "pass"], bench.env).wall_s)
        full.append(bench.import_probe())
    scale = machine.scale(before, machine.calibration_s(3))
    return (statistics.median(full) - statistics.median(bare)) * 1e3 * scale


def build(root: Path) -> float:
    """Byte-compile the package and the benchmark, as an install would."""
    started = time.perf_counter()
    done = subprocess.run([PY, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
                          stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit("byte-compiling src failed")
    return time.perf_counter() - started


def provenance(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        text = head.read_text().strip()
        ref_file = root / ".git" / text[5:] if text.startswith("ref: ") else None
        commit = (ref_file.read_text().strip()
                  if ref_file and ref_file.is_file() else text)
    return {"python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "convex_blockers" / "cli.py").is_file():
        print(f"error: no src/convex_blockers under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    build_s = build(root)
    bench = WORKLOADS[ns.workload](root, ns.seed)
    setups = []
    before = machine.calibration_s(3)
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - started)
    setup_scale = machine.scale(before, machine.calibration_s(3))
    setup_s = statistics.median(setups) * setup_scale

    passes = bench.measure(ns.seconds, trace=bool(ns.trace))
    if ns.trace:
        metrics, detail = per_layer([p for p in passes if not p.traced],
                                    [p for p in passes if p.traced], import_ms(bench))
    else:
        metrics, detail = end_to_end(passes, setup_s, bench.op_latencies(passes))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail.update(workload=ns.workload, seed=ns.seed, seconds=ns.seconds,
                  trace=ns.trace, build_s=build_s, raw_setup_runs_s=setups,
                  setup_scale=setup_scale,
                  problems=[msg for p in passes for msg in p.problems][:10],
                  **provenance(root))
    if hasattr(bench, "details"):
        detail.update(bench.details())
    print(json.dumps({"details": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
