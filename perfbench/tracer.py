"""Outside-in tracer for the traced benchmark run.

It wraps the public functions of the matchings, blockers, oracle, verify
and cli modules, plus geometry.edges_to_text, and rebinds every reference
to them in every module of the package, because `from .x import f` copies
the reference into the importing module.  The fine-grained geometry
predicates stay unwrapped: the wrapper would cost more than they do.

Each call becomes a span [name, start_ns, end_ns, parent, op, note] kept in
memory; `note` is a small summary of the result used for counters.
`summarise` turns the spans into per-name totals and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("matchings", "blockers", "oracle", "verify", "cli")
EXTRA_FUNCTIONS = ("geometry.edges_to_text",)
# Marks the stderr line that carries a traced child's summary.
TRACE_PREFIX = "PERFBENCH_TRACE "


def _note_for(name: str):
    """Summary of a call's result, for the counters of some functions."""
    if name == "matchings.enumerate_spms":
        return lambda result: len(result)
    if name == "oracle.is_blocking_set":
        return bool
    if name == "oracle.missed_spms":
        return lambda result: len(result)
    if name == "oracle.find_minimum_blockers":
        return lambda r: (r.mode, r.nodes, len(r.minimum_sets))
    if name == "blockers.parse_blocker":
        return lambda result: type(result).__name__ == "BlockerSpec"
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, _note_for(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return traced

    def install(self, package: str = "convex_blockers") -> None:
        """Wrap the traced functions and rebind every reference to them."""
        targets = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[obj] = f"{short}.{attr}"
        for dotted in EXTRA_FUNCTIONS:
            short, attr = dotted.split(".")
            obj = getattr(importlib.import_module(f"{package}.{short}"), attr)
            targets[obj] = dotted
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._rebound.append((module, attr, obj))

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound.clear()


def summarise(spans: list) -> dict:
    """Per-name totals: calls, ms, self_ms and result counters.

    Self time is a span's duration minus the durations of its direct
    children.  `cli_layer_self_ms` sums the self time of every cli span:
    the time spent in cli code, whichever cli function it was in.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _note in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    cli_self = 0
    for i, (name, start, end, _parent, _op, note) in enumerate(spans):
        key = name
        if name == "oracle.find_minimum_blockers" and note is not None:
            key = ("oracle.search_naive" if note[0] == "naive"
                   else "oracle.search_pruned")
        row = out.setdefault(key, {"calls": 0, "ns": 0, "self_ns": 0,
                                   "note_sum": 0, "sets": 0})
        dur = end - start
        row["calls"] += 1
        row["ns"] += dur
        row["self_ns"] += dur - child_ns[i]
        if isinstance(note, tuple):
            row["note_sum"] += note[1]
            row["sets"] += note[2]
        elif note is not None:
            row["note_sum"] += int(note)
        if name.startswith("cli."):
            cli_self += dur - child_ns[i]
    for row in out.values():
        row["ms"] = row.pop("ns") / 1e6
        row["self_ms"] = row.pop("self_ns") / 1e6
    return {"functions": out, "cli_layer_self_ms": cli_self / 1e6}
