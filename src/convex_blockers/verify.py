"""End-to-end cross-check of the blocker characterization at small sizes.

For each m this pipeline enumerates the matchings, generates the blockers
from their canonical parameters, finds all minimum blocking sets by
independent search, and compares the two collections as sets; it also
re-validates every set structurally and confirms by direct evaluation
that each generated set really blocks every matching.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .blockers import enumerate_blockers, count_blockers, validate_caterpillar
from .errors import InputError, check_cap
from .geometry import PolygonContext, edges_to_lists, is_boundary_edge
from .matchings import DEFAULT_MAX_M, catalan_number
from .oracle import (
    DEFAULT_NAIVE_CAP,
    DEFAULT_PRUNED_CAP,
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    build_family_index,
    check_search_cap,
    find_minimum_blockers,
    is_blocking_set,
)

__all__ = ["VerificationReport", "verify_theorem", "verify_special_blockers"]

MAX_WITNESSES = 10


@contextmanager
def _timed(durations: dict[str, float], label: str):
    """Record the wall time of the block in milliseconds under `label`."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        durations[label] = (time.perf_counter() - t0) * 1000.0


@dataclass
class VerificationReport:
    """Machine-readable verdict for one polygon size.

    `set_equality` is the substantive statement: the generated blockers
    and the search-found minimum blocking sets coincide.  `naive_agrees`
    and `lower_bound_pass` are None when the naive search was not run.
    """

    m: int
    spm_count: int
    expected_spm_count: int
    generated_count: int
    oracle_count: int
    formula_count: int
    set_equality: bool
    structural_pass: bool
    blocks_all_spms: bool
    naive_agrees: bool | None
    lower_bound_pass: bool | None
    durations_ms: dict[str, float] = field(default_factory=dict)
    oracle_only: list[list[list[int]]] = field(default_factory=list)
    generated_only: list[list[list[int]]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.spm_count == self.expected_spm_count
                and self.generated_count == self.formula_count
                and self.oracle_count == self.formula_count
                and self.set_equality
                and self.structural_pass
                and self.blocks_all_spms
                and self.naive_agrees is not False
                and self.lower_bound_pass is not False)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "verdict": self.verdict,
            "spm_count": self.spm_count,
            "expected_spm_count": self.expected_spm_count,
            "generated_count": self.generated_count,
            "oracle_count": self.oracle_count,
            "formula_count": self.formula_count,
            "set_equality": self.set_equality,
            "structural_pass": self.structural_pass,
            "blocks_all_spms": self.blocks_all_spms,
            "naive_agrees": self.naive_agrees,
            "lower_bound_pass": self.lower_bound_pass,
            "durations_ms": {k: round(v, 3) for k, v in self.durations_ms.items()},
            "witnesses": {
                "oracle_only": self.oracle_only,
                "generated_only": self.generated_only,
            },
        }


def verify_theorem(m_min: int, m_max: int, naive_up_to: int = 0, *,
                   naive_cap: int = DEFAULT_NAIVE_CAP,
                   pruned_cap: int = DEFAULT_PRUNED_CAP,
                   max_m: int = DEFAULT_MAX_M) -> list[VerificationReport]:
    """One report per m in m_min..m_max; the naive search also runs for
    m <= naive_up_to.  An m beyond any cap is refused before any work."""
    if not 2 <= m_min <= m_max:
        raise InputError(f"need 2 <= m_min <= m_max, got {m_min}..{m_max}")
    for m in range(m_min, m_max + 1):
        check_cap(m, max_m, "enumeration")
        check_search_cap(m, MODE_CLASS_PRUNED, pruned_cap=pruned_cap)
        if m <= naive_up_to:
            check_search_cap(m, MODE_NAIVE, naive_cap=naive_cap)
    return [
        _verify_single(m, naive=m <= naive_up_to, naive_cap=naive_cap,
                       pruned_cap=pruned_cap, max_m=max_m)
        for m in range(m_min, m_max + 1)
    ]


def _verify_single(m: int, *, naive: bool, naive_cap: int, pruned_cap: int,
                   max_m: int) -> VerificationReport:
    ctx = PolygonContext(m)
    durations: dict[str, float] = {}

    with _timed(durations, "spm_enumeration"):
        index = build_family_index(ctx, max_m=max_m)
    with _timed(durations, "blocker_generation"):
        generated = enumerate_blockers(ctx)
    with _timed(durations, "oracle_class_pruned"):
        pruned = find_minimum_blockers(index, MODE_CLASS_PRUNED, pruned_cap=pruned_cap)

    generated_sets = set(generated)
    oracle_sets = set(pruned.minimum_sets)
    set_equality = generated_sets == oracle_sets
    # Lists of [a, b] pairs sort like the sorted edge lists they come from.
    oracle_only = sorted(map(edges_to_lists, oracle_sets - generated_sets))
    generated_only = sorted(map(edges_to_lists, generated_sets - oracle_sets))

    with _timed(durations, "structural_checks"):
        structural_pass = all(validate_caterpillar(ctx, s).ok
                              for s in generated_sets | oracle_sets)
    with _timed(durations, "blocking_checks"):
        blocks_all = all(is_blocking_set(index, s) for s in generated)

    naive_agrees: bool | None = None
    lower_bound: bool | None = None
    if naive:
        with _timed(durations, "oracle_naive"):
            naive_result = find_minimum_blockers(index, MODE_NAIVE, naive_cap=naive_cap)
        naive_agrees = set(naive_result.minimum_sets) == oracle_sets
        lower_bound = naive_result.minimum_size == m

    return VerificationReport(
        m=m,
        spm_count=index.spm_count,
        expected_spm_count=catalan_number(m),
        generated_count=len(generated),
        oracle_count=len(pruned.minimum_sets),
        formula_count=count_blockers(m),
        set_equality=set_equality,
        structural_pass=structural_pass,
        blocks_all_spms=blocks_all,
        naive_agrees=naive_agrees,
        lower_bound_pass=lower_bound,
        durations_ms=durations,
        oracle_only=oracle_only[:MAX_WITNESSES],
        generated_only=generated_only[:MAX_WITNESSES],
    )


def verify_special_blockers(m: int) -> bool:
    """Half-boundaries and odd stars at every rotation block everything,
    and every search-found minimum blocker keeps >= 2 boundary edges."""
    if m < 2:
        raise InputError("special-blocker checks require m >= 2")
    check_search_cap(m, MODE_CLASS_PRUNED)
    ctx = PolygonContext(m)
    index = build_family_index(ctx)
    halves = [{ctx.boundary_edge(s + i) for i in range(m)} for s in range(ctx.n)]
    odd_stars = [{ctx.edge(v, v + k) for k in range(1, ctx.n, 2)} for v in range(ctx.n)]
    if not all(is_blocking_set(index, s) for s in halves + odd_stars):
        return False
    result = find_minimum_blockers(index, MODE_CLASS_PRUNED)
    return all(sum(1 for e in s if is_boundary_edge(ctx, e)) >= 2
               for s in result.minimum_sets)
