"""End-to-end cross-check of the blocker characterization at small sizes.

For each m this pipeline enumerates the matchings, generates the blockers
from their canonical parameters, finds all minimum blocking sets by
independent search, and compares the two collections as sets; it also
re-validates every set structurally and confirms by direct evaluation
that the generated sets really block every matching.

The blocking checks evaluate one set per rotation orbit once the two
collections are equal: start 0's 2^(m-2) sets, the first of the generated
order.  That is exact, because every set the search finds leaves no
matching unhit at its leaf, and because turning the polygon by one vertex
maps matchings to matchings, so a set blocks exactly when its turn does.
When the collections differ, every generated set is evaluated.

The generation is `enumerate_blockers`, which turns start 0's sets through
the other starts (see the `blockers` module).  The paper's special blockers,
the half-boundaries and the odd stars, are among the generated sets, so
set equality and the blocking checks cover them with no check of their own.
"""

from __future__ import annotations

import time
from collections import namedtuple
from contextlib import contextmanager

from .blockers import enumerate_blockers, count_blockers, validate_caterpillar
from .errors import InputError, check_cap, check_ints, clipped
from .geometry import PolygonContext, edges_to_lists
from .matchings import DEFAULT_MAX_M, catalan_number
from .oracle import (
    MODE_CLASS_PRUNED,
    MODE_NAIVE,
    build_family_index,
    check_search_cap,
    find_minimum_blockers,
    is_blocking_set,
)

MAX_WITNESSES = 10


@contextmanager
def _timed(durations: list[tuple[str, float]], label: str):
    """Append `(label, ms)`, the wall time of the block in milliseconds."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        durations.append((label, (time.perf_counter() - t0) * 1000.0))


class VerificationReport(namedtuple("_VerificationReport", (
        "m spm_count expected_spm_count generated_count oracle_count "
        "formula_count set_equality structural_pass blocks_all_spms "
        "naive_agrees lower_bound_pass durations_ms oracle_only generated_only"))):
    """Machine-readable verdict for one polygon size.

    `set_equality` is the substantive statement: the generated blockers
    and the search-found minimum blocking sets coincide.  `naive_agrees`
    and `lower_bound_pass` are None when the naive search was not run.
    The counts are ints and the checks bools; `durations_ms` holds one
    (phase, wall time) pair per phase in run order, and `oracle_only` and
    `generated_only` hold the first mismatched sets, each as its sorted
    tuple of edges.  Every field is a value, so the report hashes.
    """

    __slots__ = ()

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
            "durations_ms": {k: round(v, 3) for k, v in self.durations_ms},
            "witnesses": {
                "oracle_only": [edges_to_lists(s) for s in self.oracle_only],
                "generated_only": [edges_to_lists(s) for s in self.generated_only],
            },
        }


def verify_theorem(m_min: int, m_max: int, naive_up_to: int = 0) -> list[VerificationReport]:
    """One report per m in m_min..m_max; the naive search also runs for
    m <= naive_up_to.  An m beyond any fixed cap (enumeration `DEFAULT_MAX_M`,
    pruned search `DEFAULT_PRUNED_CAP`, naive search `DEFAULT_NAIVE_CAP` for
    m <= naive_up_to) is refused before any work, naming the first such m."""
    for m in (m_min, m_max):
        check_ints(m=m)
    check_ints(naive_up_to=naive_up_to)
    if not 2 <= m_min <= m_max:
        raise InputError(
            f"need 2 <= m_min <= m_max, got {clipped(m_min)}..{clipped(m_max)}")
    for m in range(m_min, m_max + 1):
        check_cap(m, DEFAULT_MAX_M, "enumeration")
        check_search_cap(m, MODE_CLASS_PRUNED)
        if m <= naive_up_to:
            check_search_cap(m, MODE_NAIVE)
    return [_verify_single(m, naive=m <= naive_up_to) for m in range(m_min, m_max + 1)]


def _verify_single(m: int, *, naive: bool) -> VerificationReport:
    ctx = PolygonContext(m)
    durations: list[tuple[str, float]] = []

    with _timed(durations, "spm_enumeration"):
        index = build_family_index(ctx)
    with _timed(durations, "blocker_generation"):
        generated = enumerate_blockers(ctx)
    with _timed(durations, "oracle_class_pruned"):
        pruned = find_minimum_blockers(index, MODE_CLASS_PRUNED)

    generated_sets = set(generated)
    oracle_sets = set(pruned.minimum_sets)
    set_equality = generated_sets == oracle_sets
    oracle_only = sorted(tuple(sorted(s)) for s in oracle_sets - generated_sets)
    generated_only = sorted(tuple(sorted(s)) for s in generated_sets - oracle_sets)

    with _timed(durations, "structural_checks"):
        structural_pass = all(validate_caterpillar(ctx, s).ok
                              for s in generated_sets | oracle_sets)
    with _timed(durations, "blocking_checks"):
        # Once the sets equal the found ones, start 0's stand for their
        # rotation orbits (see the module docstring).
        checked = generated[:1 << (m - 2)] if set_equality else generated
        blocks_all = all(is_blocking_set(index, s) for s in checked)

    naive_agrees: bool | None = None
    lower_bound: bool | None = None
    if naive:
        with _timed(durations, "oracle_naive"):
            naive_result = find_minimum_blockers(index, MODE_NAIVE)
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
        durations_ms=tuple(durations),
        oracle_only=tuple(oracle_only[:MAX_WITNESSES]),
        generated_only=tuple(generated_only[:MAX_WITNESSES]),
    )

