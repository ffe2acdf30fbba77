"""Independent checks of the program's outputs, one checker per workload.

Each checker returns (attempted, failed, problems): how many operations
the output covers, how many of them are wrong, and a short message per
problem.  A failed check is counted, never raised, so one bad operation
cannot skip or abort the rest of a run.
"""

from __future__ import annotations

import json

import reference as ref

VIOLATIONS = frozenset({
    "even_order_edge", "duplicate_parallel_class", "too_few_boundary_edges",
    "boundary_not_consecutive", "crossing_pair", "bad_leg_attachment",
    "leg_gap_violation",
})


def check_verify(stdout: str, returncode: int, m_min: int, m_max: int,
                 naive_up_to: int):
    """One op per m: a PASS line whose counts match Catalan and m*2^(m-1)."""
    reports = {}
    problems = []
    for line in stdout.splitlines():
        try:
            report = json.loads(line)
            reports[report["m"]] = report
        except (ValueError, TypeError, KeyError):
            problems.append(f"unparseable verify line {line[:80]!r}")
    failed = 0
    for m in range(m_min, m_max + 1):
        r = reports.get(m)
        naive = True if m <= naive_up_to else None
        expected = {
            "verdict": "PASS",
            "spm_count": ref.catalan(m),
            "expected_spm_count": ref.catalan(m),
            "generated_count": ref.blocker_count(m),
            "oracle_count": ref.blocker_count(m),
            "formula_count": ref.blocker_count(m),
            "set_equality": True,
            "structural_pass": True,
            "blocks_all_spms": True,
            "naive_agrees": naive,
            "lower_bound_pass": naive,
        }
        wrong = ([k for k, v in expected.items() if r.get(k, "?") != v]
                 if isinstance(r, dict) else ["line"])
        if wrong:
            failed += 1
            problems.append(f"verify m={m}: wrong {','.join(wrong)}")
    if returncode != 0:
        problems.append(f"verify exit code {returncode}, expected 0")
        if not failed:
            failed = 1
    return m_max - m_min + 1, failed, problems


def check_blocker_call(m: int, edges: tuple, truth, returncode: int,
                       stdout: str) -> list:
    """Problems with one `blocker check` call; `truth` is the (start, t,
    eps) of the candidate if it is a blocker, else None."""
    is_blocker = truth is not None
    problems = []
    if returncode != (0 if is_blocker else 1):
        problems.append(f"exit code {returncode} for blocker={is_blocker}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + ["unparseable JSON"]
    if not isinstance(payload, dict):
        return problems + ["JSON is not an object"]
    if payload.get("ok") is not is_blocker:
        problems.append(f"ok={payload.get('ok')!r} for blocker={is_blocker}")
    if payload.get("blocks_all_spms") is not is_blocker:
        problems.append(f"blocks_all_spms={payload.get('blocks_all_spms')!r}")
    if is_blocker:
        got = (payload.get("start"), payload.get("t"), tuple(payload.get("eps") or ()))
        if got != truth:
            problems.append(f"spec {got} != {truth}")
        if tuple(map(tuple, payload.get("edges") or ())) != edges:
            problems.append("edges differ from the candidate")
    else:
        if payload.get("violation") not in VIOLATIONS:
            problems.append(f"unknown violation {payload.get('violation')!r}")
        missed = payload.get("missed_spm")
        try:
            missed = [tuple(e) for e in missed]
        except TypeError:
            return problems + [f"missed_spm is {missed!r}"]
        if not ref.is_ncpm(m, missed):
            problems.append("missed_spm is not a non-crossing perfect matching")
        elif set(missed) & set(edges):
            problems.append("missed_spm meets the candidate")
    return problems


def check_spm_lines(m: int, data: bytes, returncode: int, sample: list):
    """C(m) distinct lines in strictly increasing edge-list order, and the
    sampled lines are non-crossing perfect matchings."""
    expected = ref.catalan(m)
    problems = []
    keys = []
    for line in data.decode("ascii", "replace").splitlines():
        try:
            keys.append(tuple(tuple(int(v) for v in e.split("-"))
                              for e in line.split(",")))
        except ValueError:
            keys.append(None)
    bad = sum(k is None for k in keys)
    if bad:
        problems.append(f"{bad} unparseable lines")
    missing = abs(len(keys) - expected)
    if missing:
        problems.append(f"{len(keys)} lines, expected {expected}")
    unordered = sum(1 for a, b in zip(keys, keys[1:])
                    if a is not None and b is not None and not a < b)
    if unordered:
        problems.append(f"{unordered} lines out of order or repeated")
    invalid = sum(1 for i in sample
                  if i < len(keys) and keys[i] is not None
                  and not ref.is_ncpm(m, keys[i]))
    if invalid:
        problems.append(f"{invalid} sampled lines are not matchings")
    failed = bad + missing + unordered + invalid
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
        failed += 1
    attempted = max(expected, len(keys))
    return attempted, min(failed, attempted), problems


def check_roundtrip_item(truth, parsed, report_ok) -> list:
    """`parsed` is (start, t, eps) or a violation name; `report_ok` says
    whether validate_caterpillar found no violation."""
    if truth is not None:
        if parsed != truth:
            return [f"parsed {parsed!r}, expected {truth}"]
        if not report_ok:
            return [f"caterpillar report rejects blocker {truth}"]
        return []
    if parsed not in VIOLATIONS:
        return [f"non-blocker parsed as {parsed!r}"]
    if report_ok:
        return ["caterpillar report accepts a non-blocker"]
    return []


def check_enumerated(m: int, keys: list, truth: dict) -> list:
    """The program's blocker list equals the reference set, once each."""
    if len(keys) != ref.blocker_count(m):
        return [f"{len(keys)} blockers, expected {ref.blocker_count(m)}"]
    if set(keys) != set(truth):
        return ["blocker set differs from the reference"]
    return []
