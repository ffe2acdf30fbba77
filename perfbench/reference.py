"""Reference values and seeded inputs, independent of the package.

Nothing here imports convex_blockers.  Blockers come from the paper's
formula for the canonical parameters (start, t, eps), Catalan numbers from
the binomial closed form, and matchings are checked against the definition
(m vertex-disjoint, pairwise non-crossing chords covering all 2m vertices).
Every check the benchmark makes therefore rests on a second witness.

An edge is a pair (a, b) with a < b; an edge set is a sorted tuple of pairs.
"""

from __future__ import annotations

import itertools
import math
import random

# Candidate kinds: genuine blockers and three kinds of mutant.
BLOCKER = "blocker"
SWAP = "swap"
BROKEN_SPINE = "broken_spine"
TRANSVERSAL = "transversal"
MUTANT_KINDS = (SWAP, BROKEN_SPINE, TRANSVERSAL)

# One check_stream batch: 9 genuine blockers and one mutant of each kind,
# shuffled.  The 75/25 split keeps op_p50_ms inside the blocker mode,
# because non-blockers also pay for the missed-matching list.
CHECK_BATCH = (BLOCKER,) * 9 + MUTANT_KINDS
# blocker_roundtrip adds one mutant per this many genuine blockers.
ROUNDTRIP_MUTANT_EVERY = 8


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def blocker_count(m: int) -> int:
    return m * 2 ** (m - 1)


def _pair(u: int, v: int, n: int) -> tuple[int, int]:
    u, v = u % n, v % n
    return (u, v) if u < v else (v, u)


def blocker_edges(m: int, start: int, t: int, eps) -> tuple:
    """Spine [s+i-1, s+i] for i = 1..t, then leg j = 1..m-t as
    [s+t+j-1-eps_j, s+t+j+eps_j], all modulo 2m."""
    n = 2 * m
    edges = [_pair(start + i - 1, start + i, n) for i in range(1, t + 1)]
    edges += [_pair(start + t + j - 1 - e, start + t + j + e, n)
              for j, e in enumerate(eps, start=1)]
    return tuple(sorted(edges))


def all_blockers(m: int) -> dict:
    """Edge set -> (start, t, eps) for every blocker of the 2m-gon."""
    out = {}
    for start in range(2 * m):
        for t in range(2, m + 1):
            for eps in itertools.combinations(range(1, m - 1), m - t):
                out[blocker_edges(m, start, t, eps)] = (start, t, eps)
    return out


def crosses(e, f) -> bool:
    a, b = e
    c, d = f
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def is_ncpm(m: int, edges) -> bool:
    """True for a non-crossing perfect matching of the 2m-gon."""
    edges = [tuple(e) for e in edges]
    if len(edges) != m:
        return False
    seen = set()
    for e in edges:
        if len(e) != 2 or not 0 <= e[0] < e[1] < 2 * m:
            return False
        seen.update(e)
    if len(seen) != 2 * m:
        return False
    return not any(crosses(e, f) for e, f in itertools.combinations(edges, 2))


def odd_class(m: int, c: int) -> list:
    """Edges whose endpoint sum is c modulo 2m."""
    n = 2 * m
    return [(a, (c - a) % n) for a in range(n) if a < (c - a) % n]


def all_edges(m: int) -> list:
    return list(itertools.combinations(range(2 * m), 2))


def mutant(rng: random.Random, m: int, spec, kind: str) -> tuple:
    """An m-edge set derived from the blocker `spec`.  Any kind may hit a
    blocker by chance; callers decide blockerhood by set membership."""
    n = 2 * m
    edges = set(blocker_edges(m, *spec))
    if kind == SWAP:
        edges.remove(rng.choice(sorted(edges)))
        edges.add(rng.choice([e for e in all_edges(m) if e not in edges]))
    elif kind == BROKEN_SPINE:
        start, t, _eps = spec
        spine = [_pair(start + i - 1, start + i, n) for i in range(1, t + 1)]
        removed = rng.choice(spine)
        edges.remove(removed)
        boundary = [_pair(p, p + 1, n) for p in range(n)]
        edges.add(rng.choice([e for e in boundary
                              if e not in edges and e != removed]))
    elif kind == TRANSVERSAL:
        edges = {rng.choice(odd_class(m, c)) for c in range(1, n, 2)}
    else:
        raise ValueError(f"unknown mutant kind {kind!r}")
    return tuple(sorted(edges))


def candidate(rng: random.Random, m: int, specs: list, kind: str) -> tuple:
    spec = rng.choice(specs)
    if kind == BLOCKER:
        return blocker_edges(m, *spec)
    return mutant(rng, m, spec, kind)


def check_stream_batches(seed: int, m: int):
    """Endless seeded stream of batches of (kind, edge set)."""
    rng = random.Random(f"check_stream:{seed}")
    specs = sorted(all_blockers(m).values())
    while True:
        kinds = list(CHECK_BATCH)
        rng.shuffle(kinds)
        yield [(kind, candidate(rng, m, specs, kind)) for kind in kinds]


def roundtrip_inputs(seed: int, m: int) -> list:
    """Every blocker once plus seeded mutants, in seeded order."""
    rng = random.Random(f"blocker_roundtrip:{seed}")
    specs = sorted(all_blockers(m).values())
    items = [(BLOCKER, blocker_edges(m, *spec)) for spec in specs]
    for i in range(len(specs) // ROUNDTRIP_MUTANT_EVERY):
        kind = MUTANT_KINDS[i % len(MUTANT_KINDS)]
        items.append((kind, candidate(rng, m, specs, kind)))
    rng.shuffle(items)
    return items


def spm_sample(seed: int, count: int, k: int) -> list:
    rng = random.Random(f"spm_dump:{seed}")
    return sorted(rng.sample(range(count), min(k, count)))


def edges_text(edges) -> str:
    return ",".join(f"{a}-{b}" for a, b in edges)
