from __future__ import annotations

import random

from convex_blockers.blockers import BlockerSpec
from convex_blockers.geometry import Edge, edges_from_text


def edges(text: str) -> frozenset[Edge]:
    """Shorthand: edge set from `a-b,c-d` text."""
    return edges_from_text(text)


def random_spec(rng: random.Random, m: int) -> BlockerSpec:
    """A seeded blocker spec at m: any start, a spine length t in 2..m and
    m - t strictly increasing offsets drawn from 1..m-2."""
    t = rng.randint(2, m)
    eps = tuple(sorted(rng.sample(range(1, m - 1), m - t)))
    return BlockerSpec(rng.randrange(2 * m), t, eps)
