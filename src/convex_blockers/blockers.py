"""Minimum blocking sets ("blockers") for the non-crossing perfect matchings.

A blocker on a polygon with 2m vertices is determined by canonical
parameters (start, t, eps):

* a spine of t consecutive boundary edges [start,start+1], ...,
  [start+t-1,start+t], read in the positive cyclic direction, and
* for j = 1..m-t an interior edge [t+j-1-eps_j, t+j+eps_j] relative to
  `start`, where the offsets increase strictly within 1..m-2.

Every such set has exactly one edge in each odd parallel class, is a
crossing-free caterpillar tree, and never touches the vertex start-1.
This module generates these sets, inverts the generation (parsing an
arbitrary edge set back to its parameters or reporting the first broken
structural condition), counts them in closed form, shrinks them into the
polygon on 2m-2 vertices, and classifies boundary-edge subsets by the
trichotomy used in half-boundary arguments.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .errors import InputError, StructureError
from .geometry import (
    Edge,
    PolygonContext,
    boundary_position,
    edge_class,
    edge_to_text,
    edges_to_lists,
    edges_cross,
    is_boundary_edge,
)

__all__ = [
    "BlockerSpec",
    "StructuralViolation",
    "CaterpillarReport",
    "BoundaryCase",
    "generate_blocker",
    "enumerate_blocker_specs",
    "enumerate_blockers",
    "count_blockers",
    "count_blockers_by_spine",
    "parse_blocker",
    "validate_caterpillar",
    "restrict_blocker",
    "classify_boundary_set",
    "blocker_to_json",
    "VIOLATION_NOT_A_TREE",
    "VIOLATION_EVEN_ORDER",
    "VIOLATION_DUPLICATE_CLASS",
    "VIOLATION_FEW_BOUNDARY",
    "VIOLATION_NOT_CONSECUTIVE",
    "VIOLATION_CROSSING",
    "VIOLATION_BAD_ATTACHMENT",
    "VIOLATION_LEG_GAP",
]

VIOLATION_NOT_A_TREE = "not_a_tree"
VIOLATION_EVEN_ORDER = "even_order_edge"
VIOLATION_DUPLICATE_CLASS = "duplicate_parallel_class"
VIOLATION_FEW_BOUNDARY = "too_few_boundary_edges"
VIOLATION_NOT_CONSECUTIVE = "boundary_not_consecutive"
VIOLATION_CROSSING = "crossing_pair"
VIOLATION_BAD_ATTACHMENT = "bad_leg_attachment"
VIOLATION_LEG_GAP = "leg_gap_violation"


@dataclass(frozen=True)
class BlockerSpec:
    """Canonical blocker parameters (start vertex, spine length, offsets)."""

    start: int
    t: int
    eps: tuple[int, ...] = ()

    def validate(self, ctx: PolygonContext) -> "BlockerSpec":
        m = ctx.m
        if m < 2:
            raise InputError("blockers require m >= 2")
        if not 0 <= self.start < ctx.n:
            raise InputError(f"start must be in 0..{ctx.n - 1}, got {self.start}")
        if not 2 <= self.t <= m:
            raise InputError(f"spine length t must be in 2..{m}, got {self.t}")
        eps = tuple(self.eps)
        if len(eps) != m - self.t:
            raise InputError(
                f"expected {m - self.t} offsets for t={self.t}, got {len(eps)}")
        if eps:
            if eps[0] < 1 or eps[-1] > m - 2:
                raise InputError(f"offsets must lie in 1..{m - 2}, got {eps}")
            if any(eps[i] >= eps[i + 1] for i in range(len(eps) - 1)):
                raise InputError(f"offsets must increase strictly, got {eps}")
        return self


@dataclass(frozen=True)
class StructuralViolation:
    """One failed structural condition, with the offending edges."""

    name: str
    witness: tuple[Edge, ...] = ()

    def to_json(self) -> dict:
        return {"violation": self.name, "witness": edges_to_lists(self.witness)}


@dataclass
class CaterpillarReport:
    """Structural description of an edge set checked against blocker shape.

    `violations` is empty exactly when the set could have come out of
    `generate_blocker`; the remaining fields are best-effort descriptions
    either way (`boundary_path` is the longest run of boundary edges,
    `leg_attachments` maps each interior vertex of that run to its
    incident diagonals).
    """

    is_tree: bool
    boundary_path: tuple[Edge, ...]
    spine_length: int
    leg_attachments: dict[int, tuple[Edge, ...]]
    violations: list[StructuralViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "is_tree": self.is_tree,
            "spine_length": self.spine_length,
            "boundary_path": edges_to_lists(self.boundary_path),
            "violations": [v.to_json() for v in self.violations],
        }


def generate_blocker(ctx: PolygonContext, spec: BlockerSpec) -> frozenset[Edge]:
    """The m-edge set a spec describes: the spine plus one diagonal per
    remaining odd parallel class, hanging off interior spine vertices."""
    spec.validate(ctx)
    s, t = spec.start, spec.t
    edges = [ctx.edge(s + i - 1, s + i) for i in range(1, t + 1)]
    for j, eps in enumerate(spec.eps, start=1):
        edges.append(ctx.edge(s + t + j - 1 - eps, s + t + j + eps))
    return frozenset(edges)


def enumerate_blocker_specs(ctx: PolygonContext) -> list[BlockerSpec]:
    """Every canonical spec once: starts ascending, spine lengths ascending,
    offset tuples in lexicographic order."""
    if ctx.m < 2:
        raise InputError("blockers require m >= 2")
    out = []
    for start in range(ctx.n):
        for t in range(2, ctx.m + 1):
            for eps in itertools.combinations(range(1, ctx.m - 1), ctx.m - t):
                out.append(BlockerSpec(start, t, eps))
    return out


def enumerate_blockers(ctx: PolygonContext) -> list[frozenset[Edge]]:
    """All blockers, each exactly once; the count is m * 2^(m-1)."""
    return [generate_blocker(ctx, spec) for spec in enumerate_blocker_specs(ctx)]


def count_blockers(m: int) -> int:
    """Closed-form blocker count m * 2^(m-1), exact at any size."""
    if m < 2:
        raise InputError(f"m must be >= 2, got {m}")
    return m << (m - 1)


def count_blockers_by_spine(m: int, t: int) -> int:
    """Blockers with a fixed oriented spine start and exactly t boundary
    edges: one per (m-t)-subset of {1..m-2}, i.e. C(m-2, t-2)."""
    if m < 2:
        raise InputError(f"m must be >= 2, got {m}")
    if not 2 <= t <= m:
        raise InputError(f"t must be in 2..{m}, got {t}")
    return math.comb(m - 2, t - 2)


def _boundary_runs(ctx: PolygonContext, positions: set[int]) -> list[tuple[int, int]]:
    """Maximal cyclic runs of boundary positions as (start, length)."""
    n = ctx.n
    if len(positions) == n:
        return [(0, n)]
    runs = []
    for p in sorted(positions):
        if (p - 1) % n not in positions:
            length = 1
            while (p + length) % n in positions:
                length += 1
            runs.append((p, length))
    return runs


def _scan(ctx: PolygonContext, edges: frozenset[Edge]):
    """All structural violations in the fixed check order, plus spine data.

    Check order: one edge per odd parallel class, boundary count >= 2,
    boundary consecutiveness, crossing-freeness, leg attachment locations,
    leg distance gaps.  Returns (violations, runs, spine): runs are the
    maximal boundary runs from `_boundary_runs`, and spine is
    (start, t, legs) once the boundary edges form a single run of length
    >= 2; legs are (attach, far, edge) triples in start-relative labels.
    """
    violations: list[StructuralViolation] = []
    for e in edges:
        ctx.check_edge(e)
    edge_list = sorted(edges)

    by_class: dict[int, Edge] = {}
    for e in edge_list:
        c = edge_class(ctx, e)
        if c % 2 == 0:
            violations.append(StructuralViolation(VIOLATION_EVEN_ORDER, (e,)))
        elif c in by_class:
            violations.append(
                StructuralViolation(VIOLATION_DUPLICATE_CLASS, (by_class[c], e)))
        else:
            by_class[c] = e

    boundary = [e for e in edge_list if is_boundary_edge(ctx, e)]
    if len(boundary) < 2:
        violations.append(
            StructuralViolation(VIOLATION_FEW_BOUNDARY, tuple(boundary)))

    positions = {boundary_position(ctx, e) for e in boundary}
    runs = _boundary_runs(ctx, positions) if positions else []
    consecutive = len(runs) == 1
    if positions and not consecutive:
        violations.append(
            StructuralViolation(VIOLATION_NOT_CONSECUTIVE, tuple(boundary)))

    for e, f in itertools.combinations(edge_list, 2):
        if edges_cross(ctx, e, f):
            violations.append(StructuralViolation(VIOLATION_CROSSING, (e, f)))

    spine = None
    if consecutive and len(boundary) >= 2:
        start, t = runs[0]
        legs = []
        for e in edge_list:
            if is_boundary_edge(ctx, e):
                continue
            ra = (e.a - start) % ctx.n
            rb = (e.b - start) % ctx.n
            if 1 <= ra <= t - 1 and t + 1 <= rb:
                legs.append((ra, rb, e))
            elif 1 <= rb <= t - 1 and t + 1 <= ra:
                legs.append((rb, ra, e))
            else:
                violations.append(
                    StructuralViolation(VIOLATION_BAD_ATTACHMENT, (e,)))
        legs.sort()
        for (p, pf, e1), (q, qf, e2) in itertools.combinations(legs, 2):
            # Attachment points farther apart than far endpoints (or tied)
            # would admit a matching of parallels slipping between the legs.
            if p < q and not (pf - qf > q - p):
                violations.append(StructuralViolation(
                    VIOLATION_LEG_GAP, tuple(sorted((e1, e2)))))
        spine = (start, t, legs)
    return violations, runs, spine


def parse_blocker(ctx: PolygonContext, edges) -> BlockerSpec | StructuralViolation:
    """Invert the generator: recover the unique (start, t, eps) of an
    m-edge set, or report the first violated structural condition.

    A wrong cardinality is an input error rather than a violation.
    """
    if ctx.m < 2:
        raise InputError("blockers require m >= 2")
    edges = frozenset(edges)
    if len(edges) != ctx.m:
        raise InputError(f"expected exactly {ctx.m} edges, got {len(edges)}")
    violations, _runs, spine = _scan(ctx, edges)
    if violations:
        return violations[0]
    start, t, legs = spine
    offsets: dict[int, int] = {}
    for attach, far, _e in legs:
        # attach + far == 2(t+j) - 1 pins down the class slot j; the offset
        # is then half the width of the leg minus the boundary step.
        j = (attach + far + 1) // 2 - t
        offsets[j] = (far - attach - 1) // 2
    if sorted(offsets) != list(range(1, ctx.m - t + 1)):
        raise StructureError("leg classes do not fill the expected slots")
    spec = BlockerSpec(start, t, tuple(offsets[j] for j in sorted(offsets)))
    if generate_blocker(ctx, spec) != edges:
        raise StructureError(
            f"parsed parameters {spec} do not regenerate the edge set")
    return spec


def _is_tree(edges: frozenset[Edge]) -> bool:
    """Connected and acyclic on the vertices the edges touch."""
    if not edges:
        return False
    adjacency: dict[int, list[int]] = {}
    for e in edges:
        adjacency.setdefault(e.a, []).append(e.b)
        adjacency.setdefault(e.b, []).append(e.a)
    if len(edges) != len(adjacency) - 1:
        return False
    seen = set()
    stack = [next(iter(adjacency))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v])
    return len(seen) == len(adjacency)


def validate_caterpillar(ctx: PolygonContext, edges) -> CaterpillarReport:
    """Full structural report for an arbitrary edge set.

    Collects every violation (tree-ness first, then the parse checks) and
    describes the longest boundary run and its leg attachments.
    """
    edges = frozenset(edges)
    scan_violations, runs, _spine = _scan(ctx, edges)
    violations: list[StructuralViolation] = []
    tree = _is_tree(edges)
    if not tree:
        violations.append(
            StructuralViolation(VIOLATION_NOT_A_TREE, tuple(sorted(edges))))
    violations.extend(scan_violations)

    if runs:
        start, length = max(runs, key=lambda run: (run[1], -run[0]))
        path = tuple(ctx.boundary_edge(start + i) for i in range(length))
    else:
        start, length, path = 0, 0, ()
    leg_map: dict[int, tuple[Edge, ...]] = {}
    if length >= 1:
        interior_edges = [e for e in sorted(edges) if not is_boundary_edge(ctx, e)]
        for i in range(1, length):
            v = (start + i) % ctx.n
            leg_map[v] = tuple(e for e in interior_edges if e.touches(v))
    return CaterpillarReport(tree, path, length, leg_map, violations)


def restrict_blocker(ctx: PolygonContext, edges, e: Edge, f: Edge
                     ) -> tuple[PolygonContext, frozenset[Edge]]:
    """Shrink the polygon by deleting f's two vertices and drop e.

    `e` must be a boundary edge of the set and `f` the boundary edge
    immediately after it in the positive direction, outside the set.  In a
    genuine blocker no other edge touches f's vertices, so the image is a
    blocker of the polygon on 2m-2 vertices; any edge that does touch them
    proves the input broken and raises StructureError.
    """
    if ctx.m < 2:
        raise InputError("restriction requires m >= 2")
    edges = frozenset(edges)
    if not is_boundary_edge(ctx, e) or not is_boundary_edge(ctx, f):
        raise InputError("e and f must be boundary edges")
    pe = boundary_position(ctx, e)
    pf = boundary_position(ctx, f)
    if pf != (pe + 1) % ctx.n:
        raise InputError(
            f"{edge_to_text(f)} is not the boundary edge immediately after "
            f"{edge_to_text(e)}")
    if e not in edges:
        raise InputError(f"{edge_to_text(e)} does not belong to the edge set")
    if f in edges:
        raise InputError(f"{edge_to_text(f)} belongs to the edge set")
    removed = {f.a, f.b}
    kept = edges - {e}
    for g in sorted(kept):
        if g.a in removed or g.b in removed:
            raise StructureError(
                f"edge {edge_to_text(g)} touches a deleted vertex; "
                "the input cannot be a blocker")

    def relabel(v: int) -> int:
        return v - sum(1 for u in removed if u < v)

    sub = PolygonContext(ctx.m - 1)
    return sub, frozenset(Edge(relabel(g.a), relabel(g.b)) for g in kept)


class BoundaryCase(enum.Enum):
    """The three structural options for a set of boundary edges."""

    OPPOSITE_PAIR = "OppositePair"
    HALF_BOUNDARY = "HalfBoundary"
    TRIANGULAR_TRIPLE = "TriangularTriple"


def classify_boundary_set(ctx: PolygonContext, boundary_edges) -> set[BoundaryCase]:
    """Every case that holds for a nonempty set of boundary edges:

    * OPPOSITE_PAIR: two edges exactly m positions apart;
    * HALF_BOUNDARY: the set fits among m consecutive boundary edges;
    * TRIANGULAR_TRIPLE: three edges whose consecutive cyclic distances
      are all below m.

    At least one case always applies.
    """
    edges = sorted(set(boundary_edges))
    if not edges:
        raise InputError("boundary edge set must be nonempty")
    pos = []
    for e in edges:
        if not is_boundary_edge(ctx, e):
            raise InputError(f"{edge_to_text(e)} is not a boundary edge")
        pos.append(boundary_position(ctx, e))
    pos.sort()
    m, k = ctx.m, len(pos)
    cases: set[BoundaryCase] = set()
    if any(pos[v] == pos[u] + m for u in range(k) for v in range(u + 1, k)):
        cases.add(BoundaryCase.OPPOSITE_PAIR)
    if pos[-1] < pos[0] + m or any(pos[u + 1] - pos[u] > m for u in range(k - 1)):
        cases.add(BoundaryCase.HALF_BOUNDARY)
    for u, v, w in itertools.combinations(range(k), 3):
        if pos[v] < pos[u] + m and pos[w] < pos[v] + m and pos[u] + m < pos[w]:
            cases.add(BoundaryCase.TRIANGULAR_TRIPLE)
            break
    return cases


def blocker_to_json(ctx: PolygonContext, spec: BlockerSpec) -> dict:
    """JSON form of one blocker with its canonical parameters."""
    return {
        "m": ctx.m,
        "start": spec.start,
        "t": spec.t,
        "eps": list(spec.eps),
        "edges": edges_to_lists(generate_blocker(ctx, spec)),
    }
