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

Generation and the structural checks work on int endpoints: generated
edges are looked up in the context's `edge_of` table, and the scan unpacks
each edge once and reports the input's own edges, boundary path included.
`parse_blocker` followed by `validate_caterpillar` on the same frozenset
object, as `blocker check` runs them, scans the set once: `_scan` keeps its
last result, keyed by the identity of the context and of the set.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterable

from .errors import InputError, StructureError, check_cap, check_min
from .geometry import (
    Edge,
    PolygonContext,
    boundary_position,
    edge_to_text,
    edges_to_lists,
)
from .matchings import DEFAULT_MAX_M

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


class BlockerSpec(namedtuple("_BlockerSpec", "start t eps", defaults=((),))):
    """Canonical blocker parameters: the spine's first vertex `start`, the
    spine length `t` and the tuple `eps` of m - t leg offsets, all plain
    ints (`validate` refuses floats, text and bools).  Any iterable `eps`,
    a one-shot iterator too, is stored as a tuple, also by `_replace`; a
    non-iterable one is kept for `validate` to refuse."""

    __slots__ = ()

    def __new__(cls, start: int, t: int, eps=()) -> "BlockerSpec":
        if type(eps) is not tuple and isinstance(eps, Iterable):
            eps = tuple(eps)
        return tuple.__new__(cls, (start, t, eps))

    @classmethod
    def _make(cls, iterable) -> "BlockerSpec":  # `_replace` too: tuple offsets
        return cls(*iterable)

    def validate(self, ctx: PolygonContext) -> "BlockerSpec":
        m = ctx.m
        check_min(m, 2)
        start, t, eps = self
        if not (type(start) is int and type(t) is int and type(eps) is tuple
                and {*map(type, eps)} <= {int}):
            raise InputError("start, t and offsets must be integers, got "
                             f"start={start!r}, t={t!r}, eps={eps!r}")
        if not 0 <= start < ctx.n:
            raise InputError(f"start must be in 0..{ctx.n - 1}, got {start}")
        if not 2 <= t <= m:
            raise InputError(f"spine length t must be in 2..{m}, got {t}")
        if len(eps) != m - t:
            raise InputError(f"expected {m - t} offsets for t={t}, got {len(eps)}")
        if eps:
            if eps[0] < 1 or eps[-1] > m - 2:
                raise InputError(f"offsets must lie in 1..{m - 2}, got {eps}")
            if not all(map(operator.lt, eps, eps[1:])):
                raise InputError(f"offsets must increase strictly, got {eps}")
        return self


class StructuralViolation(namedtuple("_StructuralViolation", "name witness",
                                     defaults=((),))):
    """One failed structural condition: its `name` and the tuple `witness`
    of the offending edges."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"violation": self.name, "witness": edges_to_lists(self.witness)}


class CaterpillarReport(namedtuple(
        "_CaterpillarReport", "is_tree boundary_path spine_length violations")):
    """Structural description of an edge set checked against blocker shape.

    `violations` is the tuple of `StructuralViolation`s, empty exactly when
    the set could have come out of `generate_blocker`; the remaining fields
    are best-effort descriptions either way: `is_tree` tells whether the
    edges form one tree, `boundary_path` is the tuple of edges of the
    longest run of boundary edges and `spine_length` its length.  Every
    field is immutable, so a report hashes.  `to_json` carries every field.
    """

    __slots__ = ()

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
    remaining odd parallel class, hanging off interior spine vertices.
    Its edges are the context's canonical objects from `edge_of`."""
    s, t, eps = spec.validate(ctx)
    n, edge_of = ctx.n, ctx.edge_of
    base = s + t - 1  # leg j spans base + j - eps_j .. base + j + eps_j + 1
    edges = [edge_of[v % n, (v + 1) % n] for v in range(s, s + t)]
    for j, e in enumerate(eps, start=1):
        edges.append(edge_of[(base + j - e) % n, (base + j + e + 1) % n])
    return frozenset(edges)


def enumerate_blocker_specs(ctx: PolygonContext) -> list[BlockerSpec]:
    """Every canonical spec once: starts ascending, spine lengths ascending,
    offset tuples in lexicographic order.  Refuses m past `DEFAULT_MAX_M`."""
    check_min(ctx.m, 2)
    check_cap(ctx.m, DEFAULT_MAX_M, "enumeration")
    out = []
    for start in range(ctx.n):
        for t in range(2, ctx.m + 1):
            for eps in itertools.combinations(range(1, ctx.m - 1), ctx.m - t):
                out.append(BlockerSpec(start, t, eps))
    return out


def enumerate_blockers(ctx: PolygonContext) -> list[frozenset[Edge]]:
    """All m * 2^(m-1) blockers, each once; refuses m past `DEFAULT_MAX_M`."""
    return [generate_blocker(ctx, spec) for spec in enumerate_blocker_specs(ctx)]


def count_blockers(m: int) -> int:
    """Closed-form blocker count m * 2^(m-1), exact at any size."""
    check_min(m, 2)
    return m << (m - 1)


def count_blockers_by_spine(m: int, t: int) -> int:
    """Blockers with a fixed oriented spine start and exactly t boundary
    edges: one per (m-t)-subset of {1..m-2}, i.e. C(m-2, t-2)."""
    check_min(m, 2)
    if not 2 <= t <= m:
        raise InputError(f"t must be in 2..{m}, got {t}")
    return math.comb(m - 2, t - 2)


def _boundary_runs(ctx: PolygonContext, positions: dict[int, Edge]
                   ) -> list[tuple[int, int]]:
    """Maximal cyclic runs of the keys of `positions` as (start, length)."""
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


# (ctx, edges, result) of the last scan.  Only `_scan` names it.  The key is
# identity, never equality: a set of plain pairs equals the matching `Edge`
# set and must still be refused, and the strong references held here keep
# both key objects alive, so neither identity can be reused while cached.
# The slot is read and replaced whole, so a thread can miss it but never
# get another set's result.
_scan_memo = (None, None, None)


def _scan(ctx: PolygonContext, edges: frozenset[Edge]):
    """All structural violations in the fixed check order, plus spine data.

    Each edge is checked against the polygon once; every test after that is
    integer arithmetic mod 2m on the endpoints a < b.  The parallel class is
    (a + b) mod 2m; a boundary edge has b - a equal to 1 or 2m-1 and sits at
    position a, or 2m-1 for the wrap edge; and on the sorted list (a, b)
    and a later (c, d) cross exactly when a < c < b < d, which rules out
    shared vertices, so the first later edge with c >= b ends the search.

    Check order: one edge per odd parallel class, boundary count >= 2,
    boundary consecutiveness, crossing-freeness, leg attachment locations,
    leg distance gaps.  Returns (violations, boundary_path, spine): the
    violations and the input's own edges along the longest boundary run
    (ties go to the smallest start position), both tuples, and spine (start,
    t, legs) once the boundary edges form a single run of length >= 2, else
    None; legs are (attach, far, edge) triples in start-relative labels.
    Every part is immutable, because the same `ctx` and `edges` objects
    again get the cached result; a call that raises caches nothing.
    """
    global _scan_memo
    memo_ctx, memo_edges, result = _scan_memo
    if ctx is memo_ctx and edges is memo_edges:
        return result
    n = ctx.n
    edge_list = sorted(map(ctx.check_edge, edges))

    violations: list[StructuralViolation] = []
    by_class: dict[int, Edge] = {}
    boundary: dict[int, Edge] = {}  # position -> the input's edge there
    interior: list[Edge] = []
    for e in edge_list:
        a, b = e
        c = (a + b) % n
        if c % 2 == 0:
            violations.append(StructuralViolation(VIOLATION_EVEN_ORDER, (e,)))
        elif c in by_class:
            violations.append(
                StructuralViolation(VIOLATION_DUPLICATE_CLASS, (by_class[c], e)))
        else:
            by_class[c] = e
        if b - a == 1:
            boundary[a] = e
        elif b - a == n - 1:
            boundary[n - 1] = e
        else:
            interior.append(e)

    if len(boundary) < 2:
        violations.append(StructuralViolation(
            VIOLATION_FEW_BOUNDARY, tuple(boundary.values())))

    runs = _boundary_runs(ctx, boundary)
    if len(runs) == 1:  # every blocker, and the full cycle
        start, t = runs[0]
    else:
        if runs:
            violations.append(StructuralViolation(
                VIOLATION_NOT_CONSECUTIVE, tuple(boundary.values())))
        start, t = max(runs, key=lambda run: (run[1], -run[0]), default=(0, 0))
    path = tuple(boundary[p % n] for p in range(start, start + t))

    for i, e in enumerate(edge_list):
        a, b = e
        for f in edge_list[i + 1:]:
            c, d = f
            if c >= b:  # sorted by first vertex: no later edge crosses e
                break
            if a < c and b < d:
                violations.append(StructuralViolation(VIOLATION_CROSSING, (e, f)))

    spine = None
    if len(runs) == 1 and t >= 2:
        legs = []
        for e in interior:
            a, b = e
            ra = (a - start) % n
            rb = (b - start) % n
            if 1 <= ra <= t - 1 and t + 1 <= rb:
                legs.append((ra, rb, e))
            elif 1 <= rb <= t - 1 and t + 1 <= ra:
                legs.append((rb, ra, e))
            else:
                violations.append(
                    StructuralViolation(VIOLATION_BAD_ATTACHMENT, (e,)))
        legs.sort()
        for (p, pf, e1), (q, qf, e2) in itertools.combinations(legs, 2):
            # Attachment points farther apart than far endpoints (or tied),
            # pf - qf <= q - p, would admit a matching of parallels
            # slipping between the legs.
            if p < q and p + pf <= q + qf:
                violations.append(StructuralViolation(
                    VIOLATION_LEG_GAP, tuple(sorted((e1, e2)))))
        spine = (start, t, tuple(legs))
    result = (tuple(violations), path, spine)
    _scan_memo = (ctx, edges, result)
    return result


def parse_blocker(ctx: PolygonContext, edges) -> BlockerSpec | StructuralViolation:
    """Invert the generator: recover the unique (start, t, eps) of an
    m-edge set, or report the first violated structural condition.

    A wrong cardinality is an input error rather than a violation.  A
    frozenset is scanned as is, so `validate_caterpillar` on the same
    `ctx` and set object next reuses this call's scan; an equal but
    distinct set is scanned again (see `_scan_memo`).
    """
    check_min(ctx.m, 2)
    edges = frozenset(edges)
    if len(edges) != ctx.m:
        raise InputError(f"expected exactly {ctx.m} edges, got {len(edges)}")
    violations, _path, spine = _scan(ctx, edges)
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
    """Connected and acyclic on the vertices the edges touch, by one
    union-find pass: an edge whose endpoints share a root closes a cycle,
    and a forest is one tree when it has one vertex more than edges."""
    parent: dict[int, int] = {}
    for a, b in edges:
        while parent.setdefault(a, a) != a:
            a = parent[a]
        while parent.setdefault(b, b) != b:
            b = parent[b]
        if a == b:
            return False
        parent[a] = b
    return len(parent) == len(edges) + 1


def validate_caterpillar(ctx: PolygonContext, edges) -> CaterpillarReport:
    """Full structural report for an arbitrary edge set.

    Collects every violation (tree-ness first, then the parse checks) and
    describes the longest boundary run.  Right after `parse_blocker` on the
    same `ctx` and frozenset object it reuses that call's scan, matched by
    identity so that an equal set of plain pairs is still refused; the
    tree test always runs.  The report's parts are the scan's own tuples.
    """
    edges = frozenset(edges)
    violations, path, _spine = _scan(ctx, edges)
    tree = _is_tree(edges)
    if not tree:
        witness = tuple(sorted(edges))
        violations = (StructuralViolation(VIOLATION_NOT_A_TREE, witness), *violations)
    return CaterpillarReport(tree, path, len(path), violations)


def restrict_blocker(ctx: PolygonContext, edges, e: Edge, f: Edge
                     ) -> tuple[PolygonContext, frozenset[Edge]]:
    """Shrink the polygon by deleting f's two vertices and drop e.

    `e` must be a boundary edge of the set and `f` the boundary edge
    immediately after it in the positive direction, outside the set.  In a
    genuine blocker no other edge touches f's vertices, so the image is a
    blocker of the polygon on 2m-2 vertices; any edge that does touch them
    proves the input broken and raises StructureError.
    """
    check_min(ctx.m, 2)
    edges = frozenset(edges)
    pe = boundary_position(ctx, e)
    if boundary_position(ctx, f) != (pe + 1) % ctx.n:
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
    pos = sorted(boundary_position(ctx, e) for e in edges)
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
    edges = generate_blocker(ctx, spec)  # validates the spec first
    return {
        "m": ctx.m,
        "start": spec.start,
        "t": spec.t,
        "eps": list(spec.eps),
        "edges": edges_to_lists(edges),
    }
