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
structural condition), counts them in closed form, and shrinks them into
the polygon on 2m-2 vertices.

The spine-and-legs formula lives once, in `_blocker_edges`.
`generate_blocker` validates a spec and runs it, and stays the per-spec
reference; `parse_blocker` runs it directly on the parameters it reads off
a clean set, because they cannot fail `BlockerSpec.validate`.
`enumerate_blockers` generates only start 0's 2^(m-2) blockers through
`generate_blocker`; starts 1..2m-1 are start 0's turned one vertex at a
time.  The turn is exact, because a spec's start only adds s mod 2m to
every vertex label.

Generation and the structural checks work on int endpoints: generated
edges are looked up in the context's `edge_of` table, and the scan reads
the set in one pass into an int mask of parallel classes and one of
boundary positions, and reports the input's own edges, boundary path
included.  The class mask decides whether an even or repeated class is
listed; the set is sorted only to list violations and for the crossing
search.
`parse_blocker` followed by `validate_caterpillar` on the same frozenset
object, as `blocker check` runs them, scans the set once: `_scan` keeps its
last result, keyed by the identity of the context and of the set.

The run rule: the boundary path is the longest cyclic run of boundary
edges, ties to the smallest start position, the full cycle included.  The
boundary edges are consecutive when that run holds every one of them, and
only then, with at least two, is the run a spine and are the legs checked.

The leg-order rule: legs attached at p < q with p + far_p <= q + far_q are
a leg gap, room for a matching of parallels between them.  In slot order,
attach descending, then far ascending, none exists exactly when the sums
attach + far strictly increase: each gap pair spans a step where they do
not, and each such step joins a gap pair.  A blocker's j-th leg in that
order has sum 2(t + j) + 1 and offset eps_j = (far - attach - 1) / 2.

The crossing rule: along a spine, boundary edges cross nothing, and legs
attached at p < q cross exactly when far_p < far_q, which makes
p + far_p <= q + far_q, a leg gap.  So the scan searches for crossing pairs
only when the set has no spine or a leg check (attachment or gap) has
failed; a set that passes both has none.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterable

from .errors import InputError, StructureError, check_cap, check_ints, check_min, clipped
from .geometry import (
    Edge,
    PolygonContext,
    boundary_position,
    edge_to_text,
    edges_to_lists,
)
from .matchings import DEFAULT_MAX_M

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
            raise InputError(
                f"start must be in 0..{clipped(ctx.n - 1)}, got {clipped(start)}")
        if not 2 <= t <= m:
            raise InputError(
                f"spine length t must be in 2..{clipped(m)}, got {clipped(t)}")
        if len(eps) != m - t:
            raise InputError(f"expected {clipped(m - t)} offsets for t={clipped(t)}, "
                             f"got {len(eps)}")
        if eps:
            if eps[0] < 1 or eps[-1] > m - 2:
                raise InputError(
                    f"offsets must lie in 1..{clipped(m - 2)}, got {clipped(eps)}")
            if not all(map(operator.lt, eps, eps[1:])):
                raise InputError(f"offsets must increase strictly, got {clipped(eps)}")
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


def _blocker_edges(ctx: PolygonContext, start: int, t: int, eps) -> frozenset[Edge]:
    """The spine-and-legs formula on parameters the caller has checked, as
    the context's canonical edges from `edge_of`."""
    n, edge_of = ctx.n, ctx.edge_of
    base = start + t - 1  # leg j spans base + j - eps_j .. base + j + eps_j + 1
    edges = [edge_of[v % n, (v + 1) % n] for v in range(start, start + t)]
    for j, e in enumerate(eps, start=1):
        edges.append(edge_of[(base + j - e) % n, (base + j + e + 1) % n])
    return frozenset(edges)


def generate_blocker(ctx: PolygonContext, spec: BlockerSpec) -> frozenset[Edge]:
    """The m-edge set a spec describes: the spine plus one diagonal per
    remaining odd parallel class, hanging off interior spine vertices.
    The spec is validated first; the edges are the context's canonical
    objects from `edge_of`."""
    return _blocker_edges(ctx, *spec.validate(ctx))


def _start_specs(ctx: PolygonContext, start: int):
    """The 2^(m-2) specs with one start, in `enumerate_blockers` order:
    spine lengths ascending, offset tuples in lexicographic order."""
    m = ctx.m
    return (BlockerSpec(start, t, eps) for t in range(2, m + 1)
            for eps in itertools.combinations(range(1, m - 1), m - t))


def _blockers_by_start(ctx: PolygonContext):
    """`enumerate_blockers` as one list per start, start s + 1's made by
    turning start s's one vertex.  Refuses m when first advanced, before any edge."""
    check_min(ctx.m, 2)
    check_cap(ctx.m, DEFAULT_MAX_M, "enumeration")
    n, edge_of = ctx.n, ctx.edge_of
    batch = [generate_blocker(ctx, spec) for spec in _start_specs(ctx, 0)]
    yield batch
    # Every blocker edge lies in an odd class, a + b odd, and so does its
    # turn: at most m^2 entries, each a canonical edge to a canonical one.
    turn = {edge_of[a, b]: edge_of[a + 1, (b + 1) % n]
            for a in range(n - 1) for b in range(a + 1, n, 2)}
    for _start in range(1, n):
        batch = [frozenset(map(turn.__getitem__, blocker)) for blocker in batch]
        yield batch


def enumerate_blockers(ctx: PolygonContext) -> list[frozenset[Edge]]:
    """All m * 2^(m-1) blockers, each once, ordered by spec: starts
    ascending, then spine lengths, then offsets in lexicographic order.
    Start 0's come from `generate_blocker`, the per-spec reference, and
    starts 1..2m-1 are start 0's turned one vertex at a time, exact because
    a spec's start only adds s mod 2m to every label.  Refuses m past
    `DEFAULT_MAX_M`."""
    return list(itertools.chain.from_iterable(_blockers_by_start(ctx)))


def count_blockers(m: int) -> int:
    """Closed-form blocker count m * 2^(m-1), exact at any size."""
    check_min(m, 2)
    return m << (m - 1)


def count_blockers_by_spine(m: int, t: int) -> int:
    """Blockers with a fixed oriented spine start and exactly t boundary
    edges: one per (m-t)-subset of {1..m-2}, i.e. C(m-2, t-2)."""
    check_min(m, 2)
    check_ints(t=t)
    if not 2 <= t <= m:
        raise InputError(f"t must be in 2..{m}, got {t}")
    return math.comb(m - 2, t - 2)


# (ctx, edges, result) of the last scan.  Only `_scan` names it.  The key is
# identity, never equality: a set of plain pairs equals the matching `Edge`
# set and must still be refused, and the strong references held here keep
# both key objects alive, so neither identity can be reused while cached.
# The slot is read and replaced whole, so a thread can miss it but never
# get another set's result.
_scan_memo = (None, None, None)


def _scan(ctx: PolygonContext, edges: frozenset[Edge]):
    """All structural violations in the fixed check order, plus spine data.

    One pass over the set, in its own iteration order, reads every edge:
    a member that is not exactly an `Edge` within the polygon goes to
    `ctx.check_edge`, so the first bad one raises its error; every test
    after that is integer arithmetic mod 2m on the endpoints a < b.  The
    parallel class c = (a + b) mod 2m sets bit c of the class mask; a
    boundary edge has b - a equal to 1 or 2m-1 and sits at position p = a,
    or p = 2m-1 for the wrap edge, which sets bit p of the position mask;
    and on the sorted list (a, b) and a later (c, d) cross exactly when
    a < c < b < d, which rules out shared vertices, so the first later edge
    with c >= b ends the search.

    The class mask decides the first check: with no even bit set and as
    many bits as edges, every edge has an odd class of its own, and only
    otherwise are the even-order edges and repeated classes listed, in
    sorted-edge order.  The runs come from the position mask.  The set is
    sorted only to list violations and for the crossing search, and every
    witness keeps sorted-edge order.

    Check order: one edge per odd parallel class, boundary count >= 2,
    boundary consecutiveness, crossing-freeness, leg attachment locations,
    leg distance gaps.  By the crossing rule (see the module docstring) the
    crossing search runs only when there is no spine or a leg check has
    failed, and the gap pairs are listed, in (attach, far) order, only when
    the leg sums in slot order do not strictly increase (the leg-order rule).

    Returns (violations, boundary_path, spine): the violations and the
    input's own edges along the longest boundary run (ties go to the
    smallest start position), both tuples, and spine (start, t, legs) once
    that run of length t >= 2 holds every boundary edge, else None; legs
    are (attach, far, edge) triples in start-relative labels, in slot order.
    A longest run that holds fewer, t below the boundary count, is the
    boundary_not_consecutive violation.  Every part is immutable, because
    the same `ctx` and `edges` objects again get the cached result; a call
    that raises caches nothing.
    """
    global _scan_memo
    memo_ctx, memo_edges, result = _scan_memo
    if ctx is memo_ctx and edges is memo_edges:
        return result
    n = ctx.n
    classes = 0  # the class mask: bit c for each parallel class c met
    positions = 0  # the position mask: bit p for each boundary position p
    boundary: dict[int, Edge] = {}  # position -> the input's edge there
    interior: list[Edge] = []
    for e in edges:
        if type(e) is not Edge:
            ctx.check_edge(e)  # raises unless e is an instance of a subclass
        a, b = e
        if b >= n:
            ctx.check_edge(e)  # raises
        classes |= 1 << (a + b) % n
        if b - a == 1:
            boundary[a] = e
            positions |= 1 << a
        elif b - a == n - 1:
            boundary[n - 1] = e
            positions |= 1 << n - 1
        else:
            interior.append(e)

    violations: list[StructuralViolation] = []
    edge_list = None  # sorted(edges), made only when a check needs it
    # (1 << n) // 3 has the even bits 0, 2, ..., 2m-2; fewer bits than
    # edges means a class met twice.
    if classes & (1 << n) // 3 or classes.bit_count() != len(edges):
        edge_list = sorted(edges)
        by_class: dict[int, Edge] = {}
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

    if len(boundary) < 2:
        violations.append(StructuralViolation(
            VIOLATION_FEW_BOUNDARY, tuple(sorted(boundary.values()))))

    # The runs of the position mask, turned to start just past its highest
    # gap so that none passes from 2m-1 to 0 (the full cycle has no gap and
    # is not turned); each is the lowest run left, cleared by adding its
    # lowest bit.
    full = (1 << n) - 1
    turn = (full ^ positions).bit_length()  # one past the highest gap
    runs = (positions >> turn | positions << n - turn) & full
    start = t = 0
    while runs:
        low = runs & -runs
        run = runs & ~(runs + low)
        runs ^= run
        k = run.bit_count()
        p = (low.bit_length() - 1 + turn) % n
        if k > t or k == t and p < start:
            start, t = p, k
    if t < len(boundary):
        violations.append(StructuralViolation(
            VIOLATION_NOT_CONSECUTIVE, tuple(sorted(boundary.values()))))
    path = tuple([boundary[p % n] for p in range(start, start + t)])

    spine = None
    leg_violations: list[StructuralViolation] = []  # reported after crossings
    if t == len(boundary) and t >= 2:
        slots = []  # (-attach, far, edge): sorted, the slot order
        badly_attached = []
        for e in interior:
            a, b = e
            attach, far = (a - start) % n, (b - start) % n
            if attach > far:
                attach, far = far, attach
            if 0 < attach < t < far:
                slots.append((-attach, far, e))
            else:
                badly_attached.append(e)
        slots.sort()
        # The leg-order rule: a gap exactly when the sums attach + far do
        # not strictly rise in slot order.
        legs, gap, last = [], False, 0
        for minus_attach, far, e in slots:
            if far - minus_attach <= last:
                gap = True
            last = far - minus_attach
            legs.append((-minus_attach, far, e))
        if badly_attached:
            leg_violations = [StructuralViolation(VIOLATION_BAD_ATTACHMENT, (e,))
                              for e in sorted(badly_attached)]
        if gap:
            leg_violations += [
                StructuralViolation(VIOLATION_LEG_GAP, tuple(sorted((e1, e2))))
                for (p, pf, e1), (q, qf, e2) in itertools.combinations(sorted(legs), 2)
                if p < q and p + pf <= q + qf]
        spine = (start, t, tuple(legs))

    if spine is None or leg_violations:  # else nothing crosses: the crossing rule
        if edge_list is None:
            edge_list = sorted(edges)
        size = len(edge_list)
        for i, e in enumerate(edge_list):
            a, b = e
            j = i + 1
            while j < size:
                f = edge_list[j]
                c, d = f
                if c >= b:  # sorted by first vertex: no later edge crosses e
                    break
                if a < c and b < d:
                    violations.append(StructuralViolation(VIOLATION_CROSSING, (e, f)))
                j += 1
    violations += leg_violations
    result = (tuple(violations), path, spine)
    _scan_memo = (ctx, edges, result)
    return result


def parse_blocker(ctx: PolygonContext, edges) -> BlockerSpec | StructuralViolation:
    """Invert the generator: recover the unique (start, t, eps) of an
    m-edge set, or report the first violated structural condition.

    A clean set holds one leg per remaining odd class in slot order, so eps
    is their offsets, and the parameters must still regenerate the set
    through `_blocker_edges`, the formula `generate_blocker` runs.
    A wrong cardinality is an input error rather than a violation.  A
    frozenset is scanned as is, so `validate_caterpillar` on the same
    `ctx` and set object next reuses this call's scan; an equal but
    distinct set is scanned again (see `_scan_memo`).

    The spec is never passed through `BlockerSpec.validate`, which it
    cannot fail: after a clean scan, start is a vertex, the t >= 2 boundary
    edges are the spine and the other m - t edges its legs, and every leg
    has attach in 1..t-1, far in t+1..2m-1 and an odd class, so far - attach
    is odd and at most 2m-3, giving 1 <= eps_j <= m-2; in slot order attach
    never rises while attach + far strictly rises, so the offsets strictly
    rise.
    """
    if ctx.m < 2:  # a context's m is an int >= 1 already
        check_min(ctx.m, 2)
    edges = frozenset(edges)
    if len(edges) != ctx.m:
        raise InputError(f"expected exactly {clipped(ctx.m)} edges, got {len(edges)}")
    violations, _path, spine = _scan(ctx, edges)
    if violations:
        return violations[0]
    start, t, legs = spine
    eps = tuple([(far - attach - 1) // 2 for attach, far, _e in legs])
    if _blocker_edges(ctx, start, t, eps) != edges:
        raise StructureError(f"parsed parameters {BlockerSpec(start, t, eps)} "
                             "do not regenerate the edge set")
    return BlockerSpec(start, t, eps)


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
    proves the input broken and raises StructureError.  Every member must
    be an `Edge` of the polygon, checked before anything else.
    """
    check_min(ctx.m, 2)
    edges = frozenset(map(ctx.check_edge, edges))
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


def blocker_to_json(ctx: PolygonContext, spec: BlockerSpec) -> dict:
    """JSON form of one blocker with its canonical parameters."""
    return _blocker_json(ctx, spec, generate_blocker(ctx, spec))  # validates first


def _blocker_json(ctx: PolygonContext, spec: BlockerSpec, edges) -> dict:
    """`blocker_to_json` of a spec whose blocker `edges` is already made."""
    return {
        "m": ctx.m,
        "start": spec.start,
        "t": spec.t,
        "eps": list(spec.eps),
        "edges": edges_to_lists(edges),
    }
