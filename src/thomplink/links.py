"""Unoriented link diagrams from tree pairs, by two equivalent routes.

Diagrams are stored as planar-diagram (PD) codes: each crossing is a
4-tuple of arc labels listed counterclockwise starting from an end of the
understrand, so slots 0 and 2 carry the understrand and slots 1 and 3 the
overstrand.  ``free_loops`` counts crossing-free circle components.

``medial_link`` replaces every signed arc of a Tait graph by a crossing:
on a positive arc the strand running at +45 degrees to the arc passes
over, on a negative arc the other one does.  ``direct_link`` builds the
closure of the tree diagram itself: one connecting edge through each leaf
gap plus one around the outside joining the two roots, after which every
internal tree node is 4-valent and becomes a crossing whose overstrand is
the pair of child edges.  Both produce one crossing per internal tree
node, ``2 * (leaves - 1)`` in total, and the same link.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairs import TreePair
from .tait import UPPER, TaitGraph, tait_graph
from .trees import node_table

__all__ = [
    "LinkDiagram",
    "SimplificationReport",
    "medial_link",
    "direct_link",
    "simplify",
    "component_count",
    "mirror_diagram",
    "disjoint_union",
    "link_of",
]


class LinkDiagram:
    """PD code plus a count of crossing-free loop components."""

    __slots__ = ("crossings", "free_loops")

    def __init__(self, crossings, free_loops: int = 0):
        self.crossings = tuple(tuple(c) for c in crossings)
        self.free_loops = free_loops
        ends: dict[object, int] = {}
        for c in self.crossings:
            if len(c) != 4:
                raise ValueError(f"crossing {c!r} is not a 4-tuple")
            for arc in c:
                ends[arc] = ends.get(arc, 0) + 1
        bad = {a: k for a, k in ends.items() if k != 2}
        if bad:
            raise ValueError(f"arcs without exactly two ends: {bad}")
        if free_loops < 0:
            raise ValueError("free loop count cannot be negative")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def relabeled(self) -> "LinkDiagram":
        """Arc labels renumbered 0.. by first appearance, for stable output."""
        table: dict[object, int] = {}
        out = []
        for c in self.crossings:
            out.append(tuple(table.setdefault(a, len(table)) for a in c))
        return LinkDiagram(out, self.free_loops)

    def pd_text(self) -> str:
        d = self.relabeled()
        lines = [f"X({a},{b},{c},{e})" for a, b, c, e in d.crossings]
        lines.append(f"O {d.free_loops}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"LinkDiagram(crossings={len(self.crossings)}, free_loops={self.free_loops})"


def component_count(d: LinkDiagram) -> int:
    """Number of link components (strands traced through crossings + loops)."""
    ends: dict[object, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        for slot, arc in enumerate(c):
            ends.setdefault(arc, []).append((ci, slot))
    seen: set[tuple[int, int]] = set()
    comps = 0
    for ci, c in enumerate(d.crossings):
        for s in range(4):
            if (ci, s) in seen:
                continue
            comps += 1
            dart = (ci, s)
            while dart not in seen:
                seen.add(dart)
                ci2, s2 = dart
                out = (ci2, (s2 + 2) % 4)  # pass straight through the crossing
                seen.add(out)
                arc = d.crossings[ci2][out[1]]
                e1, e2 = ends[arc]
                dart = e2 if e1 == out else e1
    return comps + d.free_loops


# ---------------------------------------------------------------------------
# Medial route: one crossing per signed Tait arc.
# ---------------------------------------------------------------------------

_CW, _CCW = 0, 1
_L, _R = 0, 1


def medial_link(t: TaitGraph) -> LinkDiagram:
    """Checkerboard/medial diagram of a signed Tait graph."""
    t.validate()
    edges = t.edges
    # Rotation system: ends around each vertex in counterclockwise order,
    # starting just above the +x direction.  Upper arcs leave vertically,
    # nesting resolves ties: at a left endpoint inner arcs sit clockwise of
    # outer ones, at a right endpoint the opposite; the lower half mirrors.
    # ul/ur: upper arcs leaving v rightward/leftward, keyed by their far
    # end; dr/dl: the same below, in reverse.  One pass buckets them.
    ul = [[] for _ in range(t.vertex_count)]
    ur = [[] for _ in range(t.vertex_count)]
    dr = [[] for _ in range(t.vertex_count)]
    dl = [[] for _ in range(t.vertex_count)]
    for i, e in enumerate(edges):
        at_left, at_right = (ul, ur) if e.half == UPPER else (dl, dr)
        at_left[e.left].append((e.right, i))
        at_right[e.right].append((e.left, i))
    rotations: list[list[tuple[int, int]]] = []
    for v in range(t.vertex_count):
        rotations.append(
            [(i, _L) for _, i in sorted(ul[v])]
            + [(i, _R) for _, i in sorted(ur[v])]
            + [(i, _R) for _, i in sorted(dr[v], reverse=True)]
            + [(i, _L) for _, i in sorted(dl[v], reverse=True)]
        )

    # Corner strands: between cyclically consecutive ends h, h' the medial
    # strand joins the ccw port of h to the cw port of h'.
    arc_of: dict[tuple[int, int, int], int] = {}
    free_loops = 0
    next_arc = 0
    for v, rot in enumerate(rotations):
        if not rot:
            free_loops += 1
            continue
        k = len(rot)
        for q in range(k):
            ei, end = rot[q]
            ej, end2 = rot[(q + 1) % k]
            arc_of[(ei, end, _CCW)] = next_arc
            arc_of[(ej, end2, _CW)] = next_arc
            next_arc += 1

    crossings = []
    for i, e in enumerate(edges):
        lcw = arc_of[(i, _L, _CW)]
        lccw = arc_of[(i, _L, _CCW)]
        rcw = arc_of[(i, _R, _CW)]
        rccw = arc_of[(i, _R, _CCW)]
        if e.half == UPPER:
            crossings.append((lccw, lcw, rccw, rcw))
        else:
            crossings.append((lcw, rccw, rcw, lccw))
    return LinkDiagram(crossings, free_loops)


# ---------------------------------------------------------------------------
# Direct route: close up the tree diagram itself.
# ---------------------------------------------------------------------------


# Crossing slot layout (counterclockwise, understrand at slots 0 and 2):
# source-tree node: (parent edge, left child, gap edge, right child)
# target-tree node: (parent edge, right child, gap edge, left child)
_SRC_SLOT = {"parent": 0, "L": 1, "gap": 2, "R": 3}
_TGT_SLOT = {"parent": 0, "R": 1, "gap": 2, "L": 3}


def direct_link(p: TreePair) -> LinkDiagram:
    """Closure of the tree diagram with child edges as overstrands."""
    n = p.leaf_count
    if n == 1:
        return LinkDiagram((), free_loops=1)
    # crossings: the source tree's nodes in preorder, then the target's
    up_nodes, up_leaf = node_table(p.source)
    lo_nodes, lo_leaf = node_table(p.target)
    shift = len(up_nodes)
    crossings: list[list] = [[None] * 4 for _ in range(shift + len(lo_nodes))]
    arc = 0
    # leaf strands
    for (ui, uside), (li, lside) in zip(up_leaf, lo_leaf):
        crossings[ui][_SRC_SLOT[uside]] = arc
        crossings[shift + li][_TGT_SLOT[lside]] = arc
        arc += 1
    # internal tree edges
    for nodes, base, slots in ((up_nodes, 0, _SRC_SLOT), (lo_nodes, shift, _TGT_SLOT)):
        for i, nd in enumerate(nodes[1:], base + 1):
            crossings[i][slots["parent"]] = arc
            crossings[base + nd.parent][slots[nd.side]] = arc
            arc += 1
    # one connecting edge through each interior gap
    up_gap = {nd.gap: i for i, nd in enumerate(up_nodes)}
    lo_gap = {nd.gap: shift + i for i, nd in enumerate(lo_nodes)}
    for gap in range(1, n):
        crossings[up_gap[gap]][_SRC_SLOT["gap"]] = arc
        crossings[lo_gap[gap]][_TGT_SLOT["gap"]] = arc
        arc += 1
    # the closure edge around the outside joins the two roots
    crossings[0][_SRC_SLOT["parent"]] = arc
    crossings[shift][_TGT_SLOT["parent"]] = arc

    return LinkDiagram(crossings, free_loops=0)


# ---------------------------------------------------------------------------
# Monotone simplification: crossing-reducing Reidemeister I/II only.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplificationReport:
    diagram: LinkDiagram
    removed_unknots: int
    r1_moves: int
    r2_moves: int


def _splice(crossings: list[list], u, v) -> int:
    """Join arcs u and v into one strand; returns 1 if a free loop closed up."""
    if u == v:
        return 1
    for c in crossings:
        for s in range(4):
            if c[s] == v:
                c[s] = u
    return 0


def _find_r1(crossings: list[list]):
    for ci, c in enumerate(crossings):
        for s in range(4):
            if c[s] == c[(s + 1) % 4]:
                return ci, s
    return None


def _find_r2(crossings: list[list]):
    ends: dict[object, list[tuple[int, int]]] = {}
    for ci, c in enumerate(crossings):
        for s, a in enumerate(c):
            ends.setdefault(a, []).append((ci, s))
    for a, spots in ends.items():
        (c1, s1), (c2, s2) = spots
        if c1 == c2 or s1 % 2 == 0 or s2 % 2 == 0:
            continue  # want an arc that is an overstrand end at two crossings
        for da, db in ((1, -1), (-1, 1)):
            b1 = crossings[c1][(s1 + da) % 4]
            b2 = crossings[c2][(s2 + db) % 4]
            if b1 != b2:
                continue
            # b must be the understrand at both crossings; since it sits next
            # to an over end its slots are even automatically.
            return a, (c1, s1), (c2, s2), b1, ((s1 + da) % 4, (s2 + db) % 4)
    return None


def simplify(d: LinkDiagram) -> SimplificationReport:
    """Greedy crossing-reducing cleanup.

    Repeatedly removes kinks (a crossing with a repeated arc label at
    adjacent slots) and cancelling clasp pairs (two crossings joined by two
    parallel arcs, one arc over at both and the other under at both, forming
    a bigon), then counts components that have become crossing-free as free
    loops.  Crossing count strictly decreases, so this terminates.
    """
    crossings = [list(c) for c in d.crossings]
    loops = d.free_loops
    removed = 0
    r1 = r2 = 0
    while True:
        hit = _find_r1(crossings)
        if hit is not None:
            ci, s = hit
            c = crossings[ci]
            u, v = c[(s + 2) % 4], c[(s + 3) % 4]
            del crossings[ci]
            closed = _splice(crossings, u, v)
            loops += closed
            removed += closed
            r1 += 1
            continue
        hit = _find_r2(crossings)
        if hit is not None:
            a, (c1, s1), (c2, s2), b, (t1, t2) = hit
            u = crossings[c1][(s1 + 2) % 4]
            z = crossings[c2][(s2 + 2) % 4]
            v = crossings[c1][(t1 + 2) % 4]
            w = crossings[c2][(t2 + 2) % 4]
            for ci in sorted((c1, c2), reverse=True):
                del crossings[ci]
            closed = _splice(crossings, u, z)
            if closed:
                loops += 1
                removed += 1
            else:
                if v == z:
                    v = u
                if w == z:
                    w = u
            closed = _splice(crossings, v, w)
            loops += closed
            removed += closed
            r2 += 1
            continue
        break
    return SimplificationReport(LinkDiagram(crossings, loops), removed, r1, r2)


# ---------------------------------------------------------------------------
# Small diagram combinators used by tests and the oracle tooling.
# ---------------------------------------------------------------------------


def mirror_diagram(d: LinkDiagram) -> LinkDiagram:
    """Swap over/under at every crossing (rotate each tuple by one slot)."""
    return LinkDiagram([(c[1], c[2], c[3], c[0]) for c in d.crossings], d.free_loops)


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    d1r = d1.relabeled()
    shift = 0
    for c in d1r.crossings:
        shift = max(shift, max(c) + 1)
    d2r = d2.relabeled()
    moved = [tuple(a + shift for a in c) for c in d2r.crossings]
    return LinkDiagram(list(d1r.crossings) + moved, d1.free_loops + d2.free_loops)


def link_of(p: TreePair, route: str = "direct") -> LinkDiagram:
    """Convenience dispatcher used by the CLI and experiments."""
    if route == "direct":
        return direct_link(p)
    if route == "tait":
        return medial_link(tait_graph(p))
    raise ValueError(f"unknown route {route!r}")
