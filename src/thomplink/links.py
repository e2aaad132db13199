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
from heapq import heappop, heappush
from itertools import compress

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

    __slots__ = ("crossings", "free_loops", "_partner")

    def __init__(self, crossings, free_loops: int = 0):
        self.crossings = tuple(tuple(c) for c in crossings)
        self.free_loops = free_loops
        for c in self.crossings:
            if len(c) != 4:
                raise ValueError(f"crossing {c!r} is not a 4-tuple")
        self._partner = _darts(self.crossings)
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


def _darts(crossings) -> list[int]:
    """The arc-end index of a PD code, which validation builds and keeps:
    slot s of crossing c is dart 4c + s (so d ^ 2 is the opposite slot, and
    d ^ 1 and d ^ 3 its neighbours), and ``partner[d]`` is the dart at the
    other end of d's arc."""
    labels = [a for c in crossings for a in c]
    partner = [-1] * len(labels)
    first: dict[object, int] = {}
    for d, arc in enumerate(labels):
        e = first.setdefault(arc, d)
        if e != d:
            if partner[e] >= 0:
                raise ValueError(f"arc {arc!r} has more than two ends")
            partner[d], partner[e] = e, d
    if -1 in partner:
        raise ValueError(f"arc {labels[partner.index(-1)]!r} has only one end")
    return partner


def _join(partner, u, v) -> int:
    """Join strand ends u and v in ``partner`` (a list or a dict from an end
    to the other end of its arc), leaving their own entries stale; returns 1
    if u and v were the ends of one arc, which then closes into a loop."""
    a, b = partner[u], partner[v]
    if a == v:
        return 1
    partner[a], partner[b] = b, a
    return 0


def component_count(d: LinkDiagram) -> int:
    """Number of link components (strands traced through crossings + loops)."""
    partner = d._partner
    seen = [False] * len(partner)
    comps = d.free_loops
    for start in range(len(partner)):
        if seen[start]:
            continue
        comps += 1
        dart = start
        while not seen[dart]:
            # pass straight through the crossing, then along the arc
            seen[dart] = seen[dart ^ 2] = True
            dart = partner[dart ^ 2]
    return comps


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


def simplify(d: LinkDiagram) -> SimplificationReport:
    """Greedy crossing-reducing cleanup.

    Repeatedly removes kinks (a crossing holding both ends of an arc at
    adjacent slots) and cancelling clasp pairs (two crossings joined by two
    parallel arcs, one arc over at both and the other under at both, forming
    a bigon), counting components that become crossing-free as free loops.
    The move taken is a kink at the first crossing that has one, else the
    clasp whose over arc has the least lesser dart.  Candidates wait in two
    lazy min-heaps; a move changes only the arcs it joins, so only the
    crossings and arcs at their ends are pushed again.  The survivors keep
    their order, each arc labelled by its lesser dart.
    """
    partner = list(d._partner)
    alive = [True] * len(d.crossings)
    # x ^ y is 1 or 3 for darts at neighbouring slots of one crossing
    kinks = [x >> 2 for x, y in enumerate(partner) if x ^ y | 2 == 3]
    clasps = [x for x in range(1, len(partner), 2) if partner[x] & 1 and partner[x] >> 2 > x >> 2]
    removed = r1 = r2 = 0
    while kinks or clasps:
        if kinks:
            c = heappop(kinks)
            x = next((x for x in range(4 * c, 4 * c + 4) if x ^ partner[x] | 2 == 3), None)
            if not alive[c] or x is None:
                continue
            # the arc at x returns at a neighbouring slot: join the other two
            alive[c] = False
            joins = ((x ^ 2, partner[x] ^ 2),)
            r1 += 1
        else:
            x = heappop(clasps)
            y = partner[x]
            # the over arc x-y and an under arc u-v bound a bigon; for odd
            # darts x ^ 3 is the next slot and x ^ 1 the one before
            u, v = (x ^ 3, y ^ 1) if partner[x ^ 3] == y ^ 1 else (x ^ 1, y ^ 3)
            if not (alive[x >> 2] and y & 1 and y >> 2 > x >> 2 and partner[u] == v):
                continue
            alive[x >> 2] = alive[y >> 2] = False
            joins = ((x ^ 2, y ^ 2), (u ^ 2, v ^ 2))
            r2 += 1
        changed = []
        for u, v in joins:
            changed += (partner[u], partner[v])
            removed += _join(partner, u, v)
        for a in changed:  # only moves at the changed ends can be new
            if alive[a >> 2]:
                heappush(kinks, a >> 2)
                for b in (a, a ^ 1, a ^ 3):
                    if b & partner[b] & 1:
                        heappush(clasps, min(b, partner[b]))
    crossings = [
        [x if x < partner[x] else partner[x] for x in range(4 * c, 4 * c + 4)]
        for c in compress(range(len(alive)), alive)
    ]
    return SimplificationReport(LinkDiagram(crossings, d.free_loops + removed), removed, r1, r2)


# ---------------------------------------------------------------------------
# Small diagram combinators used by tests and the oracle tooling.
# ---------------------------------------------------------------------------


def mirror_diagram(d: LinkDiagram) -> LinkDiagram:
    """Swap over/under at every crossing (rotate each tuple by one slot)."""
    return LinkDiagram([(c[1], c[2], c[3], c[0]) for c in d.crossings], d.free_loops)


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    d1r = d1.relabeled()
    shift = 2 * d1r.crossing_count  # arcs of d1r, numbered from 0
    moved = [tuple(a + shift for a in c) for c in d2.relabeled().crossings]
    return LinkDiagram(list(d1r.crossings) + moved, d1.free_loops + d2.free_loops)


def link_of(p: TreePair, route: str = "direct") -> LinkDiagram:
    """Convenience dispatcher used by the CLI and experiments."""
    if route == "direct":
        return direct_link(p)
    if route == "tait":
        return medial_link(tait_graph(p))
    raise ValueError(f"unknown route {route!r}")
