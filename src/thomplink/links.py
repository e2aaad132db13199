"""Unoriented link diagrams from tree pairs, by two constructions of one
PD code.

A diagram is its arc-end index: slot s of crossing c is the dart 4c + s,
counterclockwise from an end of the understrand (slots 0 and 2 carry the
understrand, 1 and 3 the overstrand), and ``partner[d]`` is the dart at
the other end of d's arc; ``free_loops`` counts crossing-free circles.
The builders write the index; PD codes are only read in and printed.

``medial_link`` replaces every signed arc of a Tait graph by a crossing:
on a positive arc the strand running at +45 degrees to the arc passes
over, on a negative arc the other one does.  ``direct_link`` builds the
closure of the tree diagram itself: one connecting edge through each leaf
gap plus one around the outside joining the two roots, after which every
internal tree node is 4-valent and becomes a crossing whose overstrand is
the pair of child edges.  Its darts come from :func:`trees.tree_darts`,
the bitstring walk that ``strand.annular_of`` builds on.  Both routes
give one crossing per internal tree node, ``2 * (leaves - 1)`` in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress

from .pairs import TreePair
from .tait import TaitGraph
from .trees import tree_darts

__all__ = [
    "LinkDiagram",
    "SimplificationReport",
    "medial_link",
    "direct_link",
    "simplify",
    "component_count",
    "mirror_diagram",
    "disjoint_union",
]


class LinkDiagram:
    """Arc-end index plus a count of crossing-free loops.  The constructor
    parses and validates a PD code: 4-tuples of arc labels, two ends each."""

    __slots__ = ("_partner", "free_loops")

    def __init__(self, crossings, free_loops: int = 0):
        crossings = tuple(tuple(c) for c in crossings)
        for c in crossings:
            if len(c) != 4:
                raise ValueError(f"crossing {c!r} is not a 4-tuple")
        self._partner = _darts(crossings)
        if free_loops < 0:
            raise ValueError("free loop count cannot be negative")
        self.free_loops = free_loops

    @classmethod
    def _of(cls, partner: list[int], free_loops: int) -> "LinkDiagram":
        d = object.__new__(cls)  # the index a builder wrote, unchecked
        d._partner, d.free_loops = partner, free_loops
        return d

    @property
    def crossing_count(self) -> int:
        return len(self._partner) >> 2

    @property
    def crossings(self) -> tuple[tuple[int, int, int, int], ...]:
        """The PD code, arcs numbered 0.. by first appearance."""
        arcs: dict[int, int] = {}  # an arc's lesser dart -> its number
        labels = [arcs.setdefault(min(d, e), len(arcs)) for d, e in enumerate(self._partner)]
        return tuple(zip(*[iter(labels)] * 4))  # 4 labels a crossing

    def pd_text(self) -> str:
        lines = [f"X({a},{b},{c},{e})" for a, b, c, e in self.crossings]
        lines.append(f"O {self.free_loops}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"LinkDiagram(crossings={self.crossing_count}, free_loops={self.free_loops})"


def _darts(crossings) -> list[int]:
    """The arc-end index of a PD code: slot s of crossing c is dart 4c + s
    (so d ^ 2 is the opposite slot, and d ^ 1 and d ^ 3 its neighbours),
    and ``partner[d]`` is the dart at the other end of d's arc."""
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


def medial_link(t: TaitGraph) -> LinkDiagram:
    """Checkerboard/medial diagram of a signed Tait graph: crossing c is
    upper arc c, or lower arc c - len(t.upper)."""
    k = len(t.upper)
    # Each end of an arc holds two neighbouring slots of its crossing, its
    # counterclockwise port and then its clockwise one: slots 0, 1 and 2, 3
    # at the left and right ends of an upper arc, 3, 0 and 1, 2 below.  An
    # end is named by its ccw port's dart.  Around each vertex the ends run
    # counterclockwise from just above +x: upper arcs leaving rightward, then
    # leftward, lower arcs leaving leftward, then rightward.  Nesting orders
    # each group (at a left end inner arcs sit clockwise of outer ones, at a
    # right end the opposite, mirrored below): by far end, then by arc.
    groups = (
        sorted((b, 4 * c, a) for c, (a, b) in enumerate(t.upper)),
        sorted((a, 4 * c + 2, b) for c, (a, b) in enumerate(t.upper)),
        sorted(((a, 4 * c + 1, b) for c, (a, b) in enumerate(t.lower, k)), reverse=True),
        sorted(((b, 4 * c + 3, a) for c, (a, b) in enumerate(t.lower, k)), reverse=True),
    )
    rotations: list[list[int]] = [[] for _ in range(t.vertex_count)]
    for group in groups:
        for _, d, v in group:
            rotations[v].append(d)
    # Corner strands: between cyclically consecutive ends d, e the medial
    # strand joins the ccw port of d to the cw port of e, the slot after e.
    # A vertex with no ends is a free loop.
    partner = [0] * (4 * (k + len(t.lower)))
    for rot in rotations:
        for d, e in zip(rot, rot[1:] + rot[:1]):
            e += 1 if e & 3 < 3 else -3
            partner[d], partner[e] = e, d
    return LinkDiagram._of(partner, rotations.count([]))


# ---------------------------------------------------------------------------
# Direct route: close up the tree diagram itself.
# ---------------------------------------------------------------------------


def direct_link(p: TreePair) -> LinkDiagram:
    """Closure of the tree diagram with child edges as overstrands."""
    n = p.leaf_count
    if n == 1:
        return LinkDiagram._of([], 1)
    # crossings: the source tree's nodes in preorder, then the target's.
    # Counterclockwise from slot 0 a source node holds (parent edge, left
    # child, gap edge, right child) and a target node (parent edge, right
    # child, gap edge, left child): a gap edge sits at slot 2, next to the
    # right child at slot 3 (d ^ 1) or slot 1 (d ^ 3).
    lo = 4 * (n - 1)  # the first dart of the target's root
    up_nodes, up_leaves, up_gaps = tree_darts(p.source, 0, 4, 1, 3)
    lo_nodes, lo_leaves, lo_gaps = tree_darts(p.target, lo, 4, 3, 1)
    # arcs: the leaf strands, each tree's internal edges (a node's slot 0 to
    # its slot in its parent), one edge through each gap 1..n-1, and the
    # closure edge around the outside joining the two roots
    tails = [*up_leaves, *range(4, lo, 4), *range(lo + 4, 2 * lo, 4), *(d ^ 1 for d in up_gaps), 0]
    heads = [*lo_leaves, *up_nodes, *lo_nodes, *(d ^ 3 for d in lo_gaps), lo]
    partner = [0] * (2 * lo)
    for a, b in zip(tails, heads):
        partner[a], partner[b] = b, a
    return LinkDiagram._of(partner, 0)


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
    lazy min-heaps, and every move that exists is in its heap.  A move
    exists only through its arcs, and a move changes only the arcs it joins,
    so each new arc is checked once, as a kink or as one side of a bigon,
    and pushed only if it is one.  A popped candidate is checked again,
    since a later move may have removed it.  The survivors keep their
    order, and their darts are renumbered.
    """
    partner = list(d._partner)
    alive = [True] * d.crossing_count

    def bigon(x: int, y: int) -> bool:
        # the over arc x-y, x odd, ends at a later crossing and a parallel
        # under arc joins x ^ 3 to y ^ 1 or x ^ 1 to y ^ 3; for odd darts
        # x ^ 3 is the next slot and x ^ 1 the one before
        return y & 1 and y >> 2 > x >> 2 and (partner[x ^ 3] == y ^ 1 or partner[x ^ 1] == y ^ 3)

    # x ^ y is 1 or 3 for darts at neighbouring slots of one crossing
    kinks = [x >> 2 for x, y in enumerate(partner) if x ^ y | 2 == 3]
    clasps = [x for x in range(1, len(partner), 2) if partner[x] & 1 and bigon(x, partner[x])]
    removed = r1 = r2 = 0
    while kinks or clasps:
        if kinks:
            c = heappop(kinks)
            if not alive[c]:
                continue
            for x in range(4 * c, 4 * c + 3):  # a kink at slot 3 holds slot 0 or 2
                if partner[x] ^ x | 2 == 3:
                    break
            else:
                continue
            # the arc at x returns at a neighbouring slot: join the other two
            alive[c] = False
            joins = ((x ^ 2, partner[x] ^ 2),)
            r1 += 1
        else:
            x = heappop(clasps)
            y = partner[x]
            if not (alive[x >> 2] and bigon(x, y)):
                continue
            u, v = (x ^ 3, y ^ 1) if partner[x ^ 3] == y ^ 1 else (x ^ 1, y ^ 3)
            alive[x >> 2] = alive[y >> 2] = False
            joins = ((x ^ 2, y ^ 2), (u ^ 2, v ^ 2))
            r2 += 1
        for u, v in joins:
            # join the far ends a and b of the arcs at u and v
            a, b = partner[u], partner[v]
            if a == v:
                removed += 1  # u and v ended one arc, now a loop
                continue
            partner[a], partner[b] = b, a
            if not (alive[a >> 2] and alive[b >> 2]):
                continue  # the clasp's second join extends this arc
            if a ^ b | 2 == 3:
                heappush(kinks, a >> 2)
            elif a & b & 1:  # an over arc
                if a > b:
                    a, b = b, a
                if bigon(a, b):
                    heappush(clasps, a)
            elif not (a | b) & 1:  # an under arc: a bigon's over arc ends next to a
                for x in (a ^ 1, a ^ 3):
                    y = partner[x]
                    if x > y:
                        x, y = y, x
                    if x & 1 and bigon(x, y):
                        heappush(clasps, x)
    kept = [x for c in compress(range(len(alive)), alive) for x in range(4 * c, 4 * c + 4)]
    new = {x: i for i, x in enumerate(kept)}
    out = LinkDiagram._of([new[partner[x]] for x in kept], d.free_loops + removed)
    return SimplificationReport(out, removed, r1, r2)


# ---------------------------------------------------------------------------
# Small diagram combinators used by tests and the oracle tooling.
# ---------------------------------------------------------------------------


def mirror_diagram(d: LinkDiagram) -> LinkDiagram:
    """Swap over/under at every crossing (rotate each tuple by one slot)."""
    return LinkDiagram([(c[1], c[2], c[3], c[0]) for c in d.crossings], d.free_loops)


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    shift = len(d1._partner)
    partner = d1._partner + [x + shift for x in d2._partner]
    return LinkDiagram._of(partner, d1.free_loops + d2.free_loops)
