"""Annular strand diagrams: the conjugacy engine.

An annular strand diagram is a directed graph embedded in an annulus whose
vertices are splits (one in, two ordered outs) and merges (two ordered
ins, one out).  A tree pair closes into one: the source tree's nodes
become splits with their edges directed downward, the target tree's nodes
merges, the two trees are glued at their leaves, and one edge runs from
the target's root around the annulus to the source's root.  Conjugate
elements close into diagrams that reduce to the same one.

Three reductions apply in the annulus:

  I   a split whose two outputs feed the matching inputs of one merge,
      with the bigon bounding a disk, collapses to a single edge;
  II  an edge from a merge into a split is replaced by two strands joining
      the merge's inputs to the split's outputs in order;
  III two radially adjacent free loops merge into one.

``_Net.reduce`` alone finds and applies them: types I and II from two
heaps of live candidates, then type III in its walk along the cut, and it
returns the number of moves of each type.  The test suite keeps a
step-wise reference that rescans the whole net after every move.

The unique reduced form is a complete conjugacy invariant, as an embedded
diagram: the abstract graph alone is not enough (non-conjugate elements
can share it), so the embedding is tracked exactly.  Every strand flows
counterclockwise, so each edge meets a fixed radial cut in finitely many
positive crossings; edges carry their ordered crossing tokens and the
diagram carries the radial order of all tokens.  Moves splice and
duplicate tokens locally, the type I disk test is "equal token counts"
(parallel strands then cross in adjacent pairs, which is asserted), and a
chain that closes on itself becomes a free loop with exactly one token.

The canonical code quotients exactly the remaining freedom, rotation of
the annulus: per connected component it minimizes, over starting edges, a
traversal signature of the typed digraph together with spanning-tree
gauge-reduced windings and the identities of the two marked faces.  These
are the hole face, in which the cut runs before the component's first
crossing, and the outer face, in which it runs after the last.  Faces
follow from the rotation system that the vertex types force (split ccw =
(in, L, R), merge ccw = (out, R, L)), and only the faces that the cut runs
through are traced, each from a dart at a crossing.  Components and free
loops are listed in their radial nesting order, which is part of the
isotopy class.  Every item winds around the hole, so an inner item
separates an outer one from the hole: the order is that of the items'
first crossings, read in one walk along the cut.
"""

from __future__ import annotations

import json
from heapq import heappop, heappush

from .pairs import TreePair
from .trees import tree_darts

__all__ = [
    "AnnularStrandDiagram",
    "reduce_annular",
    "canonical_code",
    "are_conjugate",
    "component_count",
    "annular_of",
]


# Vertex kinds, numbered in the order of their names so that vertex entries
# compare as the names would.
MERGE, SPLIT = range(2)
_KINDS = ("merge", "split")

# The slot names of each kind in slot order; slot s of vertex v is dart
# 3v + s.
_SLOTS = (("L", "R", "out"), ("in", "L", "R"))

# sigma: the step from a slot to the next one counterclockwise around its
# vertex; split ccw = (in, L, R), merge ccw = (out, R, L)
_TURN = ((2, -1, -1), (1, 1, -2))


class _Net:
    """Mutable split/merge network with exact cut-crossing bookkeeping, held
    in flat integer arrays.

    Vertex v has kind ``kind[v]`` and darts 3v + s, one for each of its
    slots s; ``att[d]`` is the edge at dart d.  Edge e runs from dart
    ``tail[e]`` to dart ``head[e]`` and crosses the cut at the tokens of the
    tuple ``toks[e]``, in its direction of flow.  Ids are never reused: a
    removed vertex keeps kind -1, a dropped edge tail -1, and an empty dart
    edge -1.
    """

    __slots__ = ("kind", "att", "tail", "head", "toks", "loop_tokens", "cut_order", "token_count")

    def __init__(self):
        self.kind: list[int] = []
        self.att: list[int] = []
        self.tail: list[int] = []
        self.head: list[int] = []
        self.toks: list[tuple[int, ...]] = []
        self.loop_tokens: list[int] = []  # one token per free loop
        self.cut_order: list[int] = []  # token ids, innermost first
        self.token_count = 0

    # -- construction -------------------------------------------------------

    def copy(self) -> "_Net":
        out = _Net()
        out.kind = self.kind[:]
        out.att = self.att[:]
        out.tail = self.tail[:]
        out.head = self.head[:]
        out.toks = self.toks[:]  # token tuples are never changed, so shared
        out.loop_tokens = self.loop_tokens[:]
        out.cut_order = self.cut_order[:]
        out.token_count = self.token_count
        return out

    # -- reduction ------------------------------------------------------------

    def reduce(self) -> tuple[int, int, int]:
        """Apply the smallest type I move, else the smallest type II, until
        none fits, then type III; return the number of moves of each type.

        The two lists are lazy min-heaps, and every move that exists is in
        its heap.  A move changes only the edges it splices, and only those
        edges and their source vertices can hold a new move, so each is
        pushed if it holds one.  The top is checked again before a move is
        taken, since a later move may have removed it.

        Each move is applied in place.  The radial cut is a doubly linked
        list over token ids, -1 ending it on both sides, so a move splices
        its tokens in constant time.  A move removes a split and a merge:
        each edge into the pair runs on through the corridor's tokens and
        takes the far end of the edge out of it, which is dropped, and a
        chain that closes on itself becomes a free loop.  Type III drops
        the free loops that follow a free loop in the walk along the cut
        that rebuilds ``cut_order``.
        """
        kind, att, tail, head, toks = self.kind, self.att, self.tail, self.head, self.toks
        after = [-1] * self.token_count
        before = after[:]
        ends = [-1, *self.cut_order, -1]
        for a, t, b in zip(ends, ends[1:], ends[2:]):
            before[t] = a
            after[t] = b
        first = ends[1]
        # Type I: a split whose outputs feed one merge in order, bounding a
        # disk (the parallel strands cross the cut equally often).  The head
        # of output R is one dart past that of output L only at a merge's
        # inputs L and R, since only a merge takes edges in at two
        # neighbouring slots.  Type II: an edge from a merge into a split.
        bigons = [
            v for v, k in enumerate(kind)
            if k == SPLIT
            and head[att[3 * v + 2]] == head[att[3 * v + 1]] + 1
            and len(toks[att[3 * v + 1]]) == len(toks[att[3 * v + 2]])
        ]
        passes = [e for e, t in enumerate(tail) if t >= 0 and kind[t // 3] == MERGE and kind[head[e] // 3] == SPLIT]
        bigon_count = pass_count = 0
        while bigons or passes:
            if bigons:
                v = heappop(bigons)
                s = 3 * v
                el, er = att[s + 1], att[s + 2]
                # the tests of the scans above, at the popped candidate
                if not (kind[v] == SPLIT and head[er] == head[el] + 1 and len(toks[el]) == len(toks[er])):
                    continue
                bigon_count += 1
                m = head[el]  # the merge's slot L is 0 and its slot R is 1
                for tl, tr in zip(toks[el], toks[er]):
                    # the left strand of the bigon is the outer one at every
                    # wrap, and the right one stays on the cut
                    if before[tl] != tr:
                        raise AssertionError("bigon strands must cross the cut adjacently")
                    b = after[tr] = after[tl]
                    if b >= 0:
                        before[b] = tr
                tail[el] = head[el] = tail[er] = head[er] = -1
                # the edge into the split runs on through the right strand's
                # tokens into the edge out of the merge
                joins = ((att[s], att[m + 2], toks[er]),)
            else:
                e = heappop(passes)
                m, s = tail[e], head[e]
                if not (m >= 0 and kind[m // 3] == MERGE and kind[s // 3] == SPLIT):
                    continue
                pass_count += 1
                m -= 2  # from the merge's slot out to its slot L
                # the two replacement strands run in parallel where the edge
                # was; the left one is outer at every cut crossing
                new = base = len(after)
                for t in toks[e]:
                    a, b = before[t], after[t]
                    if a < 0:
                        first = new
                    else:
                        after[a] = new
                    if b >= 0:
                        before[b] = new + 1
                    before += (a, new)
                    after += (new + 1, b)
                    new += 2
                tail[e] = head[e] = -1
                # the left strand joins the merge's input L to the split's
                # output L, then the right strand R to R; if the split's
                # output L ran into the merge's input R, the first join
                # leaves the edge into input L running on into input R
                ein, eout, c = att[m], att[s + 1], att[m + 1]
                joins = (
                    (ein, eout, tuple(range(base + 1, new, 2))),
                    (ein if c == eout else c, att[s + 2], tuple(range(base, new, 2))),
                )
            for ein, eout, tokens in joins:
                if ein == eout:
                    loop = toks[ein] + tokens
                    if len(loop) != 1:
                        raise AssertionError("free loop must cross the cut exactly once")
                    self.loop_tokens.append(loop[0])
                    tail[ein] = head[ein] = -1
                else:
                    end = head[ein] = head[eout]
                    toks[ein] += tokens + toks[eout]
                    tail[eout] = head[eout] = -1
                    att[end] = ein
            kind[s // 3] = kind[m // 3] = -1
            att[s : s + 3] = att[m : m + 3] = (-1, -1, -1)
            # the tests of type II and type I at the spliced edges: the
            # tail of a pass is a merge, of a bigon a split
            for e, _, _ in joins:
                t = tail[e]
                if t < 0:
                    continue
                if kind[t // 3] == MERGE:
                    if kind[head[e] // 3] == SPLIT:
                        heappush(passes, e)
                    continue
                el, er = att[t - t % 3 + 1], att[t - t % 3 + 2]
                if head[er] == head[el] + 1 and len(toks[el]) == len(toks[er]):
                    heappush(bigons, t // 3)
        # Type III: a free loop separates the annulus, so no component has
        # cut crossings on both sides of it, and the radial predecessor of a
        # loop is a loop exactly when its predecessor on the cut is.
        self.cut_order = order = []
        loops = set(self.loop_tokens)
        last = -1
        while first >= 0:
            if first in loops and last in loops:
                loops.discard(first)
            else:
                order.append(first)
                last = first
            first = after[first]
        self.token_count = len(after)
        loop_count = len(self.loop_tokens) - len(loops)
        self.loop_tokens = [t for t in self.loop_tokens if t in loops]
        return bigon_count, pass_count, loop_count

    # -- embedding: faces and radial nesting --------------------------------

    def cut_owners(self) -> list[int]:
        """The live edge that holds each token of ``cut_order``, in cut
        order, and -1 for the token of a free loop: the cut holds exactly
        the tokens of live edges and free loops."""
        owner = [-1] * self.token_count
        for eid, tokens in enumerate(self.toks):
            if self.tail[eid] >= 0:
                for t in tokens:
                    owner[t] = eid
        return [owner[t] for t in self.cut_order]

    def radial_items(self) -> list[tuple]:
        """Components and free loops innermost first: a free loop as
        ``(token,)``, a component as ``(edges, crossed)``, where ``edges``
        are its edges in ascending order and ``crossed`` lists the edge at
        each of its cut crossings, innermost first.

        Every item winds around the hole, so an item inside another one
        separates that one from the hole and the cut meets it first: the
        radial order is the order of first crossings.  One walk along the
        cut finds them, with a search from vertex to vertex at each
        component's first crossing; a component that the cut never meets
        would leave its edges unfound.
        """
        att, tail, head = self.att, self.tail, self.head
        item_of: list = [None] * len(self.kind)
        items: list[tuple] = []
        found = 0
        for t, eid in zip(self.cut_order, self.cut_owners()):
            if eid < 0:  # the token of a free loop
                items.append((t,))
                continue
            item = item_of[tail[eid] // 3]
            if item is None:
                edges: list[int] = []
                item = (edges, [])
                stack = [tail[eid] // 3]
                item_of[stack[0]] = item
                while stack:
                    v = stack.pop()
                    for dart in range(3 * v, 3 * v + 3):
                        e = att[dart]
                        if tail[e] == dart:
                            edges.append(e)
                            w = head[e] // 3
                        else:
                            w = tail[e] // 3
                        if item_of[w] is None:
                            item_of[w] = item
                            stack.append(w)
                edges.sort()
                found += len(edges)
                items.append(item)
            item[1].append(eid)
        if found != len(tail) - tail.count(-1):
            raise AssertionError("a component must wind around the hole")
        return items

    def cut_faces(self, items: list[tuple]) -> tuple[list[int], list[list[int]]]:
        """The faces that the cut runs through, traced from the darts at
        the cut crossings of the components of ``items``: the face id of
        each dart traced (-1 at the others), and the darts of each face.

        Faces are orbits of sigma(alpha(dart)): alpha jumps to the other
        end of the dart's edge and sigma turns counterclockwise around that
        vertex.  The orbit of a dart is the face on the left of its edge
        when the edge points away from the dart's vertex, so the head dart
        of an edge carries the face on the inner side of its cut crossings
        and the tail dart the face on the outer side (the flow is
        counterclockwise there).  From each crossing to the next of one
        component the cut runs in one face, which is checked.
        """
        kind, att, tail, head = self.kind, self.att, self.tail, self.head
        face = [-1] * len(att)
        orbits: list[list[int]] = []
        for item in items:
            if len(item) == 1:
                continue
            crossed = item[1]
            for dart in (head[crossed[0]], *[tail[e] for e in crossed]):
                if face[dart] >= 0:
                    continue
                orbit = []
                while face[dart] < 0:
                    face[dart] = len(orbits)
                    orbit.append(dart)
                    e = att[dart]
                    end = head[e] if tail[e] == dart else tail[e]
                    dart = end + _TURN[kind[end // 3]][end % 3]
                orbits.append(orbit)
            for e, f in zip(crossed, crossed[1:]):
                if face[tail[e]] != face[head[f]]:
                    raise AssertionError("cut walk out of step with faces")
        return face, orbits

    # -- canonical form -------------------------------------------------------

    def _min_signature(self, starts: list[int], marks: tuple[list, list]) -> tuple:
        """Least signature over ``starts``.

        Only the starts with the least first entry get a walk.  The first
        of them is the running best, and each other one is compared with
        it one vertex entry at a time, the smaller walk becoming the best,
        so a start costs about the length of its common prefix with the
        best.  Two walks with equal signatures pair their edge orders into
        an automorphism of the marked, embedded diagram, under which every
        signature is invariant: when every vertex entry ties, windings and
        marks decide, and on a whole tie the paired edges are joined in a
        union-find, and a start in the best start's class gets no walk.
        Symmetric diagrams such as the annular closure of x0^n thus cost
        two whole walks, not one per start.
        """
        # A walk's first entry is that of the head of its start edge e: its
        # kind, then the numbers of its three slot edges, e being 0 and the
        # others numbered on from 1 in slot order.
        kind, att, head = self.kind, self.att, self.head
        least, tied = None, []
        for e in starts:
            d = head[e]
            d -= d % 3
            x, y, z = att[d], att[d + 1], att[d + 2]
            nx = 0 if x == e else 1
            ny = 0 if y == e else nx if y == x else nx + 1
            nz = 0 if z == e else nx if z == x else ny if z == y else max(nx, ny) + 1
            first = (kind[d // 3], nx, ny, nz)
            if first == least:
                tied.append(e)
            elif least is None or first < least:
                least, tied = first, [e]

        parent: dict[int, int] = {}  # roots are absent

        def find(e: int) -> int:
            while e in parent:
                p = parent[e]
                parent[e] = parent.get(p, p)
                e = p
            return e

        best = _Walk(self, tied[0])
        for start in tied[1:]:
            if find(start) == find(best.edge_order[0]):
                continue
            walk = _Walk(self, start)
            k = 4  # vertex entry 0 ties: it is the first entry
            while walk.entry(k) is not None:
                best.entry(k)
                a, b = walk.verts[k : k + 4], best.verts[k : k + 4]
                if a != b:
                    break
                k += 4
            else:  # equal vertex entries: windings and marks decide
                a, b = walk.signature(marks), best.signature(marks)
            if a < b:
                best = walk
            elif a == b:
                for x, y in zip(walk.edge_order, best.edge_order):
                    x, y = find(x), find(y)
                    if x != y:
                        parent[x] = y
        return best.signature(marks)

    def canonical_form(self) -> tuple:
        """Per item, innermost first, "O" for a free loop and the least
        signature of a component, whose marks are the hole face, in which
        the cut runs before the component's first crossing, and the outer
        face, after its last."""
        items = self.radial_items()
        face, orbits = self.cut_faces(items)
        tail, head = self.tail, self.head
        return tuple(
            "O" if len(item) == 1 else self._min_signature(
                item[0], (orbits[face[head[item[1][0]]]], orbits[face[tail[item[1][-1]]]])
            )
            for item in items
        )


class _Walk:
    """The traversal signature of a component from one start edge, computed
    only as far as a comparison asks.

    Edges are visited breadth first from ``start``; a vertex, when first
    reached, numbers its unnumbered slot edges in slot order, and its entry
    (kind, slot edge numbers) is then final.  The entries are kept as one
    flat sequence of four numbers per vertex, which compares as the
    entries would.  The signature is that sequence, the windings reduced
    by the gauge ``psi`` of the spanning tree of first visits, and for
    each marked face the least (edge number, end) among its darts, end 0
    at the tail and 1 at the head.
    """

    __slots__ = ("net", "edge_ix", "edge_order", "verts", "seen", "pos", "sig")

    def __init__(self, net: _Net, start: int):
        self.net = net
        self.edge_ix = {start: 0}
        self.edge_order = [start]
        self.verts: list[int] = []
        self.seen: set[int] = set()  # the vertices reached
        self.pos = 0
        self.sig: tuple | None = None

    def entry(self, k: int) -> int | None:
        """The k-th number of the vertex entries, or None past the last
        vertex."""
        verts = self.verts
        if k < len(verts):
            return verts[k]
        net = self.net
        kind, att, tail, head = net.kind, net.att, net.tail, net.head
        edge_ix, edge_order, seen = self.edge_ix, self.edge_order, self.seen
        pos = self.pos
        while len(verts) <= k and pos < len(edge_order):
            eid = edge_order[pos]
            pos += 1
            for vid in (head[eid] // 3, tail[eid] // 3):
                if vid in seen:
                    continue
                seen.add(vid)
                verts.append(kind[vid])
                for nxt in att[3 * vid : 3 * vid + 3]:
                    ix = edge_ix.get(nxt)
                    if ix is None:
                        ix = edge_ix[nxt] = len(edge_order)
                        edge_order.append(nxt)
                    verts.append(ix)
        self.pos = pos
        return verts[k] if k < len(verts) else None

    def signature(self, marks: tuple[list, list]) -> tuple:
        """The whole signature; ``marks`` lists the darts of the hole face
        and of the outer face.  A walk serves one component, so the first
        result is kept."""
        if self.sig is None:
            net = self.net
            self.entry(4 * len(net.kind))
            att, tail, head, toks = net.att, net.tail, net.head, net.toks
            # the gauge, replayed over the edges in the order of the walk:
            # an edge that first reaches a vertex sets its psi, and the
            # start edge's head gets 0 (a shift of psi leaves the windings);
            # both ends of an edge are set once it is read
            psi: dict[int, int] = {}
            winds = []
            for eid in self.edge_order:
                src, dst, w = tail[eid] // 3, head[eid] // 3, len(toks[eid])
                if dst not in psi:
                    psi[dst] = psi[src] + w if src in psi else 0
                if src not in psi:
                    psi[src] = psi[dst] - w
                winds.append(w + psi[src] - psi[dst])
            edge_ix = self.edge_ix
            mark_ids = tuple(
                min((edge_ix[att[d]], 0 if tail[att[d]] == d else 1) for d in darts)
                for darts in marks
            )
            self.sig = (tuple(self.verts), tuple(winds), mark_ids)
        return self.sig


def _format_code(form: tuple, loops: int) -> str:
    parts = []
    for item in form:
        if item == "O":
            parts.append("O")
            continue
        verts, winds, ((e0, d0), (e1, d1)) = item
        # every vertex has three slots, so its entry is kind, a, b, c
        values = list(verts)
        values[::4] = [_KINDS[k][0] for k in verts[::4]]
        values += (*winds, e0, "st"[d0], e1, "st"[d1])
        text = ";".join(["%s:%d,%d,%d"] * (len(verts) // 4)) + "|" + ",".join(["%d"] * len(winds))
        parts.append(f"[{text}|%d%s,%d%s]" % tuple(values))
    return (" ".join(parts) if parts else "-") + f" loops={loops}"


class AnnularStrandDiagram:
    """Immutable wrapper around an annular split/merge network."""

    __slots__ = ("_net",)

    def __init__(self, net: _Net):
        self._net = net

    @property
    def free_loops(self) -> int:
        return len(self._net.loop_tokens)

    @property
    def split_count(self) -> int:
        return self._net.kind.count(SPLIT)

    @property
    def merge_count(self) -> int:
        return self._net.kind.count(MERGE)

    @property
    def is_reduced(self) -> bool:
        return not any(self._net.copy().reduce())

    def to_json(self) -> str:
        net = self._net
        kind, att = net.kind, net.att

        def end(dart: int) -> list:
            return [dart // 3, _SLOTS[kind[dart // 3]][dart % 3]]

        return json.dumps(
            {
                "schema": 1,
                "vertices": [
                    {"id": v, "kind": _KINDS[k],
                     "edges": {slot: att[3 * v + s] for s, slot in enumerate(_SLOTS[k])}}
                    for v, k in enumerate(kind)
                    if k >= 0
                ],
                "edges": [
                    {"id": e, "src": end(tail), "dst": end(net.head[e]), "winding": len(net.toks[e])}
                    for e, tail in enumerate(net.tail)
                    if tail >= 0
                ],
                "cut_sequence": [
                    {"edge": eid} if eid >= 0 else {"loop": True} for eid in net.cut_owners()
                ],
                "free_loops": len(net.loop_tokens),
            }
        )

    def __repr__(self) -> str:
        return (
            f"AnnularStrandDiagram(splits={self.split_count}, "
            f"merges={self.merge_count}, free_loops={self.free_loops})"
        )


def reduce_annular(a: AnnularStrandDiagram) -> AnnularStrandDiagram:
    """Apply reductions until none fits; the code of the result, though not
    its vertex and edge ids, is independent of the move order (fuzz-tested)."""
    net = a._net.copy()
    net.reduce()
    return AnnularStrandDiagram(net)


def canonical_code(a: AnnularStrandDiagram) -> str:
    """Printable canonical code; equal codes iff equal embedded diagrams."""
    return _format_code(a._net.canonical_form(), a.free_loops)


def component_count(a: AnnularStrandDiagram) -> int:
    """Connected components, counting each free loop as one."""
    return len(a._net.radial_items())


def annular_of(p: TreePair) -> AnnularStrandDiagram:
    """The annular closure of the strand diagram of ``p``: the source tree
    as splits above, the target tree as merges below, leaves glued, and the
    target's root joined to the source's root by one edge that crosses the
    cut once, at token 0.  The identity closes to one free loop.

    Vertices: 0 and 1 unused, the source tree's nodes in preorder as
    splits, then the target tree's as merges.  Edges: 0 and 1 unused, the
    internal edges of each tree, the leaf strands, then the closing edge.
    """
    net = _Net()
    carets = p.leaf_count - 1
    net.kind = [-1, -1] + [SPLIT] * carets + [MERGE] * carets
    net.att = att = [-1] * (3 * len(net.kind))
    net.cut_order, net.token_count = [0], 1
    if carets == 0:
        net.loop_tokens = [0]
        return AnnularStrandDiagram(net)

    up = 6  # the first dart of the first split
    lo = up + 3 * carets  # and of the first merge
    # a split holds its children at slots 1 and 2, a merge at 0 and 1
    up_nodes, up_leaves, _ = tree_darts(p.source, up, 3, 1, 2)
    lo_nodes, lo_leaves, _ = tree_darts(p.target, lo, 3, 0, 1)
    # the internal edges of each tree (a split's in is its slot 0 and a
    # merge's out its slot 2), the leaf strands, then the closing edge
    tails = [*up_nodes, *range(lo + 5, lo + 3 * carets, 3), *up_leaves, lo + 2]
    heads = [*range(up + 3, up + 3 * carets, 3), *lo_nodes, *lo_leaves, up]
    for eid, dart in enumerate(tails, 2):
        att[dart] = eid
    for eid, dart in enumerate(heads, 2):
        att[dart] = eid
    net.tail, net.head = [-1, -1, *tails], [-1, -1, *heads]
    net.toks = [()] * (len(tails) + 1) + [(0,)]
    return AnnularStrandDiagram(net)


def are_conjugate(g: TreePair, h: TreePair) -> bool:
    """Conjugacy test: reduced annular closures have equal canonical codes."""
    return canonical_code(reduce_annular(annular_of(g))) == canonical_code(reduce_annular(annular_of(h)))
