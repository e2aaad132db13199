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
gauge-reduced windings and the identities of the two marked faces (the
face containing the hole and the outer face, recovered from the rotation
system that the vertex types force: split ccw = (in, L, R), merge ccw =
(out, R, L)).  Components and free loops are listed in their radial
nesting order, which is part of the isotopy class.  Every item winds
around the hole, so an inner item separates an outer one from the hole:
the order is that of the items' first crossings along the cut.
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
    "reduced_annular_of",
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


class _Cut:
    """The radial cut order as a doubly linked list over token ids, so that
    a reduction move splices tokens in constant time; -1 ends it on both
    sides, and ``first`` is the innermost token."""

    def __init__(self, tokens: list[int]):
        size = max(tokens, default=-1) + 1
        self.after = [-1] * size
        self.before = [-1] * size
        ends = [-1, *tokens, -1]
        for a, t, b in zip(ends, ends[1:], ends[2:]):
            self.before[t] = a
            self.after[t] = b
        self.first = ends[1]

    def _link(self, a: int, b: int) -> None:
        if a < 0:
            self.first = b
        else:
            self.after[a] = b
        if b >= 0:
            self.before[b] = a

    def remove(self, t: int) -> None:
        self._link(self.before[t], self.after[t])

    def split(self, t: int, inner: int, outer: int) -> None:
        """Replace ``t`` by the new tokens ``inner`` followed by ``outer``,
        the later one."""
        grow = outer + 1 - len(self.after)
        if grow > 0:
            self.after += [-1] * grow
            self.before += [-1] * grow
        a, b = self.before[t], self.after[t]
        self._link(a, inner)
        self._link(inner, outer)
        self._link(outer, b)

    def tokens(self) -> list[int]:
        out = []
        t = self.first
        while t != -1:
            out.append(t)
            t = self.after[t]
        return out


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

    def new_token(self) -> int:
        tid = self.token_count
        self.token_count += 1
        return tid

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

    def _remove_vertex(self, vid: int) -> None:
        self.kind[vid] = -1
        self.att[3 * vid : 3 * vid + 3] = (-1, -1, -1)

    def _drop_edge(self, eid: int) -> None:
        att = self.att
        for d in (self.tail[eid], self.head[eid]):
            if att[d] == eid:
                att[d] = -1
        self.tail[eid] = self.head[eid] = -1

    def _resolve_connectors(self, connectors: list[list]) -> list[int]:
        """Splice edge chains through removed vertices.

        Each connector [ein, eout, tokens] joins the loose head of ``ein``
        to the loose tail of ``eout``, inserting the corridor's cut
        crossings; a chain that closes on itself becomes a free loop.
        Returns the spliced edges that survive, the only edges whose
        records changed.
        """
        tail, head, toks = self.tail, self.head, self.toks
        kept = []
        for k, (ein, eout, tokens) in enumerate(connectors):
            if ein == eout:
                loop = toks[ein] + tokens
                if len(loop) != 1:
                    raise AssertionError("free loop must cross the cut exactly once")
                self.loop_tokens.append(loop[0])
                self._drop_edge(ein)
                continue
            end = head[ein] = head[eout]
            toks[ein] = toks[ein] + tokens + toks[eout]
            tail[eout] = head[eout] = -1
            self.att[end] = ein
            kept.append(ein)
            for later in connectors[k + 1 :]:
                if later[0] == eout:
                    later[0] = ein
        return [eid for eid in kept if tail[eid] >= 0]

    # -- reduction moves ----------------------------------------------------

    def _is_bigon(self, vid: int) -> bool:
        """A split whose outputs feed one merge in order, bounding a disk
        (the parallel strands cross the cut equally often)."""
        if self.kind[vid] != SPLIT:
            return False
        el, er = self.att[3 * vid + 1], self.att[3 * vid + 2]
        left = self.head[el]  # the merge's slot L is 0 and its slot R is 1
        return (
            self.head[er] == left + 1
            and left % 3 == 0
            and self.kind[left // 3] == MERGE
            and len(self.toks[el]) == len(self.toks[er])
        )

    def _is_pass(self, eid: int) -> bool:
        """An edge running from a merge into a split."""
        tail = self.tail[eid]
        return (
            tail >= 0
            and self.kind[tail // 3] == MERGE
            and self.kind[self.head[eid] // 3] == SPLIT
        )

    def bigon_moves(self) -> list[int]:
        return [vid for vid, k in enumerate(self.kind) if k == SPLIT and self._is_bigon(vid)]

    def pass_moves(self) -> list[int]:
        kind = self.kind
        return [
            eid for eid, t in enumerate(self.tail) if t >= 0 and kind[t // 3] == MERGE and self._is_pass(eid)
        ]

    def apply_bigon(self, split_vid: int, cut: _Cut) -> list[int]:
        att = self.att
        el, er = att[3 * split_vid + 1], att[3 * split_vid + 2]
        merge_vid = self.head[el] // 3
        left_tokens, right_tokens = self.toks[el], self.toks[er]
        for tl, tr in zip(left_tokens, right_tokens):
            # the left strand of the bigon is the outer one at every wrap
            if cut.before[tl] != tr:
                raise AssertionError("bigon strands must cross the cut adjacently")
        for t in left_tokens:
            cut.remove(t)
        ein, eout = att[3 * split_vid], att[3 * merge_vid + 2]
        self._drop_edge(el)
        self._drop_edge(er)
        self._remove_vertex(split_vid)
        self._remove_vertex(merge_vid)
        return self._resolve_connectors([[ein, eout, right_tokens]])

    def apply_pass(self, eid: int, cut: _Cut) -> list[int]:
        att = self.att
        merge_vid, split_vid = self.tail[eid] // 3, self.head[eid] // 3
        left_copies, right_copies = [], []
        for t in self.toks[eid]:
            # the two replacement strands run in parallel where the edge
            # was; the left one is outer at every cut crossing
            inner, outer = self.new_token(), self.new_token()
            right_copies.append(inner)
            left_copies.append(outer)
            cut.split(t, inner, outer)
        m, s = 3 * merge_vid, 3 * split_vid
        left = [att[m], att[s + 1], tuple(left_copies)]
        right = [att[m + 1], att[s + 2], tuple(right_copies)]
        self._drop_edge(eid)
        self._remove_vertex(merge_vid)
        self._remove_vertex(split_vid)
        return self._resolve_connectors([left, right])

    def parallel_loops(self) -> set[int]:
        """The tokens of the free loops that type III drops: each one whose
        radial predecessor is a free loop too.  A free loop separates the
        annulus, so no component has cut crossings on both sides of it, and
        the radial predecessor of a loop is a loop exactly when its
        predecessor on the cut is."""
        if len(self.loop_tokens) < 2:
            return set()
        owners = self.cut_owners()
        return {t for t, a, b in zip(self.cut_order[1:], owners, owners[1:]) if a < 0 and b < 0}

    def merge_parallel_loops(self) -> None:
        """Type III: collapse runs of radially adjacent free loops."""
        drop = self.parallel_loops()
        if drop:
            self.loop_tokens = [t for t in self.loop_tokens if t not in drop]
            self.cut_order = [t for t in self.cut_order if t not in drop]

    def reduce(self) -> None:
        """Apply the smallest type I move, else the smallest type II, until
        none fits.

        The two lists are lazy min-heaps, and every move that exists is in
        its heap.  A move changes only the edges it splices, and only those
        edges and their source vertices can hold a new move, so each is
        pushed if it holds one.  The top is checked again before a move is
        taken, since a later move may have removed it.
        """
        cut = _Cut(self.cut_order)
        kind, tail, is_bigon, is_pass = self.kind, self.tail, self._is_bigon, self._is_pass
        bigons, passes = self.bigon_moves(), self.pass_moves()
        while bigons or passes:
            if bigons:
                vid = heappop(bigons)
                if not is_bigon(vid):
                    continue
                spliced = self.apply_bigon(vid, cut)
            else:
                eid = heappop(passes)
                if not is_pass(eid):
                    continue
                spliced = self.apply_pass(eid, cut)
            for eid in spliced:  # the tail of a pass is a merge, of a bigon a split
                vid = tail[eid] // 3
                if kind[vid] == MERGE:
                    if is_pass(eid):
                        heappush(passes, eid)
                elif is_bigon(vid):
                    heappush(bigons, vid)
        self.cut_order = cut.tokens()

    # -- embedding: faces and radial nesting --------------------------------

    def _face_orbits(self) -> tuple[list[int], list[list[int]]]:
        """The face id of every dart (-1 at an empty one), and the darts of
        every face.

        Faces are orbits of sigma(alpha(dart)): alpha jumps to the other end
        of the dart's edge and sigma turns counterclockwise around that
        vertex.  The orbit of a dart is the face on the left of its edge
        when the edge points away from the dart's vertex, so the head dart
        of an edge carries the face on the inner side of its cut crossings
        (the flow is counterclockwise there).
        """
        kind, att, tail, head = self.kind, self.att, self.tail, self.head
        face = [-1] * len(att)
        orbits: list[list[int]] = []
        for eid, start in enumerate(tail):
            if start < 0:
                continue
            for dart in (start, head[eid]):
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
        return face, orbits

    def component_edges(self) -> list[list[int]]:
        """The edges of each connected component in ascending order, the
        components by least edge id; a search from vertex to vertex reads
        each vertex's darts once."""
        att, tail, head = self.att, self.tail, self.head
        comp_of = [-1] * len(self.kind)
        comps: list[list[int]] = []
        for eid, start in enumerate(tail):
            if start < 0:
                continue
            vid = start // 3
            if comp_of[vid] < 0:
                comp_of[vid] = len(comps)
                stack = [vid]
                while stack:
                    v = stack.pop()
                    for dart in range(3 * v, 3 * v + 3):
                        e = att[dart]
                        if e < 0:
                            continue
                        w = (head[e] if tail[e] == dart else tail[e]) // 3
                        if comp_of[w] < 0:
                            comp_of[w] = len(comps)
                            stack.append(w)
                comps.append([])
            comps[comp_of[vid]].append(eid)
        return comps

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
        ``(token,)``, a component as ``(edges, crossed)``, where ``crossed``
        lists the edge at each of its cut crossings, innermost first.

        Every item winds around the hole, so an item inside another one
        separates that one from the hole and the cut meets it first: the
        radial order is the order of first crossings.
        """
        comps = [(edges, []) for edges in self.component_edges()]
        comp_of: list = [None] * len(self.tail)
        for comp in comps:
            for eid in comp[0]:
                comp_of[eid] = comp
        items: list[tuple] = []
        for t, eid in zip(self.cut_order, self.cut_owners()):
            if eid < 0:  # the token of a free loop
                items.append((t,))
                continue
            comp = comp_of[eid]
            if not comp[1]:
                items.append(comp)
            comp[1].append(eid)
        if not all(crossed for _, crossed in comps):
            raise AssertionError("a component must wind around the hole")
        return items

    # -- canonical form -------------------------------------------------------

    def _min_signature(self, starts: list[int], marks: tuple[list, list]) -> tuple:
        """Least signature over ``starts``.

        Only the starts with the least first entry get a walk.  Those walks
        advance in lockstep, one vertex entry at a time, and only those
        holding the least entry go on, so a start costs about the length
        of its common prefix with the winner.  Two walks with equal
        signatures pair their edge orders into an automorphism of the
        marked, embedded diagram, under which every signature is
        invariant: at k = 1, 2, 4, ... the first two walks are compared
        entry by entry and the greater is dropped at the first difference;
        when every vertex entry ties, windings and marks decide, and on a
        whole tie the paired edges are joined in a union-find and each
        class keeps one walk.  Symmetric diagrams such as the annular
        closure of x0^n thus cost a few whole walks, not one per start.
        """
        parent = {e: e for e in starts}

        def find(e: int) -> int:
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        def settle(walks: list[_Walk], k: int) -> list[_Walk]:
            """Settle the first two walks, whose entries before k tie."""
            first, second = walks[0], walks[1]
            a, b = first.entry(k), second.entry(k)
            while a == b and a is not None:
                k += 1
                a, b = first.entry(k), second.entry(k)
            if a is None:  # one component: both walks end together
                a, b = first.signature(marks), second.signature(marks)
            if a != b:
                return [first if a < b else second] + walks[2:]
            for x, y in zip(first.edge_order, second.edge_order):
                parent[find(x)] = find(y)
            classes = set()
            out = []
            for walk in walks:
                root = find(walk.edge_order[0])
                if root not in classes:
                    classes.add(root)
                    out.append(walk)
            return out

        # A walk's first entry is that of the head of its start edge e: its
        # kind, then the numbers of its three slot edges, e being 0 and the
        # others numbered on from 1 in slot order.
        kind, att, head = self.kind, self.att, self.head
        firsts = []
        for e in starts:
            d = head[e]
            d -= d % 3
            x, y, z = att[d], att[d + 1], att[d + 2]
            nx = 0 if x == e else 1
            ny = 0 if y == e else nx if y == x else nx + 1
            nz = 0 if z == e else nx if z == x else ny if z == y else max(nx, ny) + 1
            firsts.append((kind[d // 3], nx, ny, nz))
        least = min(firsts)
        walks = [_Walk(self, start) for start, e in zip(starts, firsts) if e == least]
        k = 1
        if len(walks) > 1:
            walks = settle(walks, k)
        while len(walks) > 1 and walks[0].entry(k) is not None:
            entries = [walk.entry(k) for walk in walks]
            least = min(entries)
            walks = [walk for walk, e in zip(walks, entries) if e == least]
            k += 1
            if k & (k - 1) == 0 and len(walks) > 1:
                walks = settle(walks, k)
        while len(walks) > 1:  # equal vertex entries: windings and marks decide
            walks = settle(walks, k)
        return walks[0].signature(marks)

    def canonical_form(self) -> tuple:
        faces, orbits = self._face_orbits()
        tail, head = self.tail, self.head
        items = []
        for item in self.radial_items():
            if len(item) == 1:
                items.append("O")
                continue
            edges, crossed = item
            # the cut runs in one face of the component from each crossing
            # to the next: the hole face before the first, the outer after
            # the last
            if [faces[tail[e]] for e in crossed[:-1]] != [faces[head[e]] for e in crossed[1:]]:
                raise AssertionError("cut walk out of step with faces")
            marks = (orbits[faces[head[crossed[0]]]], orbits[faces[tail[crossed[-1]]]])
            items.append(self._min_signature(edges, marks))
        return tuple(items)


class _Walk:
    """The traversal signature of a component from one start edge, computed
    only as far as a comparison asks.

    Edges are visited breadth first from ``start``; a vertex, when first
    reached, numbers its unnumbered slot edges in slot order, and its entry
    (kind, slot edge numbers) is then final.  The signature is the vertex
    entries, the windings reduced by the gauge ``psi`` of the spanning
    tree of first visits, and for each marked face the least (edge number,
    end) among its darts, end 0 at the tail and 1 at the head.
    """

    __slots__ = ("net", "edge_ix", "edge_order", "verts", "psi", "pos", "sig")

    def __init__(self, net: _Net, start: int):
        self.net = net
        self.edge_ix = {start: 0}
        self.edge_order = [start]
        self.verts: list[tuple] = []
        self.psi: dict[int, int] = {}  # reached vertices, with their gauge
        self.pos = 0
        self.sig: tuple | None = None

    def entry(self, k: int) -> tuple | None:
        """The k-th vertex entry, or None past the last vertex."""
        verts = self.verts
        if k < len(verts):
            return verts[k]
        net = self.net
        kind, att, tail, head, toks = net.kind, net.att, net.tail, net.head, net.toks
        edge_ix, edge_order, psi = self.edge_ix, self.edge_order, self.psi
        pos = self.pos
        while len(verts) <= k and pos < len(edge_order):
            eid = edge_order[pos]
            pos += 1
            src_v, dst_v = tail[eid] // 3, head[eid] // 3
            if dst_v in psi:
                if src_v in psi:
                    continue
                psi[src_v] = psi[dst_v] - len(toks[eid])
                reached = (src_v,)
            elif src_v in psi:
                psi[dst_v] = psi[src_v] + len(toks[eid])
                reached = (dst_v,)
            else:  # the start edge
                psi[src_v] = 0
                psi[dst_v] = len(toks[eid]) if dst_v != src_v else 0
                reached = (dst_v, src_v) if dst_v != src_v else (dst_v,)
            for vid in reached:
                entry = [kind[vid]]
                for nxt in att[3 * vid : 3 * vid + 3]:
                    ix = edge_ix.get(nxt)
                    if ix is None:
                        ix = edge_ix[nxt] = len(edge_order)
                        edge_order.append(nxt)
                    entry.append(ix)
                verts.append(tuple(entry))
        self.pos = pos
        return verts[k] if k < len(verts) else None

    def signature(self, marks: tuple[list, list]) -> tuple:
        """The whole signature; ``marks`` lists the darts of the hole face
        and of the outer face.  A walk serves one component, so the first
        result is kept."""
        if self.sig is None:
            net = self.net
            self.entry(len(net.kind))
            att, tail, head, toks, psi = net.att, net.tail, net.head, net.toks, self.psi
            edge_ix = self.edge_ix
            winds = tuple(
                len(toks[eid]) + psi[tail[eid] // 3] - psi[head[eid] // 3]
                for eid in self.edge_order
            )
            mark_ids = tuple(
                min((edge_ix[att[d]], 0 if tail[att[d]] == d else 1) for d in darts)
                for darts in marks
            )
            self.sig = (tuple(self.verts), winds, mark_ids)
        return self.sig


def _format_code(form: tuple, loops: int) -> str:
    parts = []
    for item in form:
        if item == "O":
            parts.append("O")
            continue
        verts, winds, marks = item
        # every vertex has three slots, so an entry is (kind, a, b, c)
        vtxt = ";".join(f"{_KINDS[k][0]}:{a},{b},{c}" for k, a, b, c in verts)
        wtxt = ",".join(map(str, winds))
        mtxt = ",".join(f"{e}{'st'[d]}" for e, d in marks)
        parts.append(f"[{vtxt}|{wtxt}|{mtxt}]")
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
        net = self._net
        return not (net.bigon_moves() or net.pass_moves() or net.parallel_loops())

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


def _reduced(net: _Net) -> AnnularStrandDiagram:
    net.reduce()
    net.merge_parallel_loops()
    return AnnularStrandDiagram(net)


def reduce_annular(a: AnnularStrandDiagram) -> AnnularStrandDiagram:
    """Apply reductions until none fits; the code of the result, though not
    its vertex and edge ids, is independent of the move order (fuzz-tested)."""
    return _reduced(a._net.copy())


def canonical_code(a: AnnularStrandDiagram) -> str:
    """Printable canonical code; equal codes iff equal embedded diagrams."""
    return _format_code(a._net.canonical_form(), a.free_loops)


def component_count(a: AnnularStrandDiagram) -> int:
    """Connected components, counting each free loop as one."""
    return len(a._net.component_edges()) + a.free_loops


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
    net.cut_order = [net.new_token()]
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


def reduced_annular_of(p: TreePair) -> AnnularStrandDiagram:
    """:func:`reduce_annular` of :func:`annular_of`, reducing the fresh
    closure in place."""
    return _reduced(annular_of(p)._net)


def are_conjugate(g: TreePair, h: TreePair) -> bool:
    """Conjugacy test: reduced annular closures have equal canonical codes."""
    return canonical_code(reduced_annular_of(g)) == canonical_code(reduced_annular_of(h))
