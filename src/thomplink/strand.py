"""Strand diagrams and their annular closures: the conjugacy engine.

A strand diagram is a planar DAG in a square with one source on the top
edge, one sink on the bottom, and otherwise trivalent vertices that are
splits (one in, two ordered outs) or merges (two ordered ins, one out).
A tree pair becomes a strand diagram by directing the source tree's edges
downward (splits) and the target tree's upward-flipped edges (merges),
gluing at the leaves.  Concatenation glues sink to source and realizes
multiplication.

Identifying the top and bottom of the square turns a strand diagram into
an annular one.  Three reductions apply in the annulus:

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
nesting order, which is part of the isotopy class.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import cmp_to_key
from heapq import heappop, heappush

from .pairs import TreePair
from .trees import node_table

__all__ = [
    "StrandDiagram",
    "AnnularStrandDiagram",
    "strand_from_pair",
    "concatenate",
    "annular_closure",
    "reduce_annular",
    "canonical_code",
    "are_conjugate",
    "component_count",
    "annular_of",
    "reduced_annular_of",
]

SPLIT = "split"
MERGE = "merge"
SOURCE = "source"
SINK = "sink"

_SLOTS = {
    SPLIT: ("in", "L", "R"),
    MERGE: ("L", "R", "out"),
    SOURCE: ("out",),
    SINK: ("in",),
}

# counterclockwise rotation of the three edge ends around a vertex
_ROTATION = {
    SPLIT: {"in": "L", "L": "R", "R": "in"},
    MERGE: {"out": "R", "R": "L", "L": "out"},
    SOURCE: {"out": "out"},
    SINK: {"in": "in"},
}


class _Cut:
    """The radial cut order as a doubly linked ring, so that a reduction
    move splices tokens in constant time; -1 is the ring's sentinel."""

    def __init__(self, tokens: list[int]):
        ring = [-1, *tokens]
        self.after = dict(zip(ring, ring[1:] + ring[:1]))
        self.before = {b: a for a, b in self.after.items()}

    def remove(self, t: int) -> None:
        a, b = self.before.pop(t), self.after.pop(t)
        self.after[a] = b
        self.before[b] = a

    def split(self, t: int, inner: int, outer: int) -> None:
        """Replace ``t`` by ``inner`` followed by ``outer``."""
        a, b = self.before.pop(t), self.after.pop(t)
        for x, y in ((a, inner), (inner, outer), (outer, b)):
            self.after[x] = y
            self.before[y] = x

    def tokens(self) -> list[int]:
        out = []
        t = self.after[-1]
        while t != -1:
            out.append(t)
            t = self.after[t]
        return out


class _Net:
    """Mutable split/merge network with exact cut-crossing bookkeeping."""

    def __init__(self):
        self.kind: dict[int, str] = {}
        # eid -> [src_vid, src_slot, dst_vid, dst_slot, tokens]
        self.edges: dict[int, list] = {}
        self.att: dict[tuple[int, str], int] = {}
        self.loop_tokens: list[int] = []  # one token per free loop
        self.cut_order: list[int] = []  # token ids, innermost first
        self._next_v = 0
        self._next_e = 0
        self._next_t = 0

    # -- construction -------------------------------------------------------

    def add_vertex(self, kind: str) -> int:
        vid = self._next_v
        self._next_v += 1
        self.kind[vid] = kind
        return vid

    def add_edge(self, src_vid, src_slot, dst_vid, dst_slot, tokens=()) -> int:
        eid = self._next_e
        self._next_e += 1
        self.edges[eid] = [src_vid, src_slot, dst_vid, dst_slot, list(tokens)]
        self.att[(src_vid, src_slot)] = eid
        self.att[(dst_vid, dst_slot)] = eid
        return eid

    def new_token(self) -> int:
        tid = self._next_t
        self._next_t += 1
        return tid

    def copy(self) -> "_Net":
        out = _Net()
        out.kind = dict(self.kind)
        out.edges = {e: rec[:4] + [list(rec[4])] for e, rec in self.edges.items()}
        out.att = dict(self.att)
        out.loop_tokens = list(self.loop_tokens)
        out.cut_order = list(self.cut_order)
        out._next_v = self._next_v
        out._next_e = self._next_e
        out._next_t = self._next_t
        return out

    def _remove_vertex(self, vid: int) -> None:
        for slot in _SLOTS[self.kind[vid]]:
            self.att.pop((vid, slot), None)
        del self.kind[vid]

    def _drop_edge(self, eid: int) -> None:
        rec = self.edges.pop(eid)
        for key in ((rec[0], rec[1]), (rec[2], rec[3])):
            if self.att.get(key) == eid:
                del self.att[key]

    def _resolve_connectors(self, connectors: list[list]) -> list[int]:
        """Splice edge chains through removed vertices.

        Each connector [ein, eout, tokens] joins the loose dst end of
        ``ein`` to the loose src end of ``eout``, inserting the corridor's
        cut crossings; a chain that closes on itself becomes a free loop.
        Returns the spliced edges that survive, the only edges whose
        records changed.
        """
        kept = []
        for k, (ein, eout, tokens) in enumerate(connectors):
            if ein == eout:
                loop = self.edges[ein][4] + tokens
                if len(loop) != 1:
                    raise AssertionError("free loop must cross the cut exactly once")
                self.loop_tokens.append(loop[0])
                self._drop_edge(ein)
                continue
            keep, gone = self.edges[ein], self.edges[eout]
            keep[2], keep[3] = gone[2], gone[3]
            keep[4] = keep[4] + tokens + gone[4]
            del self.edges[eout]
            self.att[(keep[2], keep[3])] = ein
            kept.append(ein)
            for later in connectors[k + 1 :]:
                if later[0] == eout:
                    later[0] = ein
        return [eid for eid in kept if eid in self.edges]

    # -- reduction moves ----------------------------------------------------

    def _is_bigon(self, vid: int) -> bool:
        """A split whose outputs feed one merge in order, bounding a disk
        (the parallel strands cross the cut equally often)."""
        if self.kind.get(vid) != SPLIT:
            return False
        rl = self.edges[self.att[(vid, "L")]]
        rr = self.edges[self.att[(vid, "R")]]
        return (
            rl[2] == rr[2]
            and self.kind.get(rl[2]) == MERGE
            and rl[3] == "L"
            and rr[3] == "R"
            and len(rl[4]) == len(rr[4])
        )

    def _is_pass(self, eid: int) -> bool:
        """An edge running from a merge into a split."""
        rec = self.edges.get(eid)
        return (
            rec is not None
            and self.kind.get(rec[0]) == MERGE
            and self.kind.get(rec[2]) == SPLIT
        )

    def bigon_moves(self) -> list[int]:
        return [vid for vid in sorted(self.kind) if self._is_bigon(vid)]

    def pass_moves(self) -> list[int]:
        return [eid for eid in sorted(self.edges) if self._is_pass(eid)]

    def apply_bigon(self, split_vid: int, cut: _Cut) -> list[int]:
        el = self.att[(split_vid, "L")]
        er = self.att[(split_vid, "R")]
        merge_vid = self.edges[el][2]
        left_tokens = self.edges[el][4]
        right_tokens = self.edges[er][4]
        for tl, tr in zip(left_tokens, right_tokens):
            # the left strand of the bigon is the outer one at every wrap
            if cut.before[tl] != tr:
                raise AssertionError("bigon strands must cross the cut adjacently")
        for t in left_tokens:
            cut.remove(t)
        ein = self.att[(split_vid, "in")]
        eout = self.att[(merge_vid, "out")]
        corridor = list(right_tokens)
        self._drop_edge(el)
        self._drop_edge(er)
        self._remove_vertex(split_vid)
        self._remove_vertex(merge_vid)
        return self._resolve_connectors([[ein, eout, corridor]])

    def apply_pass(self, eid: int, cut: _Cut) -> list[int]:
        merge_vid, _, split_vid, _, tokens = self.edges[eid]
        left_copies, right_copies = [], []
        for t in tokens:
            # the two replacement strands run in parallel where the edge
            # was; the left one is outer at every cut crossing
            inner, outer = self.new_token(), self.new_token()
            right_copies.append(inner)
            left_copies.append(outer)
            cut.split(t, inner, outer)
        left = [self.att[(merge_vid, "L")], self.att[(split_vid, "L")], left_copies]
        right = [self.att[(merge_vid, "R")], self.att[(split_vid, "R")], right_copies]
        self._drop_edge(eid)
        self._remove_vertex(merge_vid)
        self._remove_vertex(split_vid)
        return self._resolve_connectors([left, right])

    def merge_parallel_loops(self) -> None:
        """Type III: collapse runs of radially adjacent free loops."""
        if len(self.loop_tokens) < 2:
            return
        order = self.radial_items(self._face_orbits())
        drop: set[int] = set()
        prev_loop_token = None
        for kind, payload in order:
            if kind == "loop":
                if prev_loop_token is not None:
                    drop.add(payload)
                prev_loop_token = payload
            else:
                prev_loop_token = None
        if drop:
            self.loop_tokens = [t for t in self.loop_tokens if t not in drop]
            self.cut_order = [t for t in self.cut_order if t not in drop]

    def reduce(self) -> None:
        """Apply the smallest type I move, else the smallest type II, until
        none fits.

        The two lists are lazy min-heaps: a move changes only the edges it
        splices, so those edges and their source vertices are pushed as
        candidates and stale entries are dropped when they reach the top.
        """
        cut = _Cut(self.cut_order)
        bigons, passes = self.bigon_moves(), self.pass_moves()
        while True:
            while bigons and not self._is_bigon(bigons[0]):
                heappop(bigons)
            while passes and not self._is_pass(passes[0]):
                heappop(passes)
            if bigons:
                kind, key = "I", bigons[0]
            elif passes:
                kind, key = "II", passes[0]
            else:
                break
            if kind == "I":
                spliced = self.apply_bigon(key, cut)
            else:
                spliced = self.apply_pass(key, cut)
            for eid in spliced:
                heappush(passes, eid)
                heappush(bigons, self.edges[eid][0])
        self.cut_order = cut.tokens()

    # -- embedding: faces and radial nesting --------------------------------

    def _face_orbits(self) -> dict[tuple[int, int], int]:
        """Map darts (eid, end) to face ids; end 0 = src side, 1 = dst side.

        Faces are orbits of sigma(alpha(dart)); the orbit of a dart is the
        face on the left of that dart when it points away from its vertex,
        so an edge's dst dart carries the face on the inner side of its cut
        crossings (the flow is counterclockwise there).
        """
        edges, kind, att = self.edges, self.kind, self.att
        face_of: dict[tuple[int, int], int] = {}
        next_face = 0
        for start in sorted(edges):
            for end in (0, 1):
                dart = (start, end)
                if dart in face_of:
                    continue
                while dart not in face_of:
                    face_of[dart] = next_face
                    eid, e = dart
                    rec = edges[eid]
                    # alpha: jump to the other end of the edge
                    vid, slot = (rec[2], rec[3]) if e == 0 else (rec[0], rec[1])
                    # sigma: rotate counterclockwise at that vertex
                    nslot = _ROTATION[kind[vid]][slot]
                    neid = att[(vid, nslot)]
                    nrec = edges[neid]
                    dart = (neid, 0 if nrec[0] == vid and nrec[1] == nslot else 1)
                next_face += 1
        return face_of

    def component_edge_sets(self) -> list[set[int]]:
        """Edge sets of the connected components, by least edge id; a
        search from vertex to vertex reads each vertex's slots once."""
        edges, kind, att = self.edges, self.kind, self.att
        seen: set[int] = set()
        comps = []
        for eid in sorted(edges):
            if eid in seen:
                continue
            comp = set()
            reached = {edges[eid][0]}
            stack = list(reached)
            while stack:
                vid = stack.pop()
                for slot in _SLOTS[kind[vid]]:
                    nxt = att[(vid, slot)]
                    if nxt not in comp:
                        comp.add(nxt)
                        rec = edges[nxt]
                        for w in (rec[0], rec[2]):
                            if w not in reached:
                                reached.add(w)
                                stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def radial_items(self, faces: dict[tuple[int, int], int]) -> list[tuple[str, object]]:
        """Components and free loops sorted innermost to outermost, given
        the face of every dart (:meth:`_face_orbits`).

        One walk outward along the cut gives each component the positions
        of its own crossings and, in ``gaps``, the face of that component
        which each stretch of the cut between them lies in: the hole face
        before the first, the outer face after the last.
        """
        comps = []
        comp_of = {}
        for comp in self.component_edge_sets():
            c = {"edges": comp, "cross": [], "gaps": []}
            comps.append(c)
            for eid in comp:
                comp_of[eid] = c
        owner = {t: eid for eid, rec in self.edges.items() for t in rec[4]}
        pos = {}
        for i, t in enumerate(self.cut_order):
            pos[t] = i
            if t not in owner:
                continue
            eid = owner[t]
            c = comp_of[eid]
            if not c["gaps"]:
                c["gaps"].append(faces[(eid, 1)])  # the hole face of this component
            elif c["gaps"][-1] != faces[(eid, 1)]:
                raise AssertionError("cut walk out of step with faces")
            c["cross"].append(i)
            c["gaps"].append(faces[(eid, 0)])
        for c in comps:
            if not c["cross"]:
                raise AssertionError("a component must wind around the hole")
            outer_e = owner[self.cut_order[c["cross"][-1]]]
            if c["gaps"][-1] != faces[(outer_e, 0)]:
                raise AssertionError("cut walk must end in the outer face")
            c["min_pos"] = c["cross"][0]
            c["hole"] = c["gaps"][0]
            c["outer"] = c["gaps"][-1]

        items = [("component", c) for c in comps]
        items += [("loop", t) for t in self.loop_tokens]

        def item_pos(item) -> int:
            return item[1]["min_pos"] if item[0] == "component" else pos[item[1]]

        def inside(item, comp) -> bool:
            return comp["gaps"][bisect_left(comp["cross"], item_pos(item))] == comp["hole"]

        def cmp(a, b) -> int:
            if a is b:
                return 0
            if a[0] == "loop" and b[0] == "loop":
                return -1 if item_pos(a) < item_pos(b) else 1
            if b[0] == "component" and inside(a, b[1]):
                return -1
            if a[0] == "component" and inside(b, a[1]):
                return 1
            if a[0] == "component" and b[0] == "component":
                raise AssertionError("disjoint winding components must nest")
            return 1 if a[0] == "loop" else -1

        return sorted(items, key=cmp_to_key(cmp))

    # -- invariants ----------------------------------------------------------

    def zero_winding_acyclic(self) -> bool:
        """Every directed cycle winds positively iff the subgraph of edges
        that never cross the cut is acyclic."""
        # Kahn's peel: repeatedly drop a vertex with no incoming edge left
        adj: dict[int, list[int]] = {v: [] for v in self.kind}
        indegree = dict.fromkeys(self.kind, 0)
        for rec in self.edges.values():
            if not rec[4]:
                adj[rec[0]].append(rec[2])
                indegree[rec[2]] += 1
        ready = [v for v, k in indegree.items() if k == 0]
        peeled = 0
        while ready:
            v = ready.pop()
            peeled += 1
            for w in adj[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
        return peeled == len(adj)

    # -- canonical form -------------------------------------------------------

    def _entry(self, vid: int, edge_ix: dict[int, int], edge_order: list[int]) -> tuple:
        """The entry of ``vid`` in a walk: its kind and the numbers of its
        slot edges in slot order, numbering the unnumbered ones on from
        ``len(edge_order)``."""
        kind = self.kind[vid]
        ixs = []
        for slot in _SLOTS[kind]:
            nxt = self.att[(vid, slot)]
            ix = edge_ix.get(nxt)
            if ix is None:
                ix = edge_ix[nxt] = len(edge_order)
                edge_order.append(nxt)
            ixs.append(ix)
        return (kind, tuple(ixs))

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

        # a walk's first entry is that of the head of its start edge
        firsts = [self._entry(self.edges[e][2], {e: 0}, [e]) for e in starts]
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
        faces = self._face_orbits()
        face_darts: dict[int, list] = {}
        for dart, face in faces.items():
            face_darts.setdefault(face, []).append(dart)
        items = []
        for kind, payload in self.radial_items(faces):
            if kind == "loop":
                items.append("O")
            else:
                marks = (face_darts[payload["hole"]], face_darts[payload["outer"]])
                items.append(self._min_signature(sorted(payload["edges"]), marks))
        return tuple(items)


class _Walk:
    """The traversal signature of a component from one start edge, computed
    only as far as a comparison asks.

    Edges are visited breadth first from ``start``; a vertex, when first
    reached, numbers its unnumbered slot edges in slot order, and its entry
    (kind, slot edge numbers) is then final.  The signature is the vertex
    entries, the windings reduced by the gauge ``psi`` of the spanning
    tree of first visits, and for each marked face the least (edge number,
    end) among its darts.
    """

    def __init__(self, net: _Net, start: int):
        self.net = net
        self.edge_ix = {start: 0}
        self.edge_order = [start]
        self.seen: set[int] = set()
        self.verts: list[tuple] = []
        self.psi: dict[int, int] = {}
        self.pos = 0
        self.sig: tuple | None = None

    def entry(self, k: int) -> tuple | None:
        """The k-th vertex entry, or None past the last vertex."""
        net, edge_ix, edge_order, psi = self.net, self.edge_ix, self.edge_order, self.psi
        while len(self.verts) <= k and self.pos < len(edge_order):
            src_v, _, dst_v, _, tokens = net.edges[edge_order[self.pos]]
            self.pos += 1
            w = len(tokens)
            if src_v not in psi and dst_v not in psi:
                psi[src_v] = 0
            if src_v in psi and dst_v not in psi:
                psi[dst_v] = psi[src_v] + w
            elif dst_v in psi and src_v not in psi:
                psi[src_v] = psi[dst_v] - w
            for vid in (dst_v, src_v):
                if vid not in self.seen:
                    self.seen.add(vid)
                    self.verts.append(net._entry(vid, edge_ix, edge_order))
        return self.verts[k] if k < len(self.verts) else None

    def signature(self, marks: tuple[list, list] | None) -> tuple:
        """The whole signature; ``marks`` lists the darts of the hole face
        and of the outer face, or is None for a square diagram.  A walk
        serves one component, so the first result is kept."""
        if self.sig is None:
            self.entry(len(self.net.kind))
            edges, psi = self.net.edges, self.psi
            winds = tuple(
                len(edges[eid][4]) + psi[edges[eid][0]] - psi[edges[eid][2]]
                for eid in self.edge_order
            )
            self.sig = (tuple(self.verts), winds)
            if marks is not None:
                mark_ids = tuple(
                    min((self.edge_ix[eid], end) for eid, end in darts) for darts in marks
                )
                self.sig += (mark_ids,)
        return self.sig


def _format_code(form: tuple, loops: int) -> str:
    parts = []
    for item in form:
        if item == "O":
            parts.append("O")
            continue
        verts, winds, marks = item
        vtxt = ";".join(f"{k[0]}:" + ",".join(map(str, ixs)) for k, ixs in verts)
        wtxt = ",".join(map(str, winds))
        mtxt = ",".join(f"{e}{'st'[d]}" for e, d in marks)
        parts.append(f"[{vtxt}|{wtxt}|{mtxt}]")
    return (" ".join(parts) if parts else "-") + f" loops={loops}"


class StrandDiagram:
    """Immutable wrapper around a square split/merge network."""

    __slots__ = ("_net", "_source", "_sink")

    def __init__(self, net: _Net, source: int, sink: int):
        self._net = net
        self._source = source
        self._sink = sink

    @property
    def split_count(self) -> int:
        return sum(1 for k in self._net.kind.values() if k == SPLIT)

    @property
    def merge_count(self) -> int:
        return sum(1 for k in self._net.kind.values() if k == MERGE)

    def canonical_signature(self) -> tuple:
        return _Walk(self._net, self._net.att[(self._source, "out")]).signature(None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StrandDiagram)
            and self.canonical_signature() == other.canonical_signature()
        )

    def __hash__(self) -> int:
        return hash(self.canonical_signature())

    def __repr__(self) -> str:
        return f"StrandDiagram(splits={self.split_count}, merges={self.merge_count})"


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
        return sum(1 for k in self._net.kind.values() if k == SPLIT)

    @property
    def merge_count(self) -> int:
        return sum(1 for k in self._net.kind.values() if k == MERGE)

    @property
    def is_reduced(self) -> bool:
        if self._net.bigon_moves() or self._net.pass_moves():
            return False
        probe = self._net.copy()
        probe.merge_parallel_loops()
        return len(probe.loop_tokens) == len(self._net.loop_tokens)

    def winding_condition_holds(self) -> bool:
        return self._net.zero_winding_acyclic()

    def to_json(self) -> str:
        net = self._net
        loops = set(net.loop_tokens)
        owner = {}
        for eid, rec in sorted(net.edges.items()):
            for t in rec[4]:
                owner[t] = eid
        return json.dumps(
            {
                "schema": 1,
                "vertices": [
                    {"id": v, "kind": net.kind[v],
                     "edges": {slot: net.att[(v, slot)] for slot in _SLOTS[net.kind[v]]}}
                    for v in sorted(net.kind)
                ],
                "edges": [
                    {"id": e, "src": rec[0:2], "dst": rec[2:4], "winding": len(rec[4])}
                    for e, rec in sorted(net.edges.items())
                ],
                "cut_sequence": [
                    {"edge": owner[t]} if t in owner else {"loop": True}
                    for t in net.cut_order
                    if t in owner or t in loops
                ],
                "free_loops": len(net.loop_tokens),
            }
        )

    def __repr__(self) -> str:
        return (
            f"AnnularStrandDiagram(splits={self.split_count}, "
            f"merges={self.merge_count}, free_loops={self.free_loops})"
        )


def strand_from_pair(p: TreePair) -> StrandDiagram:
    """Source tree as splits above, target tree as merges below, leaves glued."""
    net = _Net()
    source = net.add_vertex(SOURCE)
    sink = net.add_vertex(SINK)
    if p.leaf_count == 1:
        net.add_edge(source, "out", sink, "in")
        return StrandDiagram(net, source, sink)

    # vertices: the source tree's nodes in preorder as splits, then the
    # target tree's as merges
    up_nodes, up_leaf = node_table(p.source)
    lo_nodes, lo_leaf = node_table(p.target)
    up = [net.add_vertex(SPLIT) for _ in up_nodes]
    lo = [net.add_vertex(MERGE) for _ in lo_nodes]
    net.add_edge(source, "out", up[0], "in")
    net.add_edge(lo[0], "out", sink, "in")
    # internal tree edges
    for i, nd in enumerate(up_nodes[1:], 1):
        net.add_edge(up[nd.parent], nd.side, up[i], "in")
    for i, nd in enumerate(lo_nodes[1:], 1):
        net.add_edge(lo[i], "out", lo[nd.parent], nd.side)
    # leaf strands
    for (ui, uside), (li, lside) in zip(up_leaf, lo_leaf):
        net.add_edge(up[ui], uside, lo[li], lside)
    return StrandDiagram(net, source, sink)


def concatenate(a: StrandDiagram, b: StrandDiagram) -> StrandDiagram:
    """Glue the sink of ``a`` to the source of ``b`` and reduce."""
    net = a._net.copy()
    offset_v = net._next_v
    offset_e = net._next_e
    bn = b._net
    for vid, kind in bn.kind.items():
        net.kind[vid + offset_v] = kind
    net._next_v += bn._next_v
    for eid, rec in bn.edges.items():
        net.edges[eid + offset_e] = [rec[0] + offset_v, rec[1], rec[2] + offset_v, rec[3], []]
    for (vid, slot), eid in bn.att.items():
        net.att[(vid + offset_v, slot)] = eid + offset_e
    net._next_e += bn._next_e

    sink_a = a._sink
    source_b = b._source + offset_v
    ein = net.att[(sink_a, "in")]
    eout = net.att[(source_b, "out")]
    net._remove_vertex(sink_a)
    net._remove_vertex(source_b)
    net._resolve_connectors([[ein, eout, []]])
    net.reduce()
    return StrandDiagram(net, a._source, b._sink + offset_v)


def _close(net: _Net, source: int, sink: int) -> AnnularStrandDiagram:
    """:func:`annular_closure` of the diagram that ``net`` holds, made in
    place."""
    se = net.att[(source, "out")]
    te = net.att[(sink, "in")]
    token = net.new_token()
    net.cut_order = [token]
    if se == te:
        net._remove_vertex(source)
        net._remove_vertex(sink)
        net._drop_edge(se)
        net.loop_tokens.append(token)
        return AnnularStrandDiagram(net)
    top_rec = net.edges[se]
    bot_rec = net.edges[te]
    src = (bot_rec[0], bot_rec[1])
    dst = (top_rec[2], top_rec[3])
    net._drop_edge(se)
    net._drop_edge(te)
    net._remove_vertex(source)
    net._remove_vertex(sink)
    net.add_edge(src[0], src[1], dst[0], dst[1], [token])
    return AnnularStrandDiagram(net)


def annular_closure(s: StrandDiagram) -> AnnularStrandDiagram:
    """Identify top and bottom; the gluing edge crosses the cut once."""
    return _close(s._net.copy(), s._source, s._sink)


def reduce_annular(a: AnnularStrandDiagram) -> AnnularStrandDiagram:
    """Apply reductions until none fits; the result does not depend on the
    order (asserted empirically by the order-fuzzing suite)."""
    net = a._net.copy()
    net.reduce()
    net.merge_parallel_loops()
    return AnnularStrandDiagram(net)


def canonical_code(a: AnnularStrandDiagram) -> str:
    """Printable canonical code; equal codes iff equal embedded diagrams."""
    return _format_code(a._net.canonical_form(), a.free_loops)


def component_count(a: AnnularStrandDiagram) -> int:
    """Connected components, counting each free loop as one."""
    return len(a._net.component_edge_sets()) + a.free_loops


def annular_of(p: TreePair) -> AnnularStrandDiagram:
    s = strand_from_pair(p)
    return _close(s._net, s._source, s._sink)


def reduced_annular_of(p: TreePair) -> AnnularStrandDiagram:
    return reduce_annular(annular_of(p))


def are_conjugate(g: TreePair, h: TreePair) -> bool:
    """Conjugacy test: reduced annular closures have equal canonical codes."""
    return canonical_code(reduced_annular_of(g)) == canonical_code(reduced_annular_of(h))
