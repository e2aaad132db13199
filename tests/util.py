"""Shared helpers for the test suite."""

from random import Random

from thomplink import (
    DELTA,
    ONE,
    AnnularStrandDiagram,
    LaurentPolynomial,
    LinkDiagram,
    TreePair,
    Word,
    direct_link,
    identity,
    invert,
    make_generator,
    multiply,
    random_element,
    reduce_pair,
)
from thomplink.links import _join
from thomplink.strand import _TURN, MERGE, SPLIT, annular_of
from thomplink.trees import BinaryTree, _subtree_end, _tree, caret, graft, random_tree, tree_from_bits


def reference_table(bits: str):
    """Recursive reference for a tree's node spans: per node in preorder
    (first, gap, end, parent, side), and the (node, side) holding each leaf;
    a lone leaf is held by (-1, None)."""
    nodes, holders = [], []

    def walk(i, leaf, parent, side):  # returns (next bit, next leaf)
        if bits[i] == "0":
            holders.append((parent, side))
            return i + 1, leaf + 1
        me = len(nodes)
        nodes.append(None)
        j, gap = walk(i + 1, leaf, me, "L")
        k, end = walk(j, gap, me, "R")
        nodes[me] = (leaf, gap, end, parent, side)
        return k, end

    walk(0, 0, -1, None)
    return nodes, holders


# Crossing slot layout of the direct link (counterclockwise, understrand at
# slots 0 and 2):
# source-tree node: (parent edge, left child, gap edge, right child)
# target-tree node: (parent edge, right child, gap edge, left child)
_SRC_SLOT = {"parent": 0, "L": 1, "gap": 2, "R": 3}
_TGT_SLOT = {"parent": 0, "R": 1, "gap": 2, "L": 3}


def reference_direct_link(p: TreePair) -> LinkDiagram:
    """The direct link built from :func:`reference_table` records, arc by
    arc: the leaf strands, each tree's internal edges, one edge through
    each gap and the closure edge joining the two roots."""
    n = p.leaf_count
    if n == 1:
        return LinkDiagram((), free_loops=1)
    up_nodes, up_leaf = reference_table(p.source.bits)
    lo_nodes, lo_leaf = reference_table(p.target.bits)
    shift = len(up_nodes)
    crossings: list[list] = [[None] * 4 for _ in range(shift + len(lo_nodes))]
    arc = 0
    for (ui, uside), (li, lside) in zip(up_leaf, lo_leaf):
        crossings[ui][_SRC_SLOT[uside]] = arc
        crossings[shift + li][_TGT_SLOT[lside]] = arc
        arc += 1
    for nodes, base, slots in ((up_nodes, 0, _SRC_SLOT), (lo_nodes, shift, _TGT_SLOT)):
        for i, (_, _, _, parent, side) in enumerate(nodes[1:], base + 1):
            crossings[i][slots["parent"]] = arc
            crossings[base + parent][slots[side]] = arc
            arc += 1
    up_gap = {nd[1]: i for i, nd in enumerate(up_nodes)}
    lo_gap = {nd[1]: shift + i for i, nd in enumerate(lo_nodes)}
    for gap in range(1, n):
        crossings[up_gap[gap]][_SRC_SLOT["gap"]] = arc
        crossings[lo_gap[gap]][_TGT_SLOT["gap"]] = arc
        arc += 1
    crossings[0][_SRC_SLOT["parent"]] = arc
    crossings[shift][_TGT_SLOT["parent"]] = arc
    return LinkDiagram(crossings, free_loops=0)


_CW, _CCW = 0, 1
_L, _R = 0, 1


def reference_medial_link(vertex_count: int, edges) -> LinkDiagram:
    """The medial link of a signed chord diagram built from edge records and
    a dict of corner strands: ``edges`` are ``(half, left, right)`` with half
    "U" (above the line, positive) or "L" (below, negative), and crossing i
    is edge i."""
    # Rotation system: ends around each vertex in counterclockwise order,
    # starting just above the +x direction.  Upper arcs leave vertically,
    # nesting resolves ties: at a left endpoint inner arcs sit clockwise of
    # outer ones, at a right endpoint the opposite; the lower half mirrors.
    # ul/ur: upper arcs leaving v rightward/leftward, keyed by their far
    # end; dr/dl: the same below, in reverse.
    ul = [[] for _ in range(vertex_count)]
    ur = [[] for _ in range(vertex_count)]
    dr = [[] for _ in range(vertex_count)]
    dl = [[] for _ in range(vertex_count)]
    for i, (half, left, right) in enumerate(edges):
        at_left, at_right = (ul, ur) if half == "U" else (dl, dr)
        at_left[left].append((right, i))
        at_right[right].append((left, i))
    rotations = [
        [(i, _L) for _, i in sorted(ul[v])]
        + [(i, _R) for _, i in sorted(ur[v])]
        + [(i, _R) for _, i in sorted(dr[v], reverse=True)]
        + [(i, _L) for _, i in sorted(dl[v], reverse=True)]
        for v in range(vertex_count)
    ]
    # Corner strands: between cyclically consecutive ends h, h' the medial
    # strand joins the ccw port of h to the cw port of h'.
    arc_of: dict[tuple[int, int, int], int] = {}
    free_loops = 0
    next_arc = 0
    for rot in rotations:
        if not rot:
            free_loops += 1
        for q, (ei, end) in enumerate(rot):
            ej, end2 = rot[(q + 1) % len(rot)]
            arc_of[(ei, end, _CCW)] = arc_of[(ej, end2, _CW)] = next_arc
            next_arc += 1
    crossings = []
    for i, (half, _, _) in enumerate(edges):
        lcw, lccw = arc_of[(i, _L, _CW)], arc_of[(i, _L, _CCW)]
        rcw, rccw = arc_of[(i, _R, _CW)], arc_of[(i, _R, _CCW)]
        crossings.append((lccw, lcw, rccw, rcw) if half == "U" else (lcw, rccw, rcw, lccw))
    return LinkDiagram(crossings, free_loops)


def graft_element(p: TreePair, leaf: int, g: TreePair) -> TreePair:
    """Insert the diagram of ``g`` at a shared leaf of ``p``'s diagram."""
    return TreePair(graft(p.source, leaf, g.source), graft(p.target, leaf, g.target))


def unreduced_pair(rng: Random, leaves: int) -> TreePair:
    return TreePair(random_tree(leaves, rng), random_tree(leaves, rng))


def with_kink(rng: Random, d: LinkDiagram) -> LinkDiagram:
    """Cut one arc of ``d`` and join the cut through a new crossing that
    holds a fresh arc at two of its slots."""
    crossings = [list(c) for c in d.crossings]
    top = max(max(c) for c in crossings)
    cut, loop = top + 1, top + 2
    c = rng.choice(crossings)
    slot = rng.randrange(4)
    arc, c[slot] = c[slot], cut
    slots = [arc, cut, loop, loop]
    rng.shuffle(slots)
    crossings.insert(rng.randrange(len(crossings) + 1), slots)
    return LinkDiagram(crossings, d.free_loops)


def _carets(bits: str) -> set[int]:
    """Indices ``i`` such that leaves ``i`` and ``i + 1`` are siblings."""
    runs = bits.split("0")
    return {i for i in range(len(runs) - 2) if runs[i].endswith("1") and not runs[i + 1]}


def _remove_caret(bits: str, i: int) -> str:
    """Collapse the caret on leaves ``i`` and ``i + 1``: its 100 becomes 0."""
    runs = bits.split("0")
    return "0".join(runs[:i] + [runs[i][:-1]] + runs[i + 2 :])


def rescan_reduce_pair(p: TreePair) -> TreePair:
    """Reduction that rescans both trees for their common carets after each
    removal and removes the leftmost."""
    source, target = p.source.bits, p.target.bits
    while True:
        shared = _carets(source) & _carets(target)
        if not shared:
            return TreePair(tree_from_bits(source), tree_from_bits(target))
        i = min(shared)
        source, target = _remove_caret(source, i), _remove_caret(target, i)


# The reference product: the least common refinement of p.target and
# q.source built as a tree, then cut apart along each of them

def split_along(refined: BinaryTree, base: BinaryTree) -> list[BinaryTree]:
    """Decompose ``refined`` along ``base``: the list of subtrees hanging at
    the positions of ``base``'s leaves.  ``refined`` must be an expansion of
    ``base`` (``graft_all(base, split_along(refined, base)) == refined``)."""
    bits = refined.bits
    parts: list[BinaryTree] = []
    i = 0
    for b in base.bits:
        if b == "0":
            end = _subtree_end(bits, i)
            parts.append(_tree(bits[i:end]))
            i = end
        elif bits[i] == "1":
            i += 1
        else:
            raise ValueError("first tree does not refine the second")
    return parts


def common_refinement(a: BinaryTree, b: BinaryTree) -> BinaryTree:
    """Least common expansion of two trees: walk both preorders in step; where
    one tree has a leaf, copy the other's subtree."""
    x, y = a.bits, b.bits
    out: list[str] = []
    i = j = 0
    while i < len(x):
        if x[i] == "0":
            end = _subtree_end(y, j)
            out.append(y[j:end])
            i, j = i + 1, end
        elif y[j] == "0":
            end = _subtree_end(x, i)
            out.append(x[i:end])
            i, j = end, j + 1
        else:
            out.append("1")
            i, j = i + 1, j + 1
    return _tree("".join(out))


def _power(p: TreePair, k: int) -> TreePair:
    """``p`` to the positive power ``k``, by repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = p if result is None else multiply(result, p)
        k >>= 1
        if not k:
            return result
        p = multiply(p, p)


def factor_product(w: Word) -> TreePair:
    """The tree pair of a word multiplied out one factor at a time, each
    generator raised to its power by repeated squaring."""
    acc = identity()
    for index, exponent in w.factors:
        gen = make_generator(index)
        if exponent < 0:
            gen = invert(gen)
        acc = multiply(acc, _power(gen, abs(exponent)))
    return acc


def fast_conjugate_shape(g: TreePair, x_index: int) -> TreePair:
    """Caret-attachment form of ``g x_i g^-1`` for positive ``g``.

    For ``x0`` the conjugate's source is g's source tree with a caret on the
    leftmost leaf and its target the same tree with a caret on the rightmost
    leaf; for ``x1`` the source caret goes on the second leaf from the left.
    """
    base = reduce_pair(g).source
    source_leaf = 0 if x_index == 0 else 1
    return TreePair(
        graft(base, source_leaf, caret()),
        graft(base, base.leaf_count - 1, caret()),
    )


# The step-wise reduction moves, the reference for the moves that
# strand._Net.reduce applies inline: each move collects connectors that
# join the edges into the removed pair to the edges out of it, and splices
# them one by one.

class Cut:
    """The radial cut order as a doubly linked list over token ids; -1 ends
    it on both sides, and ``first`` is the innermost token."""

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


def remove_vertex(net, vid: int) -> None:
    net.kind[vid] = -1
    net.att[3 * vid : 3 * vid + 3] = (-1, -1, -1)


def _drop_edge(net, eid: int) -> None:
    for d in (net.tail[eid], net.head[eid]):
        if net.att[d] == eid:
            net.att[d] = -1
    net.tail[eid] = net.head[eid] = -1


def resolve_connectors(net, connectors: list[list]) -> list[int]:
    """Splice edge chains through removed vertices.

    Each connector [ein, eout, tokens] joins the loose head of ``ein`` to
    the loose tail of ``eout``, inserting the corridor's cut crossings; a
    chain that closes on itself becomes a free loop.  Returns the spliced
    edges that survive, the only edges whose records changed.
    """
    tail, head, toks = net.tail, net.head, net.toks
    kept = []
    for k, (ein, eout, tokens) in enumerate(connectors):
        if ein == eout:
            loop = toks[ein] + tokens
            if len(loop) != 1:
                raise AssertionError("free loop must cross the cut exactly once")
            net.loop_tokens.append(loop[0])
            _drop_edge(net, ein)
            continue
        end = head[ein] = head[eout]
        toks[ein] = toks[ein] + tokens + toks[eout]
        tail[eout] = head[eout] = -1
        net.att[end] = ein
        kept.append(ein)
        for later in connectors[k + 1 :]:
            if later[0] == eout:
                later[0] = ein
    return [eid for eid in kept if tail[eid] >= 0]


def apply_bigon(net, split_vid: int, cut: Cut) -> list[int]:
    """Type I at the split ``split_vid``; returns the spliced edges."""
    att = net.att
    el, er = att[3 * split_vid + 1], att[3 * split_vid + 2]
    merge_vid = net.head[el] // 3
    left_tokens, right_tokens = net.toks[el], net.toks[er]
    for tl, tr in zip(left_tokens, right_tokens):
        # the left strand of the bigon is the outer one at every wrap
        if cut.before[tl] != tr:
            raise AssertionError("bigon strands must cross the cut adjacently")
    for t in left_tokens:
        cut.remove(t)
    ein, eout = att[3 * split_vid], att[3 * merge_vid + 2]
    _drop_edge(net, el)
    _drop_edge(net, er)
    remove_vertex(net, split_vid)
    remove_vertex(net, merge_vid)
    return resolve_connectors(net, [[ein, eout, right_tokens]])


def apply_pass(net, eid: int, cut: Cut) -> list[int]:
    """Type II at the edge ``eid``; returns the spliced edges."""
    att = net.att
    merge_vid, split_vid = net.tail[eid] // 3, net.head[eid] // 3
    left_copies, right_copies = [], []
    for t in net.toks[eid]:
        # the two replacement strands run in parallel where the edge was;
        # the left one is outer at every cut crossing
        inner, outer = net.token_count, net.token_count + 1
        net.token_count += 2
        right_copies.append(inner)
        left_copies.append(outer)
        cut.split(t, inner, outer)
    m, s = 3 * merge_vid, 3 * split_vid
    left = [att[m], att[s + 1], tuple(left_copies)]
    right = [att[m + 1], att[s + 2], tuple(right_copies)]
    _drop_edge(net, eid)
    remove_vertex(net, merge_vid)
    remove_vertex(net, split_vid)
    return resolve_connectors(net, [left, right])


def bigon_moves(net) -> list[int]:
    """The type I moves of the whole net: the splits whose outputs feed one
    merge in order, bounding a disk (the parallel strands cross the cut
    equally often)."""
    kind, att, head, toks = net.kind, net.att, net.head, net.toks
    return [
        v for v, k in enumerate(kind)
        if k == SPLIT
        and head[att[3 * v + 2]] == head[att[3 * v + 1]] + 1
        and len(toks[att[3 * v + 1]]) == len(toks[att[3 * v + 2]])
    ]


def pass_moves(net) -> list[int]:
    """The type II moves of the whole net: the edges that run from a merge
    into a split."""
    kind, head = net.kind, net.head
    return [e for e, t in enumerate(net.tail) if t >= 0 and kind[t // 3] == MERGE and kind[head[e] // 3] == SPLIT]


def parallel_loops(net) -> set[int]:
    """The tokens of the free loops that type III drops: each one whose
    radial predecessor, the same as its predecessor on the cut, is a free
    loop too."""
    owners = net.cut_owners()
    return {t for t, a, b in zip(net.cut_order[1:], owners, owners[1:]) if a < 0 and b < 0}


def merge_parallel_loops(net) -> None:
    """Type III: collapse runs of radially adjacent free loops."""
    drop = parallel_loops(net)
    net.loop_tokens = [t for t in net.loop_tokens if t not in drop]
    net.cut_order = [t for t in net.cut_order if t not in drop]


def rescan_moves(net, rng=None) -> None:
    """Types I and II only, in place, rescanning every vertex and edge for
    moves after each one; with ``rng``, it applies a random one of the
    sorted type I moves followed by the sorted type II moves.  Runs of free
    loops are left for type III."""
    cut = Cut(net.cut_order)
    while True:
        moves = [("I", v) for v in bigon_moves(net)] + [("II", e) for e in pass_moves(net)]
        if not moves:
            break
        kind, key = rng.choice(moves) if rng is not None else moves[0]
        if kind == "I":
            apply_bigon(net, key, cut)
        else:
            apply_pass(net, key, cut)
    net.cut_order = cut.tokens()


def rescan_reduced(a, rng=None):
    """Reduction by :func:`rescan_moves`, then type III."""
    net = a._net.copy()
    rescan_moves(net, rng)
    merge_parallel_loops(net)
    return AnnularStrandDiagram(net)


def face_orbits(net) -> tuple[list[int], list[list[int]]]:
    """The face id of every dart (-1 at an empty one), and the darts of
    every face: the whole-diagram reference for the faces that the
    canonical code traces from the cut.

    Faces are orbits of sigma(alpha(dart)): alpha jumps to the other end of
    the dart's edge and sigma turns counterclockwise around that vertex.
    The orbit of a dart is the face on the left of its edge when the edge
    points away from the dart's vertex, so the head dart of an edge carries
    the face on the inner side of its cut crossings (the flow is
    counterclockwise there).
    """
    kind, att, tail, head = net.kind, net.att, net.tail, net.head
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


def component_edges(net) -> list[list[int]]:
    """The edges of each connected component in ascending order, the
    components by least edge id, found by a search from vertex to vertex
    that starts at every edge not yet reached."""
    att, tail, head = net.att, net.tail, net.head
    comp_of = [-1] * len(net.kind)
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


def winding_condition_holds(a: AnnularStrandDiagram) -> bool:
    """Every directed cycle of ``a`` winds positively, that is, the subgraph
    of edges that never cross the cut is acyclic."""
    net = a._net
    # Kahn's peel: repeatedly drop a vertex with no incoming edge left
    adj: list[list[int]] = [[] for _ in net.kind]
    indegree = [0] * len(net.kind)
    for eid, tail in enumerate(net.tail):
        if tail >= 0 and not net.toks[eid]:
            w = net.head[eid] // 3
            adj[tail // 3].append(w)
            indegree[w] += 1
    ready = [v for v, k in enumerate(net.kind) if k >= 0 and indegree[v] == 0]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for w in adj[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return peeled == len(net.kind) - net.kind.count(-1)


# Square strand diagrams, the concatenation oracle: a planar DAG with one
# source and one sink besides its splits and merges.  The reduction moves
# of an annular net look for splits and merges only, so they serve here.
SOURCE, SINK = 2, 3  # after strand.MERGE and strand.SPLIT
_SLOT_COUNT = {MERGE: 3, SPLIT: 3, SOURCE: 1, SINK: 1}


class SquareDiagram:
    """A split/merge net with its source and sink vertices; equal
    signatures mean equal diagrams."""

    def __init__(self, net, source: int, sink: int):
        self.net, self.source, self.sink = net, source, sink

    def signature(self) -> tuple:
        """The vertex entries of a breadth-first walk from the source's
        edge: each vertex's kind and the walk numbers of its slot edges,
        numbered when first met."""
        net = self.net
        start = net.att[3 * self.source]
        edge_ix, edge_order, seen, verts = {start: 0}, [start], set(), []
        for eid in edge_order:  # grows as vertices are reached
            for vid in (net.head[eid] // 3, net.tail[eid] // 3):
                if vid in seen:
                    continue
                seen.add(vid)
                entry = [net.kind[vid]]
                for nxt in net.att[3 * vid : 3 * vid + _SLOT_COUNT[net.kind[vid]]]:
                    if nxt not in edge_ix:
                        edge_ix[nxt] = len(edge_order)
                        edge_order.append(nxt)
                    entry.append(edge_ix[nxt])
                verts.append(tuple(entry))
        return tuple(verts)

    def __eq__(self, other) -> bool:
        return self.signature() == other.signature()


def _set_edge(net, eid: int, tail: int, head: int) -> None:
    net.tail[eid], net.head[eid] = tail, head
    net.att[tail] = net.att[head] = eid


def square_of(p: TreePair) -> SquareDiagram:
    """The square diagram of ``p``: its annular closure with the closing
    edge cut open into two root edges, at the vertices 0 and 1 that the
    closure leaves unused, which become the source and the sink."""
    net = annular_of(p)._net
    net.kind[:2] = [SOURCE, SINK]
    net.cut_order, net.loop_tokens = [], []
    if p.leaf_count == 1:  # the free loop becomes one edge from source to sink
        net.tail, net.head, net.toks = [-1], [-1], [()]
        _set_edge(net, 0, 0, 3)
    else:
        close = len(net.tail) - 1
        net.toks[close] = ()
        _set_edge(net, 0, 0, net.head[close])
        _set_edge(net, close, net.tail[close], 3)
    return SquareDiagram(net, 0, 1)


def concatenate(a: SquareDiagram, b: SquareDiagram) -> SquareDiagram:
    """Glue the sink of ``a`` to the source of ``b`` and reduce."""
    net = a.net.copy()
    bn = b.net
    offset_v = len(net.kind)
    offset_d = 3 * offset_v
    offset_e = len(net.tail)
    net.kind += bn.kind
    net.att += [eid + offset_e if eid >= 0 else -1 for eid in bn.att]
    net.tail += [d + offset_d if d >= 0 else -1 for d in bn.tail]
    net.head += [d + offset_d if d >= 0 else -1 for d in bn.head]
    net.toks += [()] * len(bn.tail)

    source_b = b.source + offset_v
    ein = net.att[3 * a.sink]
    eout = net.att[3 * source_b]
    remove_vertex(net, a.sink)
    remove_vertex(net, source_b)
    resolve_connectors(net, [[ein, eout, ()]])
    net.reduce()
    return SquareDiagram(net, a.source, b.sink + offset_v)


def random_diagram(rng: Random, max_leaves: int = 8) -> LinkDiagram:
    return direct_link(random_element(rng, max_leaves))


X0 = make_generator(0)
X1 = make_generator(1)


def rescan_bracket(d: LinkDiagram) -> tuple[LaurentPolynomial, int]:
    """The bracket by frontier contraction that rescans every remaining
    crossing for the one with the most open arcs (the earliest on ties) and
    multiplies whole ``LaurentPolynomial`` states; returns the value and the
    most states held after any step."""
    if d.crossing_count == 0:
        return DELTA ** (d.free_loops - 1), 0
    crossings = d.crossings
    remaining = list(range(len(crossings)))
    open_arcs: set[int] = set()
    frontier: tuple[int, ...] = ()
    states: dict[tuple[int, ...], LaurentPolynomial] = {(): ONE}
    peak = 0
    while remaining:
        ci = max(remaining, key=lambda i: sum(a in open_arcs for a in crossings[i]))
        remaining.remove(ci)
        x = crossings[ci]
        names = list(x)
        links: dict[int, int] = {}
        for i, a in enumerate(x):
            if a in open_arcs:
                continue
            names[i] = ~i
            if x.count(a) == 1:
                links[~i], links[a] = a, ~i
            elif x.index(a) < i:
                j = x.index(a)
                links[~i], links[~j] = ~j, ~i
        open_arcs ^= {a for a in x if x.count(a) == 1}
        new_frontier = tuple(sorted(open_arcs))
        last = not remaining
        new_states: dict[tuple[int, ...], LaurentPolynomial] = {}
        for key, poly in states.items():
            for weight, ((s, t), (u, v)) in ((1, ((0, 1), (2, 3))), (-1, ((0, 3), (1, 2)))):
                partner = dict(zip(frontier, key))
                partner.update(links)
                closed = _join(partner, names[s], names[t])
                closed += _join(partner, names[u], names[v])
                term = poly * (DELTA ** (closed - last)).shifted(weight)
                out = tuple(partner[a] for a in new_frontier)
                new_states[out] = new_states[out] + term if out in new_states else term
        states, frontier = new_states, new_frontier
        peak = max(peak, len(states))
    return states[()] * DELTA ** d.free_loops, peak
