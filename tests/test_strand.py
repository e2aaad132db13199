import hashlib
import json
import sys
from functools import cmp_to_key
from heapq import heappop, heappush
from random import Random

from thomplink import (
    AnnularStrandDiagram,
    TreePair,
    annular_component_count,
    are_conjugate,
    canonical_code,
    conjugate,
    element_a,
    from_word,
    g_element,
    h_element,
    h_sequence,
    identity,
    invert,
    make_generator,
    multiply,
    random_element,
    reduce_annular,
    reduce_pair,
)
from thomplink import strand
from thomplink.strand import _SLOTS, _format_code, annular_of
from thomplink.trees import random_tree
from util import (
    X0,
    X1,
    bigon_moves,
    component_edges,
    concatenate,
    face_orbits,
    merge_parallel_loops,
    parallel_loops,
    pass_moves,
    rescan_moves,
    rescan_reduced,
    square_of,
    winding_condition_holds,
)


def reference_signature(net, start, marks):
    """The traversal signature from ``start``, recomputing every face and
    scanning them all for the two marked ones."""

    def slot_edges(vid):
        return [net.att[3 * vid + s] for s in range(len(_SLOTS[net.kind[vid]]))]

    edge_ix = {start: 0}
    edge_order = [start]
    vert_ix = {}
    vert_order = []
    psi = {}
    pos = 0
    while pos < len(edge_order):
        eid = edge_order[pos]
        pos += 1
        src_v, dst_v = net.tail[eid] // 3, net.head[eid] // 3
        w = len(net.toks[eid])
        if src_v not in psi and dst_v not in psi:
            psi[src_v] = 0
        if src_v in psi and dst_v not in psi:
            psi[dst_v] = psi[src_v] + w
        elif dst_v in psi and src_v not in psi:
            psi[src_v] = psi[dst_v] - w
        for vid in (dst_v, src_v):
            if vid in vert_ix:
                continue
            vert_ix[vid] = len(vert_order)
            vert_order.append(vid)
            for nxt in slot_edges(vid):
                if nxt not in edge_ix:
                    edge_ix[nxt] = len(edge_order)
                    edge_order.append(nxt)
    # each vertex entry is kind and three slot edge numbers, all in one flat tuple
    verts = tuple(
        x for vid in vert_order for x in (net.kind[vid], *(edge_ix[nxt] for nxt in slot_edges(vid)))
    )
    winds = tuple(
        len(net.toks[eid]) + psi[net.tail[eid] // 3] - psi[net.head[eid] // 3]
        for eid in edge_order
    )
    faces = face_orbits(net)[0]
    mark_ids = tuple(
        min(
            (edge_ix[eid], end)
            for eid in edge_ix
            for end, dart in enumerate((net.tail[eid], net.head[eid]))
            if faces[dart] == face
        )
        for face in marks
    )
    return (verts, winds, mark_ids)


def reference_code(a):
    """Canonical code by the exhaustive minimum over every start edge."""
    net = a._net
    faces = face_orbits(net)[0]
    items = []
    for item in net.radial_items():
        if len(item) == 1:
            items.append("O")
        else:
            edges, crossed = item
            marks = (faces[net.head[crossed[0]]], faces[net.tail[crossed[-1]]])
            items.append(min(reference_signature(net, e, marks) for e in edges))
    return _format_code(tuple(items), a.free_loops)


def reference_radial_items(net, faces):
    """Components and free loops innermost first, walking the whole cut
    once per component to find the component's face at every position."""
    pos = {t: i for i, t in enumerate(net.cut_order)}
    comps = []
    for comp in component_edges(net):
        token_edge = {t: eid for eid in comp for t in net.toks[eid]}
        ordered = sorted(token_edge, key=pos.get)
        gap_face = []
        current = hole = faces[net.head[token_edge[ordered[0]]]]
        for t in net.cut_order:
            gap_face.append(current)
            if t in token_edge:
                assert current == faces[net.head[token_edge[t]]]
                current = faces[net.tail[token_edge[t]]]
        comps.append({"edges": comp, "min_pos": pos[ordered[0]], "hole": hole,
                      "outer": current, "gap_face": gap_face})

    def item_pos(item):
        return item[1]["min_pos"] if item[0] == "component" else pos[item[1]]

    def inside(item, comp):
        return comp["gap_face"][item_pos(item)] == comp["hole"]

    def cmp(a, b):
        if a is b:
            return 0
        if a[0] == "loop" and b[0] == "loop":
            return -1 if item_pos(a) < item_pos(b) else 1
        if b[0] == "component" and inside(a, b[1]):
            return -1
        if a[0] == "component" and inside(b, a[1]):
            return 1
        assert a[0] != b[0], "disjoint winding components must nest"
        return 1 if a[0] == "loop" else -1

    items = [("component", c) for c in comps] + [("loop", t) for t in net.loop_tokens]
    return sorted(items, key=cmp_to_key(cmp))


def renumbered(a, rng):
    """A copy of ``a`` whose vertex, edge and token ids are permuted at
    random, as is the order of its free loops."""
    net = a._net
    vperm = list(range(len(net.kind)))
    eperm = list(range(len(net.tail)))
    tperm = list(range(net.token_count))
    for perm in (vperm, eperm, tperm):
        rng.shuffle(perm)

    def dart(d):
        return 3 * vperm[d // 3] + d % 3 if d >= 0 else -1

    out = net.copy()
    for v, k in enumerate(net.kind):
        out.kind[vperm[v]] = k
    for d, e in enumerate(net.att):
        out.att[dart(d)] = eperm[e] if e >= 0 else -1
    for e, tokens in enumerate(net.toks):
        out.tail[eperm[e]] = dart(net.tail[e])
        out.head[eperm[e]] = dart(net.head[e])
        out.toks[eperm[e]] = tuple(tperm[t] for t in tokens)
    out.loop_tokens = [tperm[t] for t in net.loop_tokens]
    rng.shuffle(out.loop_tokens)
    out.cut_order = [tperm[t] for t in net.cut_order]
    return AnnularStrandDiagram(out)


def radial_summary(net, faces, items):
    """Each free loop as ("loop", token) and each component as
    ("component", sorted edges, hole face, outer face), read off the items
    of ``net.radial_items()`` or of ``reference_radial_items``."""
    out = []
    for item in items:
        if item[0] == "component":
            c = item[1]
            out.append(("component", sorted(c["edges"]), c["hole"], c["outer"]))
        elif item[0] == "loop":
            out.append(item)
        elif len(item) == 1:
            out.append(("loop", item[0]))
        else:
            edges, crossed = item
            hole, outer = faces[net.head[crossed[0]]], faces[net.tail[crossed[-1]]]
            out.append(("component", sorted(edges), hole, outer))
    return out


def test_identity_strand_and_closure():
    a = annular_of(identity())
    assert a.split_count == 0 and a.merge_count == 0
    assert a.free_loops == 1
    assert annular_component_count(a) == 1
    assert canonical_code(a) == "O loops=1"


def test_vertex_counts():
    a = annular_of(X0)
    assert (a.split_count, a.merge_count) == (2, 2)
    rng = Random(50)
    for _ in range(30):
        p = random_element(rng)
        a = annular_of(p)
        assert a.split_count + a.merge_count == 2 * (p.leaf_count - 1)


def test_closure_of_x0_and_regression():
    a = annular_of(X0)
    assert (a.split_count, a.merge_count) == (2, 2)
    r = reduce_annular(a)
    # regression value computed at build time: one split and one merge joined
    # by an edge, each carrying a winding-1 self-loop; no free loop
    assert (r.split_count, r.merge_count, r.free_loops) == (1, 1, 0)
    assert annular_component_count(r) == 1
    assert r.is_reduced
    assert winding_condition_holds(r)


def test_x0_x1_codes_differ():
    c0 = canonical_code(reduce_annular(annular_of(X0)))
    c1 = canonical_code(reduce_annular(annular_of(X1)))
    assert c0 != c1
    # determinism across recomputation
    assert c0 == canonical_code(reduce_annular(annular_of(X0)))


def test_concatenate_respects_multiplication():
    rng = Random(51)
    idn = square_of(identity())
    assert concatenate(square_of(X0), square_of(invert(X0))) == idn
    for _ in range(50):
        p, q = random_element(rng, 8), random_element(rng, 8)
        assert square_of(multiply(p, q)) == concatenate(square_of(p), square_of(q))
        assert concatenate(square_of(p), idn) == square_of(p)


def test_winding_condition_fuzz():
    rng = Random(52)
    for _ in range(100):
        g = random_element(rng, 10)
        assert winding_condition_holds(annular_of(g))
        assert winding_condition_holds(reduce_annular(annular_of(g)))


def test_vertex_and_edge_numbering_is_pinned():
    # splits then merges, each tree's nodes in preorder; edges: the two
    # root edges, the internal edges of each tree, then the leaf strands
    data = json.loads(annular_of(from_word("x1 x0^-1")).to_json())
    assert [(e["id"], *e["src"], *e["dst"]) for e in data["edges"]] == [
        (2, 2, "R", 3, "in"), (3, 3, "L", 4, "in"), (4, 6, "out", 5, "L"),
        (5, 7, "out", 5, "R"), (6, 2, "L", 6, "L"), (7, 4, "L", 6, "R"),
        (8, 4, "R", 7, "L"), (9, 3, "R", 7, "R"), (10, 5, "out", 2, "in"),
    ]
    # vertices 0 and 1 and edges 0 and 1 are never used; the closing edge
    # is the last one and holds token 0
    assert annular_of(identity()).to_json() == (
        '{"schema": 1, "vertices": [], "edges": [], "cut_sequence": [{"loop": true}], '
        '"free_loops": 1}'
    )
    assert annular_of(X0).to_json() == (
        '{"schema": 1, "vertices": ['
        '{"id": 2, "kind": "split", "edges": {"in": 7, "L": 2, "R": 6}}, '
        '{"id": 3, "kind": "split", "edges": {"in": 2, "L": 4, "R": 5}}, '
        '{"id": 4, "kind": "merge", "edges": {"L": 4, "R": 3, "out": 7}}, '
        '{"id": 5, "kind": "merge", "edges": {"L": 5, "R": 6, "out": 3}}], '
        '"edges": ['
        '{"id": 2, "src": [2, "L"], "dst": [3, "in"], "winding": 0}, '
        '{"id": 3, "src": [5, "out"], "dst": [4, "R"], "winding": 0}, '
        '{"id": 4, "src": [3, "L"], "dst": [4, "L"], "winding": 0}, '
        '{"id": 5, "src": [3, "R"], "dst": [5, "L"], "winding": 0}, '
        '{"id": 6, "src": [2, "R"], "dst": [5, "R"], "winding": 0}, '
        '{"id": 7, "src": [4, "out"], "dst": [2, "in"], "winding": 1}], '
        '"cut_sequence": [{"edge": 7}], "free_loops": 0}'
    )


def test_winding_condition_at_depth():
    a = annular_of(make_generator(1500))
    assert winding_condition_holds(a)
    # without its cut crossing the closing edge makes a zero-winding cycle
    net = a._net.copy()
    net.toks = [()] * len(net.toks)
    assert not winding_condition_holds(AnnularStrandDiagram(net))


def test_conjugation_soundness():
    rng = Random(53)
    for _ in range(30):
        g, w = random_element(rng, 7), random_element(rng, 7)
        assert are_conjugate(g, multiply(multiply(w, g), invert(w)))


def test_product_trace_property():
    rng = Random(54)
    for _ in range(30):
        p, q = random_element(rng, 7), random_element(rng, 7)
        assert are_conjugate(multiply(p, q), multiply(q, p))


def test_reduction_order_confluence():
    rng = Random(55)
    for _ in range(25):
        g = random_element(rng, 8)
        base = canonical_code(reduce_annular(annular_of(g)))
        for j in range(6):
            assert canonical_code(rescan_reduced(annular_of(g), Random(900 + j))) == base


def test_reduction_ids_depend_on_move_order():
    # the code never depends on the move order, but the ids of the surviving
    # vertices and edges may: some orders export another numbering
    g = from_word("x0^2 x3^2 x5^-1 x1^-2")
    base = reduce_annular(annular_of(g))
    others = [rescan_reduced(annular_of(g), Random(i)) for i in range(8)]
    assert {canonical_code(r) for r in others} == {canonical_code(base)}
    assert any(r.to_json() != base.to_json() for r in others)


def test_reduced_input_unchanged():
    r = reduce_annular(annular_of(X0))
    again = reduce_annular(r)
    assert canonical_code(again) == canonical_code(r)


def test_component_count_distinguishes():
    rng = Random(56)
    for _ in range(40):
        g, h = random_element(rng, 8), random_element(rng, 8)
        rg, rh = reduce_annular(annular_of(g)), reduce_annular(annular_of(h))
        if annular_component_count(rg) != annular_component_count(rh):
            assert canonical_code(rg) != canonical_code(rh)


def test_generators_share_one_class():
    # all x_i for i >= 1 are conjugate to each other but not to x0
    assert are_conjugate(make_generator(1), make_generator(2))
    assert are_conjugate(make_generator(2), make_generator(4))
    assert not are_conjugate(make_generator(0), make_generator(3))
    assert not are_conjugate(X0, invert(X0))


def test_loop_position_distinguishes():
    # x1^-1 and x0 x1 x0^-2 reduce to the same abstract graph with the same
    # windings; only the radial position of the free loop differs, so they
    # must get different codes (they have different abelianizations)
    from thomplink import from_word

    p1 = from_word("x1^-1")
    p2 = from_word("x0 x1 x0^-2")
    c1 = canonical_code(reduce_annular(annular_of(p1)))
    c2 = canonical_code(reduce_annular(annular_of(p2)))
    assert c1 != c2
    assert not are_conjugate(p1, p2)


def test_code_collisions_respect_abelianization():
    # elements with equal codes are claimed conjugate, so their images in
    # the abelianization (exponent sum of x0, total of the rest) must agree
    from thomplink import to_word

    def ab(p):
        w = to_word(p)
        return (
            sum(e for i, e in w.factors if i == 0),
            sum(e for i, e in w.factors if i >= 1),
        )

    rng = Random(57)
    by_code = {}
    for _ in range(200):
        g = random_element(rng, 6)
        code = canonical_code(reduce_annular(annular_of(g)))
        if code in by_code:
            assert ab(by_code[code]) == ab(g), code
        else:
            by_code[code] = g


def test_json_export():
    data = json.loads(reduce_annular(annular_of(X0)).to_json())
    assert data["schema"] == 1
    assert data["free_loops"] == 0
    kinds = sorted(v["kind"] for v in data["vertices"])
    assert kinds == ["merge", "split"]
    assert sum(e["winding"] for e in data["edges"]) >= 1


def test_cut_holds_live_edges_and_loops():
    # closures, their type I/II reductions and their full reductions: the
    # cut holds exactly the tokens of live edges and free loops, so the
    # JSON lists one entry per cut token
    rng = Random(63)
    for _ in range(300):
        a = annular_of(random_element(rng, 30))
        partial = a._net.copy()
        rescan_moves(partial)
        for net in (a._net, partial, reduce_annular(a)._net):
            live = [t for eid, tokens in enumerate(net.toks) if net.tail[eid] >= 0 for t in tokens]
            assert sorted(net.cut_order) == sorted(live + net.loop_tokens)
            data = json.loads(AnnularStrandDiagram(net).to_json())
            assert len(data["cut_sequence"]) == len(net.cut_order)


def test_fast_engine_matches_exhaustive_references():
    # random reduced diagrams, and powers whose diagrams are symmetric, so
    # that the canonical search skips automorphic starts
    rng = Random(58)
    elements = [random_element(rng, 70) for _ in range(300)]
    for n in range(1, 25):
        elements += [from_word(f"x0^{n}"), from_word(f"x1^{n}"), from_word("x0 x1 " * n)]
        # near ties: one factor breaks the symmetry of a power
        elements += [from_word(f"x0^{n} x1"), from_word(f"x1^{n} x0^-1"), from_word("x0 x1 " * n + "x2")]
    # powers, whose automorphisms need not be generated by the first whole
    # tie found, and a 2-fold symmetric family that is near-tied
    rng = Random(59)
    for g in [random_element(rng, 16) for _ in range(30)]:
        square = multiply(g, g)
        elements += [square, multiply(square, g), multiply(square, square)]
    elements += [from_word(f"x0^{m} x1 x0^{m} x1") for m in range(-9, 10) if m]
    for i, g in enumerate(elements):
        a = annular_of(g)
        r = reduce_annular(a)
        assert r.to_json() == rescan_reduced(a).to_json()
        assert canonical_code(r) == reference_code(r)
        assert canonical_code(rescan_reduced(a, Random(i))) == canonical_code(r)


def test_reduction_and_codes_are_pinned():
    # the digest of the reduction that rescans for moves and the canonical
    # minimum over every start: vertex, edge and token ids and every code
    # must stay the same, in the deterministic and in random move orders
    rng = Random(58)
    digest = hashlib.sha256()
    for i in range(200):
        g = random_element(rng, 60)
        for r in (reduce_annular(annular_of(g)), rescan_reduced(annular_of(g), Random(i))):
            digest.update(r.to_json().encode())
            digest.update(canonical_code(r).encode())
    assert digest.hexdigest() == "b69e919c008455624f8479fa2beaf6b05757b170f75b8524f2e2b3c276a0ea0c"


def test_codes_do_not_depend_on_ids():
    # the code of a reduced diagram, and its reduction, read the embedding
    # only: no vertex, edge or token id, and not the order of free loops
    rng = Random(64)
    for _ in range(200):
        g = random_element(rng, 60)
        a = annular_of(g)
        r = reduce_annular(a)
        code = canonical_code(r)
        s = renumbered(r, rng)
        assert canonical_code(s) == code
        assert s.is_reduced
        t = renumbered(a, rng)
        assert t.is_reduced == a.is_reduced
        assert canonical_code(reduce_annular(t)) == code


def test_symmetric_closures_cost_two_walks(monkeypatch):
    # every start of these closures ties with every other, so without the
    # automorphism skip the code would walk the whole diagram once per edge
    walks = []

    class CountingWalk(strand._Walk):
        __slots__ = ()

        def __init__(self, net, start):
            super().__init__(net, start)
            walks.append(self)

    monkeypatch.setattr(strand, "_Walk", CountingWalk)
    for word in ("x0^400", "x1^300"):
        net = reduce_annular(annular_of(from_word(word)))._net
        vertices = len(net.kind) - net.kind.count(-1)
        edges = len(net.tail) - net.tail.count(-1)
        walks.clear()
        canonical_code(AnnularStrandDiagram(net))
        # one first entry per start edge, then the entries the walks made,
        # four numbers to a vertex
        entries = edges + sum(len(w.verts) // 4 for w in walks)
        assert entries <= edges + 2 * vertices, word
        assert len(walks) <= 2, word


def radial_corpus():
    """Wrapped elements, whose component count grows with n, the reduced
    Theorem 2 conjugates, unreduced closures, and nets reduced by types I
    and II only, so that runs of free loops are still there for type III."""
    nets = [reduce_annular(annular_of(h))._net for h in h_sequence(element_a(), 60)]
    for n in range(1, 13):
        nets.append(reduce_annular(annular_of(conjugate(g_element(n), X0)))._net)
        nets.append(reduce_annular(annular_of(conjugate(h_element(n), X1)))._net)
    rng = Random(62)
    loops = 0
    while loops < 300:
        net = annular_of(random_element(rng, 30))._net
        rescan_moves(net)
        if net.loop_tokens:
            nets.append(net)
            loops += 1
    nets += [annular_of(random_element(rng, 40))._net for _ in range(200)]
    return nets


def test_radial_order_matches_whole_cut_walk():
    for net in radial_corpus():
        faces = face_orbits(net)[0]
        items = net.radial_items()
        got = radial_summary(net, faces, items)
        assert got == radial_summary(net, faces, reference_radial_items(net, faces))
        owner = {t: eid for eid, tokens in enumerate(net.toks) if net.tail[eid] >= 0 for t in tokens}
        for item in items:
            if len(item) == 2:  # every crossing of the component, in cut order
                edges, crossed = item
                walk = [owner[t] for t in net.cut_order if owner.get(t, -1) in edges]
                assert crossed == walk


def test_cut_faces_match_whole_orbits(monkeypatch):
    # the faces traced from the cut crossings split the crossings' darts as
    # the whole orbits do, and the two marks of every component are the
    # whole orbits of the hole and outer faces found by the whole-cut walk
    marked = []
    min_signature = strand._Net._min_signature

    def recorded(net, starts, marks):
        marked.append((tuple(starts), marks))
        return min_signature(net, starts, marks)

    monkeypatch.setattr(strand._Net, "_min_signature", recorded)
    for net in radial_corpus():
        faces, orbits = face_orbits(net)
        items = net.radial_items()
        face, traced = net.cut_faces(items)
        darts = {d for item in items if len(item) == 2 for e in item[1] for d in (net.tail[e], net.head[e])}
        pairs = {(face[d], faces[d]) for d in darts}
        assert len({f for f, _ in pairs}) == len({g for _, g in pairs}) == len(pairs)
        for f, g in pairs:
            assert f >= 0 and sorted(traced[f]) == sorted(orbits[g])
        want = {}  # the hole and outer faces of each component, by its edges
        for c in radial_summary(net, faces, reference_radial_items(net, faces)):
            if c[0] == "component":
                want[tuple(c[1])] = c[2:]
        marked.clear()
        net.canonical_form()
        assert len(marked) == len(want)
        for starts, marks in marked:
            assert [sorted(darts) for darts in marks] == [sorted(orbits[f]) for f in want[starts]]


def test_type_three_drops_loops_after_loops():
    # nets reduced by types I and II only, with two free loops or more:
    # type III drops exactly the loops whose radial predecessor, by the
    # whole-cut reference, is a free loop, and reduce counts them
    rng = Random(62)
    merged = kept = 0
    while merged + kept < 1000:
        net = annular_of(random_element(rng, 30))._net
        rescan_moves(net)
        if len(net.loop_tokens) < 2:
            continue
        items = reference_radial_items(net, face_orbits(net)[0])
        want = {b[1] for a, b in zip(items, items[1:]) if a[0] == b[0] == "loop"}
        a = AnnularStrandDiagram(net)
        assert a.is_reduced == (not want)
        fast = net.copy()
        assert fast.reduce() == (0, 0, len(want))
        before = set(net.loop_tokens)
        merge_parallel_loops(net)
        assert before - set(net.loop_tokens) == want
        assert (fast.cut_order, sorted(fast.loop_tokens)) == (net.cut_order, sorted(net.loop_tokens))
        assert set(net.cut_order) >= set(net.loop_tokens) and not set(net.cut_order) & want
        assert a.is_reduced
        merged += bool(want)
        kept += not want
    assert merged >= 100 and kept >= 100


def test_reduction_queues_only_live_moves(monkeypatch):
    # every candidate is a move of the net as it stands when it is pushed
    pushes = []

    def checked_push(heap, item):
        state = sys._getframe(1).f_locals
        net = state["self"]
        if heap is state["bigons"]:
            assert item in bigon_moves(net)
        else:
            assert heap is state["passes"] and item in pass_moves(net)
        pushes.append(item)
        heappush(heap, item)

    monkeypatch.setattr(strand, "heappush", checked_push)
    rng = Random(64)
    for _ in range(200):
        reduce_annular(annular_of(random_element(rng, 60)))
    assert pushes


def test_reduction_pops_at_1920_crossings(monkeypatch):
    # the closure of the element whose link has 1,920 crossings: no
    # candidate is dead when pushed, so each move is popped once and little
    # else is; a move removes one split and one merge
    pops = []

    def counted_pop(heap):
        pops.append(1)
        return heappop(heap)

    monkeypatch.setattr(strand, "heappop", counted_pop)
    a = annular_of(h_sequence(element_a(), 240)[-1])
    r = reduce_annular(a)
    moves = a.split_count - r.split_count
    assert moves == a.merge_count - r.merge_count == 720
    assert len(pops) <= moves + 1


def test_reduce_counts_its_moves():
    # each type I or II move removes one split and one merge; the closure
    # of the element whose link has 1,920 crossings reduces by passes alone
    a = annular_of(h_sequence(element_a(), 240)[-1])
    net = a._net.copy()
    assert net.reduce() == (0, 720, 0)
    r = AnnularStrandDiagram(net)
    assert a.split_count - r.split_count == a.merge_count - r.merge_count == 720
    rng = Random(65)
    totals = [0, 0, 0]
    for _ in range(300):
        a = annular_of(random_element(rng, 40))
        net = a._net.copy()
        counts = bigons, passes, loops = net.reduce()
        r = AnnularStrandDiagram(net)
        assert bigons + passes == a.split_count - r.split_count == a.merge_count - r.merge_count
        step = a._net.copy()
        rescan_moves(step)
        assert loops == len(parallel_loops(step))
        totals = [t + c for t, c in zip(totals, counts)]
    assert min(totals) > 0


def test_is_reduced_matches_whole_scans():
    # random closures and their type I/II reductions, which keep runs of
    # free loops: is_reduced is "no move by the reference scans"
    rng = Random(66)
    reduced = 0
    for _ in range(300):
        net = annular_of(random_element(rng, 30))._net
        step = net.copy()
        rescan_moves(step)
        for n in (net, step):
            want = not (bigon_moves(n) or pass_moves(n) or parallel_loops(n))
            assert AnnularStrandDiagram(n).is_reduced == want
            reduced += want
    assert 100 <= reduced <= 500


def test_conjugacy_at_600_leaves():
    rng = Random(59)

    def element(leaves):
        return reduce_pair(TreePair(random_tree(leaves, rng), random_tree(leaves, rng)))

    g, w = element(600), element(200)
    assert (g.leaf_count, w.leaf_count) == (534, 176)
    h = multiply(multiply(w, g), invert(w))
    assert are_conjugate(g, h)
    # x0 changes the abelianisation, a conjugacy invariant
    assert not are_conjugate(multiply(g, X0), h)


def test_conjugacy_at_8000_leaves():
    rng = Random(63)

    def element(leaves):
        return reduce_pair(TreePair(random_tree(leaves, rng), random_tree(leaves, rng)))

    g, w = element(8000), element(200)
    assert (g.leaf_count, w.leaf_count) == (7008, 167)
    h = multiply(multiply(w, g), invert(w))
    assert are_conjugate(g, h)
    assert not are_conjugate(multiply(g, X0), h)
