import hashlib
from random import Random

import pytest

from thomplink import (
    LinkDiagram,
    SimplificationReport,
    component_count,
    conjugate,
    direct_link,
    disjoint_union,
    element_a,
    equivalent_up_to_units,
    expand,
    from_word,
    g_element,
    h_element,
    h_sequence,
    identity,
    kauffman_bracket,
    make_generator,
    medial_link,
    mirror_diagram,
    random_element,
    simplify,
    tait_graph,
)
from util import graft_element, unreduced_pair, with_kink, X0, X1


def test_identity_diagrams():
    assert medial_link(tait_graph(identity())).free_loops == 1
    d = direct_link(identity())
    assert d.crossing_count == 0 and d.free_loops == 1
    assert component_count(d) == 1


def test_crossing_counts():
    rng = Random(30)
    for _ in range(50):
        p = random_element(rng)
        n = p.leaf_count
        assert direct_link(p).crossing_count == 2 * (n - 1)
        assert medial_link(tait_graph(p)).crossing_count == 2 * (n - 1)


def test_pd_arc_sanity():
    with pytest.raises(ValueError):
        LinkDiagram([(0, 1, 2, 2)])  # arc 0 and 1 appear once
    with pytest.raises(ValueError):
        LinkDiagram([(0, 0, 0, 1)])


def test_simplify_monotone_and_x0_unknot():
    d = medial_link(tait_graph(X0))
    rep = simplify(d)
    assert rep.diagram.crossing_count == 0
    assert rep.diagram.free_loops == 1
    assert rep.r1_moves + rep.r2_moves > 0

    d2 = direct_link(X0)
    rep2 = simplify(d2)
    assert rep2.diagram.crossing_count == 0
    assert rep2.diagram.free_loops == 1


def test_simplify_r1_twist():
    # single positive Tait arc: a one-crossing kink
    from thomplink.tait import TaitEdge, TaitGraph

    d = medial_link(TaitGraph(2, (TaitEdge(0, 1, "U", 1),)))
    rep = simplify(d)
    assert rep.diagram.crossing_count == 0
    assert rep.diagram.free_loops == 1
    assert rep.r1_moves == 1 and rep.r2_moves == 0


def test_simplify_zero_crossings_unchanged():
    d = LinkDiagram((), 3)
    rep = simplify(d)
    assert rep.diagram.free_loops == 3
    assert rep.removed_unknots == 0


def test_simplify_preserves_bracket_class():
    rng = Random(31)
    for _ in range(30):
        p = random_element(rng, 8)
        d = direct_link(p)
        rep = simplify(d)
        b_before = kauffman_bracket(d)
        b_after = kauffman_bracket(rep.diagram)
        assert equivalent_up_to_units(b_before, b_after, 4)


def test_route_equivalence_fuzz():
    rng = Random(32)
    for _ in range(30):
        p = random_element(rng, 10)
        b1 = kauffman_bracket(simplify(medial_link(tait_graph(p))).diagram)
        b2 = kauffman_bracket(simplify(direct_link(p)).diagram)
        assert equivalent_up_to_units(b1, b2, 4), p


def test_expansion_adds_only_trivial_components():
    rng = Random(33)
    for _ in range(20):
        p = random_element(rng, 7)
        q = expand(p, rng.randrange(p.leaf_count))
        b1 = kauffman_bracket(simplify(direct_link(p)).diagram)
        b2 = kauffman_bracket(simplify(direct_link(q)).diagram)
        assert equivalent_up_to_units(b1, b2, 4)


def test_grafting_x0_preserves_link():
    rng = Random(34)
    for _ in range(10):
        p = random_element(rng, 7)
        q = graft_element(p, rng.randrange(p.leaf_count), X0)
        b1 = kauffman_bracket(simplify(direct_link(p)).diagram)
        b2 = kauffman_bracket(simplify(direct_link(q)).diagram)
        assert equivalent_up_to_units(b1, b2, 4)


def test_pd_text_format():
    txt = direct_link(make_generator(0)).pd_text()
    lines = txt.splitlines()
    assert lines[-1] == "O 0"
    assert all(line.startswith("X(") for line in lines[:-1])
    assert len(lines) == 5


def test_component_trace_on_two_bridge():
    from thomplink import ConwayCode, two_bridge_diagram

    assert component_count(two_bridge_diagram(ConwayCode([1, 1]))) == 2
    assert component_count(two_bridge_diagram(ConwayCode([1, 1, 1, 1]))) == 1


def test_crossing_numbering_is_pinned():
    # crossings follow the tree nodes in preorder, source tree first
    p = from_word("x1 x0^-1")
    assert direct_link(p).crossings == (
        (11, 0, 8, 4), (4, 5, 10, 3), (5, 1, 9, 2), (11, 7, 9, 6), (6, 1, 8, 0), (7, 3, 10, 2),
    )
    assert medial_link(tait_graph(p)).crossings == (
        (0, 2, 5, 4), (4, 3, 10, 11), (3, 6, 7, 9), (0, 8, 7, 1), (1, 6, 5, 2), (8, 11, 10, 9),
    )


# ---------------------------------------------------------------------------
# Reference simplifier: after every move it rescans from the first crossing
# and renames arc labels by scanning every crossing.  Quadratic, but plainly
# "the first kink, else the first clasp in first-appearance order".
# ---------------------------------------------------------------------------


def _splice(crossings, u, v):
    if u == v:
        return 1
    for c in crossings:
        for s in range(4):
            if c[s] == v:
                c[s] = u
    return 0


def _find_r1(crossings):
    for ci, c in enumerate(crossings):
        for s in range(4):
            if c[s] == c[(s + 1) % 4]:
                return ci, s
    return None


def _find_r2(crossings):
    ends = {}
    for ci, c in enumerate(crossings):
        for s, a in enumerate(c):
            ends.setdefault(a, []).append((ci, s))
    for (c1, s1), (c2, s2) in ends.values():
        if c1 == c2 or s1 % 2 == 0 or s2 % 2 == 0:
            continue
        for da, db in ((1, -1), (-1, 1)):
            if crossings[c1][(s1 + da) % 4] == crossings[c2][(s2 + db) % 4]:
                return (c1, s1), (c2, s2), ((s1 + da) % 4, (s2 + db) % 4)
    return None


def rescan_simplify(d: LinkDiagram) -> SimplificationReport:
    crossings = [list(c) for c in d.crossings]
    loops, removed, r1, r2 = d.free_loops, 0, 0, 0
    while True:
        hit = _find_r1(crossings)
        if hit is not None:
            ci, s = hit
            c = crossings.pop(ci)
            closed = _splice(crossings, c[(s + 2) % 4], c[(s + 3) % 4])
            loops, removed, r1 = loops + closed, removed + closed, r1 + 1
            continue
        hit = _find_r2(crossings)
        if hit is None:
            break
        (c1, s1), (c2, s2), (t1, t2) = hit
        u, z = crossings[c1][(s1 + 2) % 4], crossings[c2][(s2 + 2) % 4]
        v, w = crossings[c1][(t1 + 2) % 4], crossings[c2][(t2 + 2) % 4]
        del crossings[c2], crossings[c1]  # c1 < c2
        closed = _splice(crossings, u, z)
        if not closed:
            v, w = (u if v == z else v), (u if w == z else w)
        closed += _splice(crossings, v, w)
        loops, removed, r2 = loops + closed, removed + closed, r2 + 1
    return SimplificationReport(LinkDiagram(crossings, loops), removed, r1, r2)


def _outcome(rep: SimplificationReport):
    return rep.diagram.relabeled().crossings, rep.diagram.free_loops, rep.removed_unknots, rep.r1_moves, rep.r2_moves


def simplify_corpus():
    """Seeded diagrams: direct, medial and mirrored links, unreduced pairs,
    disjoint unions, links with kinks inserted, and the theorem families."""
    rng = Random(70)
    for _ in range(300):
        p = random_element(rng, 30)
        d = direct_link(p)
        yield from (d, medial_link(tait_graph(p)), mirror_diagram(d))
    for _ in range(100):
        p = unreduced_pair(rng, rng.randint(2, 12))
        yield direct_link(p)
        yield medial_link(tait_graph(p))
        d = disjoint_union(direct_link(unreduced_pair(rng, rng.randint(2, 6))), direct_link(p))
        yield d
        for _ in range(rng.randint(1, 4)):
            d = with_kink(rng, d)
        yield d
    yield from map(direct_link, h_sequence(element_a(), 60).elements)
    for n in range(1, 16):
        yield direct_link(conjugate(g_element(n), X0))
        yield direct_link(conjugate(h_element(n), X1))


def test_simplify_matches_rescan_oracle():
    for d in simplify_corpus():
        assert _outcome(simplify(d)) == _outcome(rescan_simplify(d)), d


def test_simplify_is_pinned():
    # produced by the rescanning simplifier: the surviving crossings, their
    # labelling and every count must stay the same
    rng = Random(71)
    digest = hashlib.sha256()
    for _ in range(200):
        p = random_element(rng, 16) if rng.random() < 0.5 else unreduced_pair(rng, rng.randint(2, 10))
        for d in (direct_link(p), medial_link(tait_graph(p))):
            rep = simplify(d)
            counts = (rep.diagram.crossing_count, rep.removed_unknots, rep.r1_moves, rep.r2_moves)
            digest.update(f"{rep.diagram.pd_text()}|{counts}\n".encode())
    assert digest.hexdigest() == "fce4c792c372880f35c4124ed569e51fa695713d559b3c357088c3fbd1475702"


def test_simplify_at_1920_crossings():
    h = h_sequence(element_a(), 240).elements[-1]
    d = direct_link(h)
    assert d.crossing_count == 1920
    rep = simplify(d)
    assert rep.diagram.crossing_count == 0
    assert component_count(rep.diagram) == component_count(d)
