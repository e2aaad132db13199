from random import Random

import pytest

from thomplink import (
    LinkDiagram,
    component_count,
    direct_link,
    equivalent_up_to_units,
    expand,
    from_word,
    identity,
    kauffman_bracket,
    make_generator,
    medial_link,
    random_element,
    simplify,
    tait_graph,
)
from util import graft_element, X0


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
