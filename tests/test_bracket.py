from random import Random

import pytest

from thomplink import (
    DELTA,
    ONE,
    ConwayCode,
    LaurentPolynomial,
    LinkDiagram,
    StateLimitError,
    conjugate,
    direct_link,
    disjoint_union,
    equivalent_up_to_units,
    g_element,
    h_element,
    kauffman_bracket,
    medial_link,
    mirror_diagram,
    simplify,
    tait_graph,
    two_bridge_diagram,
)
from util import random_diagram, unreduced_pair, with_kink, X0, X1

# Two-crossing clasp: closure of a two-strand braid with two equal crossings.
HOPF = LinkDiagram([(2, 1, 3, 4), (4, 3, 1, 2)])


def brute_force_bracket(d: LinkDiagram) -> LaurentPolynomial:
    """Independent oracle: explicit state enumeration with cycle tracing."""
    c = len(d.crossings)
    total = LaurentPolynomial()
    counts = {}
    for state in range(2 ** c):
        joins = []
        b = 0
        for j, (a0, a1, a2, a3) in enumerate(d.crossings):
            if (state >> j) & 1:
                b += 1
                joins += [(a0, a3), (a1, a2)]
            else:
                joins += [(a0, a1), (a2, a3)]
        neighbours = {}
        for x, y in joins:
            neighbours.setdefault(x, []).append(y)
            neighbours.setdefault(y, []).append(x)
        seen, loops = set(), 0
        for start in neighbours:
            if start in seen:
                continue
            loops += 1
            stack = [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(neighbours[v])
        counts[b, loops] = counts.get((b, loops), 0) + 1
    for (b, loops), n in counts.items():
        total = total + (DELTA ** (loops + d.free_loops - 1)).shifted(c - 2 * b) * n
    return total


def test_unknot_and_loops():
    assert kauffman_bracket(LinkDiagram((), 1)) == ONE
    assert kauffman_bracket(LinkDiagram((), 2)) == DELTA
    assert kauffman_bracket(LinkDiagram((), 3)) == DELTA * DELTA


def test_hopf_value_against_independent_enumeration():
    expected = LaurentPolynomial({4: -1, -4: -1})
    assert brute_force_bracket(HOPF) == expected
    assert kauffman_bracket(HOPF) == expected


def test_single_signed_arc_is_a_kink():
    # pins the crossing-sign realization: one positive arc gives -A^3
    from thomplink import medial_link
    from thomplink.tait import TaitEdge, TaitGraph

    plus = medial_link(TaitGraph(2, (TaitEdge(0, 1, "U", 1),)))
    minus = medial_link(TaitGraph(2, (TaitEdge(0, 1, "L", -1),)))
    assert kauffman_bracket(plus) == LaurentPolynomial({3: -1})
    assert kauffman_bracket(minus) == LaurentPolynomial({-3: -1})


def fuzz_diagrams(rng: Random, count: int):
    """Direct, kinked, split and mirrored medial diagrams of up to 14
    crossings, some of the medial ones simplified, each with 0-2 extra free
    loops."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            d = direct_link(unreduced_pair(rng, rng.randint(2, 8)))
        elif kind == 1:
            d = direct_link(unreduced_pair(rng, rng.randint(2, 5)))
            while d.crossing_count < 14 and rng.random() < 0.7:
                d = with_kink(rng, d)
        elif kind == 2:
            d1 = direct_link(unreduced_pair(rng, rng.randint(2, 3)))
            d = disjoint_union(d1, direct_link(unreduced_pair(rng, rng.randint(2, 4))))
        else:
            d = medial_link(tait_graph(unreduced_pair(rng, rng.randint(2, 7))))
            if rng.random() < 0.3:
                d = simplify(d).diagram
            d = mirror_diagram(d)
        yield LinkDiagram(d.crossings, d.free_loops + rng.randrange(3))


def test_contraction_matches_brute_force_fuzz():
    sizes = []
    for d in fuzz_diagrams(Random(40), 200):
        assert kauffman_bracket(d) == brute_force_bracket(d)
        sizes.append(d.crossing_count)
    assert max(sizes) == 14


def test_mirror_symmetry_fuzz():
    rng = Random(42)
    for _ in range(20):
        d = random_diagram(rng, 7)
        assert kauffman_bracket(mirror_diagram(d)) == kauffman_bracket(d).mirrored()


def test_disjoint_union_multiplies_by_delta():
    rng = Random(43)
    for _ in range(10):
        d1, d2 = random_diagram(rng, 5), random_diagram(rng, 5)
        b = kauffman_bracket(disjoint_union(d1, d2))
        assert b == kauffman_bracket(d1) * kauffman_bracket(d2) * DELTA


def test_state_bound():
    # the first Hopf crossing leaves two matchings of its four open arcs
    with pytest.raises(StateLimitError):
        kauffman_bracket(HOPF, max_states=1)
    assert kauffman_bracket(HOPF, max_states=2) == LaurentPolynomial({4: -1, -4: -1})
    with pytest.raises(StateLimitError):
        kauffman_bracket(random_diagram(Random(44), 9), max_states=1)


@pytest.mark.parametrize("x, base, unknots", [(X0, g_element, 0), (X1, h_element, 1)])
def test_two_bridge_families_at_38_crossings(x, base, unknots):
    n = 10
    d = simplify(direct_link(conjugate(base(n), x))).diagram
    assert d.crossing_count == 38
    oracle = kauffman_bracket(two_bridge_diagram(ConwayCode([1] * (2 * n)), 2 * n))
    assert equivalent_up_to_units(kauffman_bracket(d), oracle * DELTA**unknots, 0)


def test_comparator_basics():
    one, delta = ONE, DELTA
    assert equivalent_up_to_units(one, one, 0)
    assert equivalent_up_to_units(delta, one, 1)
    assert not equivalent_up_to_units(delta, one, 0)
    # symmetric through its two-sided definition
    assert equivalent_up_to_units(one, delta, 1)
    # invariant under -A^3 units on either side
    kink = LaurentPolynomial({3: -1})
    assert equivalent_up_to_units(one * kink, one, 0)
    hopf = LaurentPolynomial({4: -1, -4: -1})
    fig8 = LaurentPolynomial({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
    assert not equivalent_up_to_units(hopf, fig8, 2)


def test_comparator_reflexive_symmetric_fuzz():
    rng = Random(45)
    for _ in range(15):
        b = kauffman_bracket(random_diagram(rng, 6))
        assert equivalent_up_to_units(b, b, 0)
        shifted = b.shifted(6) * -1
        assert equivalent_up_to_units(b, shifted, 0)
        assert equivalent_up_to_units(shifted, b, 0)
        assert equivalent_up_to_units(b * DELTA, b, 4)
        assert equivalent_up_to_units(b, b * DELTA, 4)


def test_laurent_text_format():
    assert str(LaurentPolynomial({4: -1, -4: -1})) == "-1*A^4 + -1*A^-4"
    assert str(ONE) == "1*A^0"
    assert str(LaurentPolynomial()) == "0"


def test_empty_diagram_rejected():
    with pytest.raises(ValueError):
        kauffman_bracket(LinkDiagram((), 0))
