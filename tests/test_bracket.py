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
    multiply,
    random_element,
    simplify,
    tait_graph,
    two_bridge_diagram,
)
from thomplink.tait import TaitGraph
from util import random_diagram, rescan_bracket, unreduced_pair, with_kink, X0, X1

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
    from thomplink.tait import TaitGraph

    plus = medial_link(TaitGraph(2, [(0, 1)], []))
    minus = medial_link(TaitGraph(2, [], [(0, 1)]))
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
    # The medial of K4 has only triangular faces, so the twist pass keeps
    # all 6 crossings and the contraction holds 5 states at its peak.
    k4 = medial_link(TaitGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)], [(1, 3)]))
    assert k4.crossing_count == 6
    with pytest.raises(StateLimitError):
        kauffman_bracket(k4, max_states=4)
    assert kauffman_bracket(k4, max_states=5) == brute_force_bracket(k4)
    with pytest.raises(StateLimitError):
        kauffman_bracket(random_diagram(Random(50), 9), max_states=1)


@pytest.mark.parametrize("x, base, unknots", [(X0, g_element, 0), (X1, h_element, 1)])
def test_two_bridge_families_at_38_crossings(x, base, unknots):
    n = 10
    d = simplify(direct_link(conjugate(base(n), x))).diagram
    assert d.crossing_count == 38
    oracle = kauffman_bracket(two_bridge_diagram(ConwayCode([1] * (2 * n))))
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


def rescan_corpus():
    """Raw direct links of products of three seeded random tree pairs, the
    simplified links of Theorem 2's conjugates for n <= 30, and the
    two-bridge diagrams C(1^k) and C(k) for k <= 300."""
    rng = Random(47)
    for _ in range(24):
        a, b, c = (unreduced_pair(rng, rng.randint(6, 20)) for _ in range(3))
        yield direct_link(multiply(multiply(a, b), c))
    for n in range(1, 31):
        for x, base in ((X0, g_element), (X1, h_element)):
            yield simplify(direct_link(conjugate(base(n), x))).diagram
    for k in (1, 2, 3, 4, 7, 30, 100, 300):
        yield two_bridge_diagram(ConwayCode([1] * k))
        yield two_bridge_diagram(ConwayCode([k]))


# Peak states of the contraction that follows the twist pass on
# ``rescan_corpus``, found by bisection; the Theorem 2 links and the
# two-bridge diagrams reduce to no crossing.
TWIST_PEAKS = [5, 5, 5, 0, 5, 0, 0, 5, 5, 5, 26, 5, 5, 0, 5, 5, 5, 0, 0, 0, 5, 5, 0, 14] + [0] * 76


def test_bracket_matches_rescan_at_size():
    # equal values, an answer within the rescan's peak, and pinned peaks,
    # which pin the twist pass and the contraction order
    sizes = []
    for d, peak in zip(rescan_corpus(), TWIST_PEAKS, strict=True):
        value, rescan_peak = rescan_bracket(d)
        assert kauffman_bracket(d, max_states=rescan_peak) == value
        assert kauffman_bracket(d, max_states=peak) == value
        if peak:
            with pytest.raises(StateLimitError):
                kauffman_bracket(d, max_states=peak - 1)
        sizes.append(d.crossing_count)
    assert min(sizes[:24]) <= 22 and max(sizes[:24]) >= 70
    assert max(sizes) == 300


def twist_diagrams(rng: Random, count: int):
    """Diagrams of up to 10 crossings rich in bigons and kinks: 4-plats,
    kinked and mirrored, split unions with a small direct link, and free
    loops."""
    for _ in range(count):
        code = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        d = two_bridge_diagram(ConwayCode(code))
        while d.crossing_count < 10 and rng.random() < 0.5:
            d = with_kink(rng, d)
        if rng.random() < 0.5:
            d = mirror_diagram(d)
        if d.crossing_count <= 6 and rng.random() < 0.5:
            d = disjoint_union(d, direct_link(unreduced_pair(rng, rng.randint(2, 3))))
        yield LinkDiagram(d.crossings, d.free_loops + rng.randrange(3))


def test_twist_pass_matches_brute_force():
    reduced = 0
    for d in twist_diagrams(Random(48), 150):
        assert d.crossing_count <= 10
        assert kauffman_bracket(d) == brute_force_bracket(d)
        try:
            kauffman_bracket(d, max_states=0)
            reduced += 1
        except StateLimitError:
            pass
    assert 0 < reduced < 150  # both a full reduction and a core are checked


def test_two_bridge_diagrams_need_no_states():
    # every 2-bridge diagram reduces fully, so the bracket answers with no
    # state at all, and the Theorem 2 rows up to cli.THM2_MAX_N = 250 still
    # match their 4-plats: no state bound can trip in ``experiment thm2``
    for k in range(1, 301):
        for code in ([1] * k, [k]):
            assert not kauffman_bracket(two_bridge_diagram(ConwayCode(code)), max_states=0).is_zero()
    for x, base, unknots in ((X0, g_element, 0), (X1, h_element, 1)):
        for n in (*range(1, 31), 60, 120, 250):
            d = simplify(direct_link(conjugate(base(n), x))).diagram
            oracle = kauffman_bracket(two_bridge_diagram(ConwayCode([1] * (2 * n))), max_states=0)
            assert equivalent_up_to_units(kauffman_bracket(d, max_states=0), oracle * DELTA**unknots, 0)


# Peak states of the 10 links of the bracket wall sample at 160 leaves.
WALL_160_PEAKS = [37, 0, 62, 498, 0, 72, 13, 57, 66, 120]


def test_random_links_at_160_leaves():
    rng = Random(3)
    for peak in WALL_160_PEAKS:
        d = simplify(direct_link(random_element(rng, 160))).diagram
        value, _ = rescan_bracket(d)
        assert kauffman_bracket(d) == value
        assert kauffman_bracket(d, max_states=peak) == value
        if peak:
            with pytest.raises(StateLimitError):
                kauffman_bracket(d, max_states=peak - 1)
