"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Brackets of constructed links are evaluated on simplified diagrams;
simplification only changes a bracket by unit factors and split trivial
components, which the comparator absorbs, so each comparison happens between
exactly the bracket classes the criterion names.
"""

import time
from random import Random

from thomplink import (
    DELTA,
    ONE,
    ConwayCode,
    LaurentPolynomial,
    LinkDiagram,
    annular_component_count,
    are_conjugate,
    attach_a,
    canonical_code,
    conjugate,
    direct_link,
    element_a,
    equivalent_up_to_units,
    g_element,
    h_element,
    h_sequence,
    identity,
    invert,
    kauffman_bracket,
    make_generator,
    medial_link,
    mirror_diagram,
    multiply,
    random_element,
    simplify,
    tait_graph,
    two_bridge_diagram,
)
from thomplink.strand import annular_of, reduce_annular
from util import graft_element, random_diagram, rescan_reduced, X0, X1

from test_bracket import HOPF, brute_force_bracket


def report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def simplified_bracket(pair):
    return kauffman_bracket(simplify(direct_link(pair)).diagram)


def test_criterion_1_group_structure():
    start = time.perf_counter()
    ok = True
    for i in range(5):
        for j in range(i + 1, 5):
            lhs = multiply(invert(make_generator(i)), multiply(make_generator(j), make_generator(i)))
            ok = ok and lhs == make_generator(j + 1)
    rng = Random(101)
    for _ in range(100):
        a, b, c = (random_element(rng, 8) for _ in range(3))
        ok = ok and multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        ok = ok and multiply(a, invert(a)) == identity()
    elapsed = time.perf_counter() - start
    report(1, f"relations + 100-case laws in {elapsed:.2f}s", ok and elapsed < 1.0)


def test_criterion_2_generator_shape():
    ok = all(make_generator(i).leaf_count == i + 3 for i in range(7))
    report(2, "x_i has i+3 leaves for i=0..6", ok)


def test_criterion_3_wrapping_adds_four_leaves():
    rng = Random(103)
    ok = True
    for _ in range(20):
        p = random_element(rng, 12)
        q = attach_a(p)
        ok = ok and q.is_reduced and q.leaf_count == p.leaf_count + 4
    report(3, "wrapped element reduced with exactly 4 more leaves (20 seeds)", ok)


def test_criterion_4_one_link_for_the_whole_sequence():
    start = time.perf_counter()
    brackets = [simplified_bracket(h) for h in h_sequence(element_a(), 5)]
    ok = all(equivalent_up_to_units(brackets[0], b, 0) for b in brackets[1:])
    elapsed = time.perf_counter() - start
    report(4, f"h1..h5 brackets pairwise equivalent in {elapsed:.2f}s", ok and elapsed < 30.0)


def test_criterion_5_distinct_conjugacy_classes():
    reduced = [reduce_annular(annular_of(h)) for h in h_sequence(element_a(), 5)]
    codes = [canonical_code(r) for r in reduced]
    comps = [annular_component_count(r) for r in reduced]
    ok = len(set(codes)) == 5
    ok = ok and all(comps[i + 1] == comps[i] + 1 for i in range(4))
    report(5, f"codes distinct, components {comps} grow by one", ok)


def test_criterion_6_two_bridge_family_from_x0():
    start = time.perf_counter()
    brackets = []
    ok = True
    for n in range(1, 16):
        c = conjugate(g_element(n), X0)
        ok = ok and are_conjugate(c, X0)
        b = simplified_bracket(c)
        oracle = kauffman_bracket(two_bridge_diagram(ConwayCode([1] * (2 * n))))
        ok = ok and equivalent_up_to_units(b, oracle, 0)
        brackets.append(b)
    for i in range(len(brackets)):
        for j in range(i + 1, len(brackets)):
            ok = ok and not equivalent_up_to_units(brackets[i], brackets[j], 4)
    elapsed = time.perf_counter() - start
    report(6, f"x0 conjugates give C(1x2n) for n <= 15, classes distinct, in {elapsed:.2f}s", ok and elapsed < 10.0)


def test_criterion_7_two_bridge_family_from_x1():
    ok = True
    for n in range(1, 16):
        c = conjugate(h_element(n), X1)
        ok = ok and are_conjugate(c, X1)
        b = simplified_bracket(c)
        oracle = kauffman_bracket(two_bridge_diagram(ConwayCode([1] * (2 * n))))
        ok = ok and equivalent_up_to_units(b, oracle * DELTA, 0)
    report(7, "x1 conjugates give one unknot plus C(1x2n) for n <= 15", ok)


def test_criterion_8_route_equivalence():
    rng = Random(108)
    ok = True
    for _ in range(30):
        p = random_element(rng, 10)
        b1 = kauffman_bracket(simplify(medial_link(tait_graph(p))).diagram)
        b2 = kauffman_bracket(simplify(direct_link(p)).diagram)
        ok = ok and b1 == b2
    report(8, "medial-of-Tait and direct brackets agree (30 elements)", ok)


def test_criterion_9_reduction_confluence():
    rng = Random(109)
    ok = True
    for _ in range(100):
        g = random_element(rng, 10)
        base = canonical_code(reduce_annular(annular_of(g)))
        for j in range(10):
            ok = ok and canonical_code(rescan_reduced(annular_of(g), Random(7000 + j))) == base
    report(9, "100 elements x 10 reduction orders, identical codes", ok)


def test_criterion_10_bracket_oracle():
    ok = kauffman_bracket(LinkDiagram((), 1)) == ONE
    ok = ok and kauffman_bracket(LinkDiagram((), 2)) == DELTA
    hopf_expected = LaurentPolynomial({4: -1, -4: -1})
    ok = ok and brute_force_bracket(HOPF) == hopf_expected
    ok = ok and kauffman_bracket(HOPF) == hopf_expected
    rng = Random(110)
    for _ in range(20):
        d = random_diagram(rng, 7)
        ok = ok and kauffman_bracket(mirror_diagram(d)) == kauffman_bracket(d).mirrored()
    report(10, "unknot, two loops, Hopf by brute force, mirror symmetry", ok)


def test_criterion_11_grafting_keeps_the_link():
    rng = Random(111)
    ok = True
    for _ in range(10):
        p = random_element(rng, 8)
        q = graft_element(p, rng.randrange(p.leaf_count), X0)
        ok = ok and equivalent_up_to_units(simplified_bracket(p), simplified_bracket(q), 0)
    report(11, "grafting x0 onto a leaf keeps the bracket class (10 elements)", ok)
