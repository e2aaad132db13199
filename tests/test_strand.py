import json
from random import Random

from thomplink import (
    AnnularStrandDiagram,
    annular_closure,
    annular_component_count,
    are_conjugate,
    canonical_code,
    concatenate,
    from_word,
    identity,
    invert,
    make_generator,
    multiply,
    random_element,
    reduce_annular,
    strand_from_pair,
)
from thomplink.strand import annular_of, reduced_annular_of
from util import X0, X1


def test_identity_strand_and_closure():
    s = strand_from_pair(identity())
    assert s.split_count == 0 and s.merge_count == 0
    a = annular_closure(s)
    assert a.free_loops == 1
    assert annular_component_count(a) == 1
    assert canonical_code(a) == "O loops=1"


def test_vertex_counts():
    s = strand_from_pair(X0)
    assert (s.split_count, s.merge_count) == (2, 2)
    rng = Random(50)
    for _ in range(30):
        p = random_element(rng)
        s = strand_from_pair(p)
        assert s.split_count + s.merge_count == 2 * (p.leaf_count - 1)


def test_closure_of_x0_and_regression():
    a = annular_closure(strand_from_pair(X0))
    assert (a.split_count, a.merge_count) == (2, 2)
    r = reduce_annular(a)
    # regression value computed at build time: one split and one merge joined
    # by an edge, each carrying a winding-1 self-loop; no free loop
    assert (r.split_count, r.merge_count, r.free_loops) == (1, 1, 0)
    assert annular_component_count(r) == 1
    assert r.is_reduced
    assert r.winding_condition_holds()


def test_x0_x1_codes_differ():
    c0 = canonical_code(reduced_annular_of(X0))
    c1 = canonical_code(reduced_annular_of(X1))
    assert c0 != c1
    # determinism across recomputation
    assert c0 == canonical_code(reduced_annular_of(X0))


def test_concatenate_respects_multiplication():
    rng = Random(51)
    idn = strand_from_pair(identity())
    assert concatenate(strand_from_pair(X0), strand_from_pair(invert(X0))) == idn
    for _ in range(50):
        p, q = random_element(rng, 8), random_element(rng, 8)
        assert strand_from_pair(multiply(p, q)) == concatenate(strand_from_pair(p), strand_from_pair(q))
        assert concatenate(strand_from_pair(p), idn) == strand_from_pair(p)


def test_winding_condition_fuzz():
    rng = Random(52)
    for _ in range(100):
        g = random_element(rng, 10)
        assert annular_of(g).winding_condition_holds()
        assert reduced_annular_of(g).winding_condition_holds()


def test_vertex_and_edge_numbering_is_pinned():
    # splits then merges, each tree's nodes in preorder; edges: the two
    # root edges, the internal edges of each tree, then the leaf strands
    data = json.loads(annular_of(from_word("x1 x0^-1")).to_json())
    assert [(e["id"], *e["src"], *e["dst"]) for e in data["edges"]] == [
        (2, 2, "R", 3, "in"), (3, 3, "L", 4, "in"), (4, 6, "out", 5, "L"),
        (5, 7, "out", 5, "R"), (6, 2, "L", 6, "L"), (7, 4, "L", 6, "R"),
        (8, 4, "R", 7, "L"), (9, 3, "R", 7, "R"), (10, 5, "out", 2, "in"),
    ]


def test_winding_condition_at_depth():
    a = annular_of(make_generator(1500))
    assert a.winding_condition_holds()
    # without its cut crossing the closing edge makes a zero-winding cycle
    net = a._net.copy()
    for rec in net.edges.values():
        rec[4] = []
    assert not AnnularStrandDiagram(net).winding_condition_holds()


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
        base = canonical_code(reduced_annular_of(g))
        for j in range(6):
            assert canonical_code(reduced_annular_of(g, Random(900 + j))) == base


def test_reduced_input_unchanged():
    r = reduced_annular_of(X0)
    again = reduce_annular(r)
    assert canonical_code(again) == canonical_code(r)


def test_component_count_distinguishes():
    rng = Random(56)
    for _ in range(40):
        g, h = random_element(rng, 8), random_element(rng, 8)
        rg, rh = reduced_annular_of(g), reduced_annular_of(h)
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
    c1 = canonical_code(reduced_annular_of(p1))
    c2 = canonical_code(reduced_annular_of(p2))
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
        code = canonical_code(reduced_annular_of(g))
        if code in by_code:
            assert ab(by_code[code]) == ab(g), code
        else:
            by_code[code] = g


def test_json_export():
    data = json.loads(reduced_annular_of(X0).to_json())
    assert data["schema"] == 1
    assert data["free_loops"] == 0
    kinds = sorted(v["kind"] for v in data["vertices"])
    assert kinds == ["merge", "split"]
    assert sum(e["winding"] for e in data["edges"]) >= 1
