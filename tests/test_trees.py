from random import Random

import pytest

from thomplink.pairs import TreePair, identity, reduce_pair
from thomplink.trees import (
    LEAF,
    BinaryTree,
    caret,
    graft_all,
    is_right_comb,
    leaf_exponents,
    node_spans,
    random_tree,
    right_comb,
    tree_from_bits,
    tree_from_exponents,
    tree_darts,
)
from thomplink.svg import _span_ends
from util import common_refinement, reference_table, split_along


def test_bits_round_trip():
    rng = Random(1)
    for _ in range(100):
        t = random_tree(rng.randint(1, 12), rng)
        assert tree_from_bits(t.bits) == t
        assert len(t.bits) == 2 * t.leaf_count - 1


def test_bits_rejects_garbage():
    for bad in ("", "2", "10", "001", "110001"):
        with pytest.raises(ValueError):
            tree_from_bits(bad)


def test_right_comb_shape():
    assert right_comb(1) == LEAF
    assert right_comb(3).bits == "10100"
    for n in range(1, 8):
        t = right_comb(n)
        assert t.leaf_count == n
        assert is_right_comb(t)
    assert not is_right_comb(BinaryTree(caret(), LEAF))


def test_graft_and_split_along_invert():
    rng = Random(2)
    for _ in range(50):
        base = random_tree(rng.randint(1, 6), rng)
        parts = [random_tree(rng.randint(1, 4), rng) for _ in range(base.leaf_count)]
        refined = graft_all(base, parts)
        assert split_along(refined, base) == parts
        assert refined.leaf_count == sum(p.leaf_count for p in parts)


def test_common_refinement_is_upper_bound():
    rng = Random(3)
    for _ in range(50):
        n = rng.randint(1, 8)
        a, b = random_tree(n, rng), random_tree(n, rng)
        m = common_refinement(a, b)
        # m refines both: split_along must succeed
        split_along(m, a)
        split_along(m, b)


def test_leaf_exponents_known_values():
    assert leaf_exponents(tree_from_bits("11000")) == [1, 0, 0]  # x0 source
    assert leaf_exponents(tree_from_bits("1011000")) == [0, 1, 0, 0]  # x1 source
    assert leaf_exponents(right_comb(5)) == [0] * 5
    # left comb with 4 leaves carries x0^2
    assert leaf_exponents(tree_from_bits("1110000")) == [2, 0, 0, 0]
    # source/target trees of x0^3 x2^-1 x0^-3
    assert leaf_exponents(tree_from_bits("111000100")) == [2, 0, 0, 0, 0]
    assert leaf_exponents(tree_from_bits("111010000")) == [2, 1, 0, 0, 0]


def test_tree_from_exponents_inverts_leaf_exponents():
    assert tree_from_exponents([]) == LEAF
    assert tree_from_exponents([(0, 1)]).bits == "11000"  # x0 source
    assert tree_from_exponents([(1, 1)]).bits == "1011000"  # x1 source
    assert tree_from_exponents([(0, 2), (1, 1)]).bits == "111010000"
    rng = Random(9)
    for _ in range(300):
        t = random_tree(rng.randint(1, 40), rng)
        exponents = leaf_exponents(t)
        u = tree_from_exponents([(k, e) for k, e in enumerate(exponents) if e])
        # t is the least tree with a right comb grafted at its last leaf
        assert u.leaf_count <= t.leaf_count
        assert t.bits == u.bits[:-1] + "10" * (t.leaf_count - u.leaf_count) + "0"
        assert leaf_exponents(u) == exponents[: u.leaf_count]
    for bad in ([(1, 1), (1, 2)], [(2, 1), (0, 1)], [(0, 0)], [(0, -1)]):
        with pytest.raises(ValueError):
            tree_from_exponents(bad)


def test_random_tree_draw_order():
    # seeded tests elsewhere rest on these draws
    r = Random(7)
    assert [random_tree(n, r).bits for n in (1, 5, 12)] == [
        "0",
        "110100100",
        "11001110110100001011000",
    ]


# (first, stride, left, right): the link's source and target crossings, the
# strand diagram's splits and merges, and the node spans' layout
LAYOUTS = [(0, 4, 1, 3), (8, 4, 3, 1), (6, 3, 1, 2), (9, 3, 0, 1), (0, 2, 0, 1)]


def reference_darts(bits: str, first: int, stride: int, left: int, right: int):
    """The walk's three lists, read off :func:`reference_table`."""
    nodes, holders = reference_table(bits)

    def dart(node, side):
        return first + stride * node + (left if side == "L" else right)

    by_gap = sorted(range(len(nodes)), key=lambda i: nodes[i][1])
    return (
        [dart(parent, side) for *_, parent, side in nodes[1:]],
        [dart(node, side) for node, side in holders if side],
        [dart(i, "R") for i in by_gap],
    )


def test_tree_walk_matches_recursive_reference():
    rng = Random(4)
    for _ in range(300):
        t = random_tree(rng.randint(1, 40), rng)
        for layout in LAYOUTS:
            assert tree_darts(t, *layout) == reference_darts(t.bits, *layout)
        first, gap = node_spans(t)
        spans = [(a, b, c) for a, b, c, *_ in reference_table(t.bits)[0]]
        assert list(zip(first, gap, _span_ends(first, gap))) == spans


N = 10_000
LEFT_COMB = tree_from_bits("1" * (N - 1) + "0" * N)
RIGHT_COMB = tree_from_bits("10" * (N - 1) + "0")


@pytest.mark.parametrize("comb", [LEFT_COMB, RIGHT_COMB], ids=["left", "right"])
def test_deep_combs(comb):
    assert comb.leaf_count == N
    assert tree_from_bits(comb.bits) == comb
    parts = [caret() if k % 3 == 0 else LEAF for k in range(N)]
    refined = graft_all(comb, parts)
    assert split_along(refined, comb) == parts
    assert refined.leaf_count == N + (N + 2) // 3


def test_deep_comb_operations():
    # a comb against itself cancels caret by caret down to one leaf; the
    # left and right combs share no caret
    assert reduce_pair(TreePair(LEFT_COMB, LEFT_COMB)) == identity()
    assert reduce_pair(TreePair(LEFT_COMB, RIGHT_COMB)) == TreePair(LEFT_COMB, RIGHT_COMB)
    # left comb: x0^(N-2) in leaf 0; right comb: no exponents
    assert leaf_exponents(LEFT_COMB) == [N - 2] + [0] * (N - 1)
    assert leaf_exponents(RIGHT_COMB) == [0] * N
    # their refinement copies the left comb's left and the right comb's right
    m = common_refinement(LEFT_COMB, RIGHT_COMB)
    assert m.bits == "1" + LEFT_COMB.bits[1 : N - 1] + "0" * (N - 1) + RIGHT_COMB.bits[2:]
    assert len(split_along(m, LEFT_COMB)) == len(split_along(m, RIGHT_COMB)) == N


def test_deep_comb_spans():
    # the walk keeps its own stack, so depth costs no recursion
    left = [(0, N - 1 - i, N - i) for i in range(N - 1)]
    right = [(i, i + 1, N) for i in range(N - 1)]
    for comb, spans in ((LEFT_COMB, left), (RIGHT_COMB, right)):
        first, gap = node_spans(comb)
        assert list(zip(first, gap, _span_ends(first, gap))) == spans
    # node i holds its children at darts 2i and 2i + 1
    assert tree_darts(LEFT_COMB, 0, 2, 0, 1) == (
        [2 * i for i in range(N - 2)],
        [2 * (N - 2)] + [2 * (N - 1 - k) + 1 for k in range(1, N)],
        [2 * (N - 1 - g) + 1 for g in range(1, N)],
    )
    assert tree_darts(RIGHT_COMB, 0, 2, 0, 1) == (
        [2 * i + 1 for i in range(N - 2)],
        [2 * k for k in range(N - 1)] + [2 * (N - 2) + 1],
        [2 * i + 1 for i in range(N - 1)],
    )
