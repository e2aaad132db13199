from random import Random

import pytest

from thomplink.pairs import TreePair, identity, reduce_pair
from thomplink.trees import (
    LEAF,
    BinaryTree,
    caret,
    common_refinement,
    graft_all,
    is_right_comb,
    leaf_exponents,
    node_table,
    random_tree,
    right_comb,
    split_along,
    tree_from_bits,
    tree_from_exponents,
)


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


def reference_table(bits: str):
    """Recursive reference for ``node_table``: per node in preorder
    (first, gap, end, parent, side), and the (node, side) holding each leaf."""
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


def table_tuples(t):
    nodes, holders = node_table(t)
    return [(nd.first, nd.gap, nd.end, nd.parent, nd.side) for nd in nodes], holders


def test_node_table_matches_recursive_reference():
    rng = Random(4)
    for _ in range(300):
        t = random_tree(rng.randint(1, 40), rng)
        assert table_tuples(t) == reference_table(t.bits)


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


def test_deep_comb_node_tables():
    left = [(0, N - 1 - i, N - i, i - 1, "L" if i else None) for i in range(N - 1)]
    right = [(i, i + 1, N, i - 1, "R" if i else None) for i in range(N - 1)]
    assert table_tuples(LEFT_COMB) == (left, [(N - 2, "L")] + [(N - 1 - k, "R") for k in range(1, N)])
    assert table_tuples(RIGHT_COMB) == (right, [(k, "L") for k in range(N - 1)] + [(N - 2, "R")])
