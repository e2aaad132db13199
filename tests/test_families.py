from random import Random

import pytest

from thomplink import (
    attach_a,
    conjugate,
    element_a,
    equals,
    from_word,
    g_element,
    h_element,
    h_sequence,
    identity,
    invert,
    is_positive,
    make_generator,
    multiply,
    random_element,
    to_word,
    tree_T,
)
from thomplink.trees import LEAF, BinaryTree, caret, graft
from util import X0, X1, fast_conjugate_shape, split_along


def test_element_a_regression():
    a = element_a()
    # computed by explicit tree multiplication; 5 leaves, matching the
    # drawn 5-leaf wrapper trees
    assert a.leaf_count == 5
    assert a.source.bits == "111000100"
    assert a.target.bits == "111010000"
    assert a.is_reduced
    assert equals(a, from_word("x0 x0 x0 x2^-1 x0^-1 x0^-1 x0^-1"))
    assert not equals(a, identity())
    assert str(to_word(a)) == "x0^2 x1^-1 x0^-2"


def test_attach_a_adds_four_leaves():
    rng = Random(60)
    for _ in range(20):
        p = random_element(rng, 12)
        q = attach_a(p)
        assert q.leaf_count == p.leaf_count + 4
        assert not equals(q, p)
        if p.is_reduced:
            assert q.is_reduced


def test_attach_a_identity():
    q = attach_a(identity())
    assert q.leaf_count == 5
    assert q.is_reduced
    assert equals(q, element_a())


def test_h_sequence():
    seq = h_sequence(element_a(), 5)
    assert len(seq) == 5
    counts = [h.leaf_count for h in seq]
    assert counts == [5, 9, 13, 17, 21]
    for h in seq:
        assert h.is_reduced
    with pytest.raises(ValueError):
        h_sequence(element_a(), 0)
    assert len(h_sequence(element_a(), 1)) == 1


def test_tree_T():
    assert tree_T(0).bits == "100"
    # the formula equals grafting the block ((..).) onto the rightmost leaf
    block, t = BinaryTree(caret(), LEAF), caret()
    for n in range(31):
        assert tree_T(n) == t, n
        t = graft(t, t.leaf_count - 1, block)
    for n in range(6):
        assert tree_T(n).leaf_count == 2 * n + 2
    # pruning the grafted block recovers the previous tree
    for n in range(1, 5):
        parts = split_along(tree_T(n), tree_T(n - 1))
        assert [p.leaf_count for p in parts[:-1]] == [1] * (2 * n - 1)
        assert parts[-1].leaf_count == 3
    with pytest.raises(ValueError):
        tree_T(-1)


def test_g_and_h_elements():
    assert equals(g_element(0), identity())
    for n in range(5):
        assert is_positive(g_element(n))
        assert is_positive(h_element(n))
        assert g_element(n).leaf_count == 2 * n + 2
        assert h_element(n).source.leaf_count == 2 * n + 3
    assert g_element(2).leaf_count == 6


def test_conjugate_basics():
    assert conjugate(identity(), X0) == X0
    for n in range(1, 5):
        c = conjugate(g_element(n), X0)
        assert c.leaf_count == g_element(n).leaf_count + 1
        assert equals(c, multiply(multiply(g_element(n), X0), invert(g_element(n))))


def test_conjugate_fast_path_consistency():
    # the caret-attachment description of g x_i g^-1 for positive g, against
    # the product itself; the x1 case exercises the second-leaf rule
    positive = [multiply(X0, make_generator(2))]  # not of the g_n or h_n shape
    for n in range(1, 9):
        positive += [g_element(n), h_element(n)]
    for g in positive:
        for index, x in enumerate((X0, X1)):
            assert equals(fast_conjugate_shape(g, index), multiply(multiply(g, x), invert(g)))
