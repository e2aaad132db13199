from random import Random

import pytest

import thomplink.pairs
from thomplink import (
    TreePair,
    Word,
    WordSyntaxError,
    equals,
    expand,
    from_word,
    identity,
    invert,
    is_positive,
    make_generator,
    multiply,
    random_element,
    reduce_pair,
    to_word,
)
from thomplink.pairs import MAX_WORD_LEAVES, _block_leaf_bound, _block_pair, _blocks
from thomplink.trees import graft_all, random_tree, tree_from_bits
from util import common_refinement, factor_product, rescan_reduce_pair, split_along, unreduced_pair


def test_generator_shapes():
    x0 = make_generator(0)
    assert x0.source.bits == "11000"
    assert x0.target.bits == "10100"
    for i in range(7):
        xi = make_generator(i)
        assert xi.leaf_count == i + 3
        assert xi.is_reduced


def test_defining_relations():
    # x_i^-1 x_j x_i = x_{j+1} for i < j pins the orientation convention
    for i in range(5):
        for j in range(i + 1, 5):
            lhs = multiply(invert(make_generator(i)), multiply(make_generator(j), make_generator(i)))
            assert lhs == make_generator(j + 1), (i, j)


def test_multiply_unit_and_inverse():
    assert invert(identity()) == identity()
    assert invert(invert(make_generator(1))) == make_generator(1)
    rng = Random(10)
    for _ in range(50):
        g = random_element(rng)
        assert multiply(g, identity()) == reduce_pair(g)
        assert multiply(identity(), g) == reduce_pair(g)
        assert multiply(g, invert(g)) == identity()
        assert multiply(invert(g), g) == identity()


def test_associativity_fuzz():
    rng = Random(11)
    for _ in range(100):
        a, b, c = (random_element(rng, 8) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_leaf_counts_stay_matched():
    rng = Random(12)
    for _ in range(50):
        a, b = random_element(rng), random_element(rng)
        p = multiply(a, b)
        assert p.source.leaf_count == p.target.leaf_count


def test_mismatched_pair_rejected():
    with pytest.raises(ValueError):
        TreePair(make_generator(0).source, identity().target)


def test_expand_reduce():
    x0 = make_generator(0)
    assert expand(identity(), 0) == TreePair.from_json('{"source": "100", "target": "100"}')
    assert reduce_pair(expand(identity(), 0)) == identity()
    for k in range(3):
        assert reduce_pair(expand(x0, k)) == x0
        assert equals(x0, expand(x0, k))
        assert expand(x0, k).leaf_count == x0.leaf_count + 1
    with pytest.raises(IndexError):
        expand(x0, 3)


def test_reduce_is_retraction():
    from thomplink.trees import random_tree

    rng = Random(13)
    for _ in range(100):
        n = rng.randint(1, 9)
        p = TreePair(random_tree(n, rng), random_tree(n, rng))
        # build an unreduced pair by random matched expansion
        q = p
        for _ in range(rng.randint(0, 3)):
            q = expand(q, rng.randrange(q.leaf_count))
        r = reduce_pair(q)
        assert reduce_pair(r) == r
        assert equals(q, r)


def _unreduced_product(p: TreePair, q: TreePair) -> TreePair:
    """``p * q`` on the least common refinement, before any caret cancels."""
    mid = common_refinement(p.target, q.source)
    return TreePair(
        graft_all(p.source, split_along(mid, p.target)),
        graft_all(q.target, split_along(mid, q.source)),
    )


def test_reduce_matches_rescan_oracle():
    rng = Random(15)
    pairs = [unreduced_pair(rng, rng.randint(1, 40)) for _ in range(400)]
    for _ in range(200):
        q = random_element(rng, 20)
        for _ in range(rng.randint(1, 12)):
            q = expand(q, rng.randrange(q.leaf_count))
        pairs.append(q)
    for _ in range(200):
        a, b = random_element(rng, 20), random_element(rng, 20)
        pairs += (_unreduced_product(a, b), _unreduced_product(a, invert(a)))
    for p in pairs:
        r = reduce_pair(p)
        assert r == rescan_reduce_pair(p), p
        assert r.is_reduced


def _expanded(rng: Random, p: TreePair) -> TreePair:
    for _ in range(rng.randint(1, 4)):
        p = expand(p, rng.randrange(p.leaf_count))
    return p


def test_multiply_matches_refinement_reference():
    # the one-walk product against the refinement built as a tree and cut
    # apart along each glued tree
    rng = Random(18)
    operands = [(random_element(rng, 60), random_element(rng, 60)) for _ in range(300)]
    for _ in range(200):
        operands.append(tuple(_expanded(rng, random_element(rng, 30)) for _ in range(2)))
    for _ in range(20):
        p = random_element(rng, 30)
        t = random_tree(rng.randint(1, 10), rng)
        operands += [(identity(), p), (p, identity()), (TreePair(t, t), p), (p, TreePair(t, t))]
    n = 10_000
    left = tree_from_bits("1" * (n - 1) + "0" * n)
    right = tree_from_bits("10" * (n - 1) + "0")
    to_left, to_right = TreePair(right, left), TreePair(left, right)
    # the glued trees are left x right, right x left and left x left
    operands += [(to_left, to_left), (to_right, to_right), (to_left, to_right)]
    for p, q in operands:
        assert multiply(p, q) == reduce_pair(_unreduced_product(p, q)), (p, q)
    assert multiply(to_left, to_right) == identity()
    assert multiply(to_left, to_left).leaf_count == 2 * n - 2


def test_equals_examples():
    x0, x1 = make_generator(0), make_generator(1)
    assert equals(x0, expand(x0, 0))
    assert not equals(x0, x1)


def test_word_parse_and_format():
    w = Word.parse("x0 x2^-1 x0^3")
    assert w.factors == ((0, 1), (2, -1), (0, 3))
    assert str(w) == "x0 x2^-1 x0^3"
    assert Word.parse("").factors == ()
    assert Word([(1, 2), (1, -2), (0, 1)]).factors == ((0, 1),)
    for bad in ("y0", "x", "x^2", "x-1", "x0^", "x\u0663", "x0^\u0663"):  # Arabic-Indic 3
        with pytest.raises(WordSyntaxError):
            Word.parse(bad)


def test_from_word_basics():
    assert from_word(Word()) == identity()
    assert from_word("x0") == make_generator(0)
    assert to_word(identity()) == Word()
    assert str(to_word(make_generator(3))) == "x3"


def test_word_size_bound():
    # a word is refused before anything is built when its blocks' bounds
    # (highest index + summed |exponents| + 2 each) sum past the bound
    for word in (f"x0^{MAX_WORD_LEAVES - 1}", f"x0^-{MAX_WORD_LEAVES}", f"x{MAX_WORD_LEAVES}",
                 f"x2^{MAX_WORD_LEAVES // 2} x3^-{MAX_WORD_LEAVES // 2}", "x99999999999999999999"):
        with pytest.raises(ValueError):
            from_word(word)
    with pytest.raises(ValueError):
        make_generator(MAX_WORD_LEAVES - 2)
    assert make_generator(MAX_WORD_LEAVES - 3).leaf_count == MAX_WORD_LEAVES
    assert from_word(f"x0^{MAX_WORD_LEAVES // 4}").leaf_count == MAX_WORD_LEAVES // 4 + 2


def test_powers_match_repeated_multiplication():
    # from_word writes a power as the tree of its exponent, with no product
    for k in range(4):
        for sign in (1, -1):
            gen = make_generator(k) if sign > 0 else invert(make_generator(k))
            acc = identity()
            for e in range(13):
                assert from_word(Word([(k, sign * e)])) == acc, (k, sign * e)
                acc = multiply(acc, gen)
    assert from_word("x1^5 x0^-7 x2^3") == multiply(
        multiply(from_word("x1^5"), from_word("x0^-7")), from_word("x2^3")
    )


def _random_word(rng: Random) -> Word:
    """Up to eight factors in any index order, indices repeating, signs mixed
    and exponents up to 6 in size."""
    return Word(
        (rng.randint(0, 5), rng.choice((-1, 1)) * rng.randint(1, 6))
        for _ in range(rng.randint(0, 8))
    )


def test_from_word_matches_factor_product_fuzz():
    rng = Random(15)
    words = [Word(), Word.parse("")] + [_random_word(rng) for _ in range(2000)]
    # normal forms, and words that start or end at either sign
    words += [to_word(random_element(rng, 12)) for _ in range(200)]
    words += [Word.parse(text) for text in ("x2^-1 x0", "x0 x2 x1", "x3^-2 x1^-1 x2^-4", "x1^-1 x1^2")]
    for w in words:
        assert from_word(w) == factor_product(w), w


def _left_combs(rng: Random, n: int):
    """A random tree of up to 8 leaves with a left comb at each leaf, ``n``
    leaves in all."""
    k = rng.randint(1, 8)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return graft_all(random_tree(k, rng), [tree_from_bits("1" * (m - 1) + "0" * m) for m in sizes])


def test_word_bound_covers_what_is_built():
    # each block's pair, and each product of the blocks so far with the
    # refinement it is built on, has at most the summed bounds of its blocks
    rng = Random(17)
    words = [
        Word((rng.randint(0, 40), rng.choice((-1, 1)) * rng.randint(1, 20)) for _ in range(rng.randint(0, 12)))
        for _ in range(500)
    ]
    words += [to_word(random_element(rng, 80)) for _ in range(100)]
    for w in words:
        acc, bound = None, 0
        for block in _blocks(w.factors):
            pair = _block_pair(*block)
            assert pair.leaf_count <= _block_leaf_bound(block), (w, block)
            bound += _block_leaf_bound(block)
            if acc is None:
                acc = reduce_pair(pair)
            else:
                assert common_refinement(acc.target, pair.source).leaf_count <= bound, w
                acc = multiply(acc, pair)
        assert acc == from_word(w) and acc.leaf_count <= bound


def test_normal_forms_need_no_multiply(monkeypatch):
    rng = Random(16)
    elements = [random_element(rng, 12) for _ in range(190)]
    # Left combs grafted at the leaves of small random trees give a few
    # factors with indices and exponents in the thousands.  The two trees can share carets, so keep the pairs that
    # stay large after reduction.
    large = []
    while len(large) < 10:
        n = rng.randint(1000, 3000)
        g = reduce_pair(TreePair(_left_combs(rng, n), _left_combs(rng, n)))
        if g.leaf_count >= 1000:
            large.append(g)
    elements += large

    def refuse(p, q):
        raise AssertionError("a normal-form word was multiplied out")

    monkeypatch.setattr(thomplink.pairs, "multiply", refuse)
    for g in elements:
        assert from_word(to_word(g)) == g
    assert from_word(f"x0^{MAX_WORD_LEAVES // 4}").leaf_count == MAX_WORD_LEAVES // 4 + 2


def test_word_round_trip_fuzz():
    rng = Random(14)
    for _ in range(100):
        g = random_element(rng)
        w = to_word(g)
        assert from_word(w) == g
        # normal form: positive part non-decreasing, negative non-increasing
        signs = [e > 0 for _, e in w.factors]
        assert signs == sorted(signs, reverse=True)
        pos = [i for i, e in w.factors if e > 0]
        neg = [i for i, e in w.factors if e < 0]
        assert pos == sorted(pos)
        assert neg == sorted(neg, reverse=True)


def test_is_positive():
    for i in range(5):
        assert is_positive(make_generator(i))
    assert not is_positive(invert(make_generator(0)))
    assert is_positive(identity())
    assert is_positive(multiply(make_generator(0), make_generator(2)))


def test_json_round_trip():
    g = from_word("x0 x1^2 x3^-1")
    assert TreePair.from_json(g.to_json()) == g
