from random import Random

import pytest

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
from thomplink.pairs import MAX_WORD_LEAVES


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
    # x_i^k has i + |k| + 2 leaves; a word is refused on that sum before
    # anything is built
    for word in (f"x0^{MAX_WORD_LEAVES - 1}", f"x0^-{MAX_WORD_LEAVES}", f"x{MAX_WORD_LEAVES}",
                 f"x2^{MAX_WORD_LEAVES // 2} x3^-{MAX_WORD_LEAVES // 2}", "x99999999999999999999"):
        with pytest.raises(ValueError):
            from_word(word)
    with pytest.raises(ValueError):
        make_generator(MAX_WORD_LEAVES - 2)
    assert make_generator(MAX_WORD_LEAVES - 3).leaf_count == MAX_WORD_LEAVES
    assert from_word(f"x0^{MAX_WORD_LEAVES // 4}").leaf_count == MAX_WORD_LEAVES // 4 + 2


def test_powers_match_repeated_multiplication():
    # from_word raises a factor to its power by squaring
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
