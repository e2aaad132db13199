"""The benchmark's four workloads: a seeded corpus and a checked item each.

A corpus holds only words and tree-pair JSON strings, so every pass parses
its own inputs.  An item runs the pipeline through ``t.call(layer, fn,
*args)``, which times the call when the pass is traced, and returns whether
the verdict agrees with an oracle that does not rest on the layer measured:

* ``thm2``: the bracket of the 4-plat diagram C(1^2n), plus one unknot for
  the x1 family, and conjugacy to the generator by construction.
* ``thm1``: every bracket equivalent to h1's, codes pairwise distinct and
  the component count growing by one per step.
* ``conjugacy``: True for two conjugates of one element, built by
  multiplication; False for pairs whose abelianisation images differ.
* ``census``: the medial-of-Tait and direct routes give equivalent brackets.

``state`` is a dict that lives for one pass, for checks across items.
"""

from __future__ import annotations

import json
from random import Random

import thomplink as tl
from thomplink.strand import annular_of

A_WORD = "x0^3 x2^-1 x0^-3"  # the element a that thm1 wraps


def random_bits(leaves: int, rng: Random) -> str:
    """Preorder bitstring of a random binary tree grown by splitting leaves."""
    root: list = []
    open_leaves = [root]
    for _ in range(leaves - 1):
        i = rng.randrange(len(open_leaves))
        node = open_leaves[i]
        left: list = []
        right: list = []
        node.extend((left, right))
        open_leaves[i] = left
        open_leaves.append(right)
    bits = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node:
            bits.append("1")
            stack.extend((node[1], node[0]))
        else:
            bits.append("0")
    return "".join(bits)


def _end_depths(bits: str) -> tuple[int, int]:
    """Depths of the first and last leaf of a preorder bitstring."""
    first = bits.index("0")
    last = i = 0
    while bits[i] == "1":  # skip the left subtree, step to the right child
        need, i = 1, i + 1
        while need:
            need += 1 if bits[i] == "1" else -1
            i += 1
        last += 1
    return first, last


def abelianisation(pair_json: str) -> tuple[int, int]:
    """log2 slopes at 0 and at 1: a conjugacy invariant read off leaf depths."""
    pair = json.loads(pair_json)
    s0, s1 = _end_depths(pair["source"])
    t0, t1 = _end_depths(pair["target"])
    return s0 - t0, s1 - t1


def _random_pair(leaves: int, rng: Random) -> tl.TreePair:
    source = tl.tree_from_bits(random_bits(leaves, rng))
    target = tl.tree_from_bits(random_bits(leaves, rng))
    return tl.reduce_pair(tl.TreePair(source, target))


def _codes_agree(t, g, h) -> bool:
    codes = []
    for p in (g, h):
        a = t.call("strand.reduce", annular_of, p)
        r = t.call("strand.reduce", tl.reduce_annular, a)
        codes.append(t.call("strand.code", tl.canonical_code, r))
    return codes[0] == codes[1]


# -- thm2: conjugates of x0 and x1 whose links run through C(1^2n) -----------


def thm2_corpus(seed: int, tiny: bool) -> list:
    # The families are fixed, so the seed has nothing to vary.  One
    # 18-crossing bracket per pass (x0, n=5) keeps passes short enough for a
    # steady median; the x1 family stops at n=4.
    top = 3 if tiny else 5
    return [("x0", n) for n in range(1, top + 1)] + [("x1", n) for n in range(1, top)]


def thm2_item(t, entry, state) -> bool:
    word, n = entry
    x = t.call("pairs", tl.from_word, word)
    g = t.call("pairs", tl.g_element if word == "x0" else tl.h_element, n)
    c = t.call("pairs", tl.conjugate, g, x)
    d = t.call("links.simplify", tl.simplify, t.call("links.direct", tl.direct_link, c)).diagram
    b = t.call("bracket", tl.kauffman_bracket, d)
    plat = t.call("conway", tl.two_bridge_diagram, tl.ConwayCode([1] * (2 * n)))
    oracle = t.call("bracket", tl.kauffman_bracket, plat)
    if word == "x1":  # the x1 family's link is C(1^2n) plus one unknot
        oracle = oracle * tl.DELTA
    same_link = t.call("bracket", tl.equivalent_up_to_units, b, oracle, 0)
    return same_link and _codes_agree(t, c, x)


# -- thm1: one link, a new conjugacy class at every wrap ---------------------


def thm1_corpus(seed: int, tiny: bool) -> list:
    return [(A_WORD, n) for n in range(1, (8 if tiny else 60) + 1)]


def thm1_item(t, entry, state) -> bool:
    word, n = entry
    if n == 1:
        h = t.call("pairs", tl.from_word, word)
    else:
        h = t.call("pairs", tl.attach_a, state["h"])
    state["h"] = h
    d = t.call("links.simplify", tl.simplify, t.call("links.direct", tl.direct_link, h)).diagram
    b = t.call("bracket", tl.kauffman_bracket, d)
    same_link = t.call("bracket", tl.equivalent_up_to_units, state.setdefault("bracket", b), b, 4)
    a = t.call("strand.reduce", annular_of, h)
    r = t.call("strand.reduce", tl.reduce_annular, a)
    code = t.call("strand.code", tl.canonical_code, r)
    codes = state.setdefault("codes", set())
    new_class = code not in codes
    codes.add(code)
    components = tl.annular_component_count(r)
    grows = n == 1 or components == state["components"] + 1
    state["components"] = components
    return same_link and new_class and grows


# -- conjugacy: pairs of up to about 100 leaves, half of them conjugate ------


def conjugacy_corpus(seed: int, tiny: bool) -> list:
    """Pairs of conjugates of classes from a fixed pool.

    The canonical code's cost varies a lot with the shape of the reduced
    diagram, which is a conjugacy invariant.  Drawing the classes from a
    pool that does not depend on the seed keeps the work equal across
    seeds; the seed picks the conjugators, so every seed gives other inputs.
    """
    pool_rng, rng = Random(0), Random(seed)
    pairs, smallest, largest = (6, 8, 20) if tiny else (60, 30, 65)
    pool = [
        _random_pair(smallest + (largest - smallest) * i // (pairs - 1), pool_rng)
        for i in range(pairs)
    ]
    classes = [abelianisation(g.to_json()) for g in pool]

    def conjugate(g: tl.TreePair) -> str:
        k = _random_pair(max(2, g.leaf_count // 2), rng)
        return tl.multiply(tl.multiply(k, g), tl.invert(k)).to_json()

    out = []
    for i, g in enumerate(pool):
        if i % 2 == 0:
            out.append((conjugate(g), conjugate(g), True))
        else:  # the next class in the pool with another abelianisation
            j = next(j % pairs for j in range(i + 1, i + pairs) if classes[j % pairs] != classes[i])
            out.append((conjugate(g), conjugate(pool[j]), False))
    return out


def conjugacy_item(t, entry, state) -> bool:
    left, right, expected = entry
    g = t.call("pairs", tl.TreePair.from_json, left)
    h = t.call("pairs", tl.TreePair.from_json, right)
    return _codes_agree(t, g, h) == expected


# -- census: many small elements through both link routes --------------------


def census_corpus(seed: int, tiny: bool) -> list:
    rng = Random(seed)
    # Equal shares of 1 to 8 leaves before reduction.  With 9 and 10 leaves a
    # few links that stay at 13-14 crossings dominate the pass and vary
    # threefold between seeds; the bracket at size is thm2's job.
    return [str(tl.to_word(_random_pair(1 + i % 8, rng))) for i in range(50 if tiny else 3000)]


def census_item(t, word, state) -> bool:
    p = t.call("pairs", tl.from_word, word)
    tait = t.call("links.tait", tl.tait_graph, p)
    routes = (
        t.call("links.direct", tl.direct_link, p),
        t.call("links.tait", tl.medial_link, tait),
    )
    brackets = [
        t.call("bracket", tl.kauffman_bracket, t.call("links.simplify", tl.simplify, d).diagram)
        for d in routes
    ]
    a = t.call("strand.reduce", annular_of, p)
    t.call("strand.code", tl.canonical_code, t.call("strand.reduce", tl.reduce_annular, a))
    return t.call("bracket", tl.equivalent_up_to_units, *brackets, 4)


WORKLOADS = {
    "thm2": (thm2_corpus, thm2_item),
    "thm1": (thm1_corpus, thm1_item),
    "conjugacy": (conjugacy_corpus, conjugacy_item),
    "census": (census_corpus, census_item),
}
