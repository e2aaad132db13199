"""Tree-pair diagrams: an exact model of Thompson's group F.

An element is a pair of binary trees with the same number of leaves,
considered up to simultaneously attaching or removing a caret at matching
leaves.  Multiplication glues the target of the first operand to the source
of the second on their least common refinement, read in one walk over the
two trees: wherever one tree has a leaf and the other a subtree, that
subtree is grafted under the leaf.  Every equivalence class has a unique
reduced representative, which all operations here return.

The generator ``x_i`` has ``i + 3`` leaves: its source is the right comb of
depth ``i`` finished with the three-leaf block ``((..).)``, its target the
right comb.  The orientation convention is not read off a drawing; it is
pinned by the relation ``x_i^-1 x_j x_i == x_{j+1}`` for ``i < j``, which
the test suite asserts.
"""

from __future__ import annotations

import json
import re
from random import Random

from .trees import (
    LEAF,
    BinaryTree,
    _subtree_end,
    _tree,
    caret,
    graft,
    graft_all,
    is_right_comb,
    leaf_exponents,
    random_tree,
    right_comb,
    tree_from_bits,
    tree_from_exponents,
)

__all__ = [
    "TreePair",
    "Word",
    "WordSyntaxError",
    "identity",
    "make_generator",
    "MAX_WORD_LEAVES",
    "expand",
    "reduce_pair",
    "multiply",
    "invert",
    "equals",
    "from_word",
    "to_word",
    "is_positive",
    "random_element",
]


class TreePair:
    """A source/target pair of binary trees with equal leaf counts."""

    __slots__ = ("source", "target")

    def __init__(self, source: BinaryTree, target: BinaryTree):
        if source.leaf_count != target.leaf_count:
            raise ValueError(
                f"leaf counts differ: {source.leaf_count} != {target.leaf_count}"
            )
        self.source = source
        self.target = target

    @property
    def leaf_count(self) -> int:
        return self.source.leaf_count

    @property
    def is_reduced(self) -> bool:
        """True when no leaf pair is a sibling caret in both trees."""
        return reduce_pair(self).leaf_count == self.leaf_count

    def to_json(self) -> str:
        return json.dumps({"source": self.source.bits, "target": self.target.bits})

    @classmethod
    def from_json(cls, text: str) -> "TreePair":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("tree-pair JSON is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("tree-pair JSON must be an object with source and target")
        trees = []
        for field in ("source", "target"):
            bits = data.get(field)
            if not isinstance(bits, str):
                raise ValueError(f"tree-pair JSON needs a bitstring in {field!r}")
            trees.append(tree_from_bits(bits))
        return cls(*trees)

    def __eq__(self, other) -> bool:
        """Structural equality; use :func:`equals` for group-element equality."""
        return (
            isinstance(other, TreePair)
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash((self.source.bits, self.target.bits))

    def __mul__(self, other: "TreePair") -> "TreePair":
        return multiply(self, other)

    def __invert__(self) -> "TreePair":
        return invert(self)

    def __repr__(self) -> str:
        return f"TreePair({self.source.bits!r}, {self.target.bits!r})"


def identity() -> TreePair:
    return TreePair(LEAF, LEAF)


# A word is built block by block (see from_word).  A block's pair has at
# most its highest index plus its summed |exponents| plus 2 leaves, and a
# product at most its factors' sum, so a word whose blocks' bounds sum past
# this is refused before anything is built
MAX_WORD_LEAVES = 100_000


def make_generator(i: int) -> TreePair:
    """The generator ``x_i`` as a reduced tree pair with ``i + 3`` leaves."""
    if i < 0:
        raise ValueError("generator index must be non-negative")
    if i + 3 > MAX_WORD_LEAVES:
        raise ValueError(f"x_i has i + 3 leaves, more than the bound {MAX_WORD_LEAVES}")
    # i right-comb steps down to the block ((..).)
    return TreePair(tree_from_bits("10" * i + "11000"), right_comb(i + 3))


def expand(p: TreePair, leaf_index: int) -> TreePair:
    """Attach a caret at the given leaf in both trees (elementary expansion)."""
    if not 0 <= leaf_index < p.leaf_count:
        raise IndexError(f"leaf index {leaf_index} out of range for {p.leaf_count} leaves")
    c = caret()
    return TreePair(graft(p.source, leaf_index, c), graft(p.target, leaf_index, c))


def reduce_pair(p: TreePair) -> TreePair:
    """The unique reduced representative of ``p``'s equivalence class.

    One pass over the leaves keeps, for each leaf not yet removed, its run
    of ``1`` bits in either tree.  A leaf whose runs are both empty, after
    one whose runs are both non-empty, is the right leaf of a caret the two
    trees share: the caret collapses into the leaf before it, which loses
    one ``1`` from each run and is checked again.  Reduced diagrams are
    unique, so this order gives what any other order of removals gives.
    """
    src: list[str] = []
    tgt: list[str] = []
    for s, t in zip(p.source.bits.split("0")[:-1], p.target.bits.split("0")[:-1]):
        while not (s or t) and src and src[-1] and tgt[-1]:
            s, t = src.pop()[:-1], tgt.pop()[:-1]
        src.append(s)
        tgt.append(t)
    return TreePair(_tree("0".join(src) + "0"), _tree("0".join(tgt) + "0"))


def multiply(p: TreePair, q: TreePair) -> TreePair:
    """Reduced product ``p * q``: glue the target of ``p`` to the source of ``q``.

    One walk over ``p.target`` and ``q.source`` in step expands both
    operands to the least common refinement of those trees.  Where both
    have a node the walk steps into both.  Where ``p.target`` has a leaf and
    ``q.source`` a subtree S, S is grafted under that leaf of ``p`` and
    ``q`` keeps S's leaves bare; where ``q.source`` has the leaf, the same
    holds with ``p`` and ``q`` swapped.  The product is the pair of the
    grafted source of ``p`` and grafted target of ``q``.
    """
    x, y = p.target.bits, q.source.bits
    below_p: list[BinaryTree] = []  # what is grafted under each leaf of p
    below_q: list[BinaryTree] = []
    i = j = 0
    while i < len(x):
        if x[i] == "0":
            end = _subtree_end(y, j)
            sub = _tree(y[j:end])
            below_p.append(sub)
            below_q += [LEAF] * sub.leaf_count
            i, j = i + 1, end
        elif y[j] == "0":
            end = _subtree_end(x, i)
            sub = _tree(x[i:end])
            below_q.append(sub)
            below_p += [LEAF] * sub.leaf_count
            i, j = end, j + 1
        else:
            i, j = i + 1, j + 1
    return reduce_pair(TreePair(graft_all(p.source, below_p), graft_all(q.target, below_q)))


def invert(p: TreePair) -> TreePair:
    """Swap source and target trees."""
    return TreePair(p.target, p.source)


def equals(p: TreePair, q: TreePair) -> bool:
    """Group-element equality: reduced representatives coincide."""
    return reduce_pair(p) == reduce_pair(q)


def is_positive(p: TreePair) -> bool:
    """True when the reduced target tree is the right comb."""
    return is_right_comb(reduce_pair(p).target)


class WordSyntaxError(ValueError):
    """Raised for malformed generator words."""


_TOKEN = re.compile(r"^x([0-9]+)(?:\^(-?[0-9]+))?$")


class Word:
    """A word in the generators ``x_i``: a sequence of (index, exponent) factors.

    Adjacent factors with equal indices are merged and zero exponents
    dropped, so the empty word is the identity.  Text form: whitespace
    separated tokens ``x<k>``, ``x<k>^<m>`` or ``x<k>^-<m>``.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        merged: list[tuple[int, int]] = []
        for index, exponent in factors:
            if index < 0:
                raise WordSyntaxError(f"negative generator index {index}")
            if exponent == 0:
                continue
            if merged and merged[-1][0] == index:
                combined = merged[-1][1] + exponent
                merged.pop()
                if combined:
                    merged.append((index, combined))
            else:
                merged.append((index, exponent))
        self.factors = tuple(merged)

    @classmethod
    def parse(cls, text: str) -> "Word":
        factors = []
        for token in text.split():
            m = _TOKEN.match(token)
            if not m:
                raise WordSyntaxError(f"bad generator token {token!r}")
            factors.append((int(m.group(1)), int(m.group(2) or 1)))
        return cls(factors)

    def inverse(self) -> "Word":
        return Word((i, -e) for i, e in reversed(self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return ""
        return " ".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in self.factors
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"Word({self.factors!r})"


def from_word(w: Word | str) -> TreePair:
    """Reduced tree pair of a generator word.

    The word is read as blocks P N^-1, each a run of positive factors with
    strictly increasing indices and then a run of negative factors with
    strictly decreasing indices; a normal-form word is one block.  A run is
    the tree of its exponents over a right comb, so its block is the pair of
    the two trees, the smaller padded with a right comb at its last leaf.
    Successive blocks are multiplied, so a normal form needs no multiply.
    """
    if isinstance(w, str):
        w = Word.parse(w)
    blocks = _blocks(w.factors)
    if sum(map(_block_leaf_bound, blocks)) > MAX_WORD_LEAVES:
        raise ValueError(f"the word could build more than the bound of {MAX_WORD_LEAVES} leaves")
    acc = None
    for positive, negative in blocks:
        block = _block_pair(positive, negative)
        acc = reduce_pair(block) if acc is None else multiply(acc, block)
    return acc


def _blocks(factors) -> list[tuple[list, list]]:
    """The word's factors cut into (positive run, negative run) blocks of
    (index, |exponent|) factors in the word's order; the empty word is one
    empty block."""
    blocks = [([], [])]
    for i, e in factors:
        positive, negative = blocks[-1]
        if e > 0 and not negative and (not positive or i > positive[-1][0]):
            positive.append((i, e))
        elif e < 0 and (not negative or i < negative[-1][0]):
            negative.append((i, -e))
        else:
            blocks.append(([(i, e)], []) if e > 0 else ([], [(i, -e)]))
    return blocks


def _block_leaf_bound(block) -> int:
    """At least the leaves of a block's pair: its highest index plus its
    summed exponents plus 2."""
    factors = block[0] + block[1]
    return max((i for i, _ in factors), default=0) + sum(e for _, e in factors) + 2


def _block_pair(positive, negative) -> TreePair:
    """The pair of P N^-1 from P's ascending and N^-1's descending factors,
    each tree padded to the larger's leaves with a right comb at its last
    leaf."""
    trees = tree_from_exponents(positive), tree_from_exponents(negative[::-1])
    n = max(t.leaf_count for t in trees)
    return TreePair(*(graft(t, t.leaf_count - 1, right_comb(n + 1 - t.leaf_count)) for t in trees))


def _positive_factors(tree: BinaryTree) -> list[tuple[int, int]]:
    return [(k, e) for k, e in enumerate(leaf_exponents(tree)) if e > 0]


def to_word(p: TreePair) -> Word:
    """Normal-form word of ``p``: a positive part with non-decreasing indices
    followed by a negative part with non-increasing indices."""
    r = reduce_pair(p)
    positive = _positive_factors(r.source)
    negative = [(k, -e) for k, e in reversed(_positive_factors(r.target))]
    return Word(positive + negative)


def random_element(rng: Random, max_leaves: int = 10) -> TreePair:
    """Random reduced element with at most ``max_leaves`` leaves."""
    n = rng.randint(1, max_leaves)
    return reduce_pair(TreePair(random_tree(n, rng), random_tree(n, rng)))
