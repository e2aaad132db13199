"""Tree-pair diagrams: an exact model of Thompson's group F.

An element is a pair of binary trees with the same number of leaves,
considered up to simultaneously attaching or removing a caret at matching
leaves.  Multiplication expands both operands to a common refinement where
the target of the first equals the source of the second and glues them;
every equivalence class has a unique reduced representative, which all
operations here return.

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
    caret,
    caret_positions,
    common_refinement,
    graft,
    graft_all,
    is_right_comb,
    leaf_exponents,
    random_tree,
    remove_caret,
    right_comb,
    split_along,
    tree_from_bits,
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
        return not (caret_positions(self.source) & caret_positions(self.target))

    def to_json(self) -> str:
        return json.dumps({"source": self.source.bits, "target": self.target.bits})

    @classmethod
    def from_json(cls, text: str) -> "TreePair":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("tree-pair JSON is nested too deeply") from None
        return cls(tree_from_bits(data["source"]), tree_from_bits(data["target"]))

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


# x_i^k has i + |k| + 2 leaves and a product at most its factors' sum, so a
# word whose sum exceeds this bound is refused before anything is built
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
    """The unique reduced representative of ``p``'s equivalence class."""
    source, target = p.source, p.target
    while True:
        shared = caret_positions(source) & caret_positions(target)
        if not shared:
            return TreePair(source, target)
        i = min(shared)
        source = remove_caret(source, i)
        target = remove_caret(target, i)


def multiply(p: TreePair, q: TreePair) -> TreePair:
    """Reduced product ``p * q``: glue the target of ``p`` to the source of ``q``.

    Both operands are expanded to the least common refinement of
    ``p.target`` and ``q.source``; the product is the pair made of the
    refined source of ``p`` and refined target of ``q``.
    """
    mid = common_refinement(p.target, q.source)
    source = graft_all(p.source, split_along(mid, p.target))
    target = graft_all(q.target, split_along(mid, q.source))
    return reduce_pair(TreePair(source, target))


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
    """Reduced tree pair of a generator word, multiplied left to right."""
    if isinstance(w, str):
        w = Word.parse(w)
    if sum(i + abs(e) + 2 for i, e in w.factors) > MAX_WORD_LEAVES:
        raise ValueError(f"the word could build more than the bound of {MAX_WORD_LEAVES} leaves")
    acc = identity()
    for index, exponent in w.factors:
        gen = make_generator(index)
        if exponent < 0:
            gen = invert(gen)
        acc = multiply(acc, _power(gen, abs(exponent)))
    return acc


def _power(p: TreePair, k: int) -> TreePair:
    """``p`` to the positive power ``k``, by repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = p if result is None else multiply(result, p)
        k >>= 1
        if not k:
            return result
        p = multiply(p, p)


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
