"""The two element families driving the theorem-reproduction experiments.

Family one: wrap any reduced element inside the fixed 5-leaf element
``a = x0^3 x2^-1 x0^-3`` by grafting its source/target trees onto the
first leaf of a's trees.  Each wrap adds exactly four leaves and keeps the
diagram reduced, the produced link never changes, and the reduced annular
diagrams gain one component per step, so the sequence crosses infinitely
many conjugacy classes while drawing one link.

Family two: positive elements g_n whose source tree T_n grows by a
three-leaf block on the rightmost leaf.  Conjugating the generators by
them stays inside one conjugacy class while the links run through the
2-bridge family C(1, ..., 1).
"""

from __future__ import annotations

from functools import cache

from .pairs import TreePair, from_word, invert, multiply, reduce_pair
from .trees import BinaryTree, LEAF, _tree, graft, right_comb

__all__ = [
    "element_a",
    "attach_a",
    "h_sequence",
    "tree_T",
    "g_element",
    "h_element",
    "conjugate",
]

_A_WORD = "x0 x0 x0 x2^-1 x0^-1 x0^-1 x0^-1"


@cache
def element_a() -> TreePair:
    """The reduced 5-leaf element a = x0^3 x2^-1 x0^-3."""
    return from_word(_A_WORD)


def attach_a(p: TreePair) -> TreePair:
    """Graft ``p``'s trees onto the first leaf of a's trees.

    For reduced input the output is reduced and has exactly four more
    leaves; it always represents a different group element.
    """
    a = element_a()
    return TreePair(graft(a.source, 0, p.source), graft(a.target, 0, p.target))


def h_sequence(seed: TreePair, n: int) -> tuple[TreePair, ...]:
    """``n`` elements starting from the reduced ``seed``, each wrapped once
    more."""
    if n < 1:
        raise ValueError("need at least one element")
    seed = reduce_pair(seed)
    out = [seed]
    for _ in range(n - 1):
        out.append(attach_a(out[-1]))
    return tuple(out)


def tree_T(n: int) -> BinaryTree:
    """T_0 is the caret; T_n grafts the three-leaf block ((..).) onto the
    rightmost leaf of T_{n-1}, so T_n has 2n + 2 leaves.  In preorder each
    graft turns the final leaf 0 into 11000."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _tree("10" + "1100" * n + "0")


def g_element(n: int) -> TreePair:
    """Positive element with source T_n and right-comb target."""
    src = tree_T(n)
    return TreePair(src, right_comb(src.leaf_count))


def h_element(n: int) -> TreePair:
    """Positive element whose source hangs T_n under the right leaf of a caret."""
    src = BinaryTree(LEAF, tree_T(n))
    return TreePair(src, right_comb(src.leaf_count))


def conjugate(g: TreePair, x: TreePair) -> TreePair:
    """Reduced ``g * x * g^-1``."""
    return multiply(multiply(g, x), invert(g))
