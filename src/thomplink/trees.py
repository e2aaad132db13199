"""Rooted finite binary trees stored as their preorder bitstrings.

A tree is either a leaf or an internal node with exactly two children.
The preorder serialization writes ``1`` for a node followed by the
encodings of its children and ``0`` for a leaf, so a tree with ``n``
leaves becomes a string of ``2n - 1`` bits.  A tree *is* that validated
string: every operation below is a loop or a string operation over it, so
any depth works.  The bitstring is total-order comparable and round-trips
exactly, which makes it suitable for golden files and JSON payloads.

Most operations read ``bits.split("0")``: its ``k``-th entry is the run of
``1`` bits just before leaf ``k``, which is the chain of left-child edges
above that leaf.  A caret (a node with two leaf children) is exactly the
substring ``100``: a run ending in ``1`` followed by an empty run.
"""

from __future__ import annotations

from random import Random

__all__ = [
    "BinaryTree",
    "LEAF",
    "caret",
    "right_comb",
    "is_right_comb",
    "tree_from_bits",
    "tree_darts",
    "node_spans",
    "graft",
    "graft_all",
    "leaf_exponents",
    "tree_from_exponents",
    "random_tree",
]


class BinaryTree:
    """Immutable rooted binary tree; leaves carry no payload."""

    __slots__ = ("bits", "leaf_count")

    def __init__(self, left: "BinaryTree | None" = None, right: "BinaryTree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("an internal node needs exactly two children")
        if left is None:
            self.bits = "0"
            self.leaf_count = 1
        else:
            self.bits = "1" + left.bits + right.bits
            self.leaf_count = left.leaf_count + right.leaf_count

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryTree) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"BinaryTree({self.bits!r})"


def _tree(bits: str) -> BinaryTree:
    """Wrap a bitstring already known to be a valid tree."""
    t = BinaryTree.__new__(BinaryTree)
    t.bits = bits
    t.leaf_count = (len(bits) + 1) // 2
    return t


def _subtree_end(bits: str, i: int) -> int:
    """Index just past the subtree whose encoding starts at ``bits[i]``."""
    need = 1  # subtrees still to read
    while need:
        need += 1 if bits[i] == "1" else -1
        i += 1
    return i


LEAF = BinaryTree()


def caret() -> BinaryTree:
    return _tree("100")


def right_comb(n: int) -> BinaryTree:
    """The right comb with ``n`` leaves (every left child a leaf)."""
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    return _tree("10" * (n - 1) + "0")


def is_right_comb(t: BinaryTree) -> bool:
    return t.bits == "10" * (t.leaf_count - 1) + "0"


def tree_from_bits(bits: str) -> BinaryTree:
    """Parse a preorder bitstring; inverse of ``BinaryTree.bits``."""
    need = 1  # subtrees still to read
    for b in bits:
        if not need:
            raise ValueError(f"trailing characters in tree bitstring {bits!r}")
        if b == "1":
            need += 1
        elif b == "0":
            need -= 1
        else:
            raise ValueError(f"invalid character {b!r} in tree bitstring")
    if need:
        raise ValueError(f"truncated tree bitstring {bits!r}")
    return _tree(bits)


def tree_darts(
    t: BinaryTree, first: int, stride: int, left: int, right: int
) -> tuple[list[int], list[int], list[int]]:
    """The darts that hold the children of ``t``'s internal nodes, when node
    ``i`` in preorder owns darts ``first + stride * i`` on (``first`` a
    multiple of ``stride``) and holds its children at the slots ``left`` and
    ``right`` of those.  Returns three lists: the dart holding each node but
    the root, in preorder; the dart holding each leaf; and the right-child
    darts in the order their subtrees start, which is gap order 1..n-1.

    The one walk over a bitstring that keeps a stack of the slots still
    waiting for a child, the innermost last.
    """
    nodes, leaves, gaps = [], [], []
    waiting: list[int] = []
    dart = first + left  # the left slot of the next node
    for b in t.bits:
        if waiting:
            slot = waiting.pop()
            if slot % stride == left:
                waiting.append(slot - left + right)
            else:
                gaps.append(slot)
            (nodes if b == "1" else leaves).append(slot)
        if b == "1":
            waiting.append(dart)
            dart += stride
    return nodes, leaves, gaps


def node_spans(t: BinaryTree) -> tuple[list[int], list[int]]:
    """For each internal node of ``t`` in preorder: its first leaf, and its
    gap (the first leaf of its right subtree, where its Tait arc ends), read
    off :func:`tree_darts` with node ``i`` holding its children at darts
    ``2i`` and ``2i + 1``."""
    nodes, _, gaps = tree_darts(t, 0, 2, 0, 1)
    gap = [0] * len(gaps)
    for g, d in enumerate(gaps, 1):
        gap[d >> 1] = g
    first = [0] * len(gaps)
    for i, d in enumerate(nodes, 1):
        # a left child starts where its parent does, a right child at its gap
        first[i] = gap[d >> 1] if d & 1 else first[d >> 1]
    return first, gap


def graft(t: BinaryTree, leaf_index: int, sub: BinaryTree) -> BinaryTree:
    """Replace leaf ``leaf_index`` of ``t`` with ``sub``."""
    if not 0 <= leaf_index < t.leaf_count:
        raise IndexError(f"leaf index {leaf_index} out of range for {t.leaf_count} leaves")
    runs = t.bits.split("0")
    return _tree("0".join(runs[: leaf_index + 1]) + sub.bits + "0".join(runs[leaf_index + 1 :]))


def graft_all(t: BinaryTree, parts: list[BinaryTree]) -> BinaryTree:
    """Replace leaf ``i`` of ``t`` with ``parts[i]`` for every leaf at once."""
    if len(parts) != t.leaf_count:
        raise ValueError("need exactly one replacement per leaf")
    runs = t.bits.split("0")
    out = [runs[0]]
    for part, ones in zip(parts, runs[1:]):
        out += (part.bits, ones)
    return _tree("".join(out))


def leaf_exponents(t: BinaryTree) -> list[int]:
    """Per-leaf exponents of the positive word carried by a tree.

    For leaf ``k`` the exponent is the length of the maximal chain of
    left-child edges climbing from the leaf, reduced by one when the top of
    the chain sits on the right spine.  The tree pair ``(t, right_comb(n))``
    equals the product of ``x_k ** e_k`` with ``k`` ascending.
    """
    exponents = []
    need = 1  # subtrees still to read; 1 exactly on the right spine
    for ones in t.bits.split("0")[:-1]:
        chain = len(ones)
        exponents.append(max(0, chain - 1 if need == 1 else chain))
        need += chain - 1
    return exponents


def tree_from_exponents(factors) -> BinaryTree:
    """The least tree carrying the positive word of ``(k, e)`` factors, with
    ``k`` strictly ascending and every ``e`` positive: the inverse of
    :func:`leaf_exponents`, which reads ``e`` at each leaf ``k`` and 0 at
    every other leaf off the result.

    Leaf ``k``'s chain is ``e`` left-child edges, one more when its top sits
    on the right spine.  A leaf with exponent 0 is a bare ``0`` while
    subtrees are open off the spine and a spine caret's ``10`` after that,
    and the tree ends by closing every subtree still open.
    """
    out: list[str] = []
    need = 1  # subtrees still to write; 1 exactly on the right spine
    leaf = 0  # the next leaf to write
    for k, e in factors:
        if k < leaf or e < 1:
            raise ValueError("factors need strictly ascending leaves and positive exponents")
        bare = min(k - leaf, need - 1)
        need -= bare
        chain = e + (need == 1)
        out += ("0" * bare, "10" * (k - leaf - bare), "1" * chain, "0")
        need += chain - 1
        leaf = k + 1
    out.append("0" * need)
    return _tree("".join(out))


def random_tree(n_leaves: int, rng: Random) -> BinaryTree:
    """Uniform-ish random tree with the given number of leaves.

    Every internal node draws the leaf count of its left subtree; the
    draws are made in preorder.
    """
    if n_leaves < 1:
        raise ValueError("a tree has at least one leaf")
    out: list[str] = []
    pending = [n_leaves]  # leaf counts of the subtrees still to write
    while pending:
        n = pending.pop()
        if n == 1:
            out.append("0")
            continue
        k = rng.randint(1, n - 1)
        out.append("1")
        pending += (n - k, k)
    return _tree("".join(out))
