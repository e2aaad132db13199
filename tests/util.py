"""Shared helpers for the test suite."""

from random import Random

from thomplink import (
    LinkDiagram,
    TreePair,
    direct_link,
    make_generator,
    random_element,
)
from thomplink.trees import graft, random_tree


def graft_element(p: TreePair, leaf: int, g: TreePair) -> TreePair:
    """Insert the diagram of ``g`` at a shared leaf of ``p``'s diagram."""
    return TreePair(graft(p.source, leaf, g.source), graft(p.target, leaf, g.target))


def unreduced_pair(rng: Random, leaves: int) -> TreePair:
    return TreePair(random_tree(leaves, rng), random_tree(leaves, rng))


def with_kink(rng: Random, d: LinkDiagram) -> LinkDiagram:
    """Cut one arc of ``d`` and join the cut through a new crossing that
    holds a fresh arc at two of its slots."""
    crossings = [list(c) for c in d.relabeled().crossings]
    top = max(max(c) for c in crossings)
    cut, loop = top + 1, top + 2
    c = rng.choice(crossings)
    slot = rng.randrange(4)
    arc, c[slot] = c[slot], cut
    slots = [arc, cut, loop, loop]
    rng.shuffle(slots)
    crossings.insert(rng.randrange(len(crossings) + 1), slots)
    return LinkDiagram(crossings, d.free_loops)


def random_diagram(rng: Random, max_leaves: int = 8) -> LinkDiagram:
    return direct_link(random_element(rng, max_leaves))


X0 = make_generator(0)
X1 = make_generator(1)
