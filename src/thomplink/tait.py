"""Signed planar graphs on a line of vertices built from tree pairs.

For a pair with ``n`` leaves the graph has vertices ``v_0 .. v_{n-1}`` on a
horizontal line (``v_0`` in front of the first leaf, ``v_i`` between leaves
``i - 1`` and ``i``).  Every internal node of the source tree contributes one
positive arc in the upper half plane, every internal node of the target tree
one negative arc in the lower half plane; the arc of a node runs from the
vertex in front of its leftmost leaf to the vertex in the gap between its two
child subtrees.  Arcs within a half plane are nested or disjoint, never
properly overlapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .pairs import TreePair
from .trees import BinaryTree, node_spans

__all__ = ["TaitEdge", "TaitGraph", "tait_graph"]

UPPER = "U"
LOWER = "L"


@dataclass(frozen=True)
class TaitEdge:
    left: int
    right: int
    half: str  # UPPER or LOWER
    sign: int  # +1 for upper, -1 for lower


class TaitGraph:
    """A validated signed chord diagram: line vertices plus nested arcs."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple[TaitEdge, ...]):
        self.vertex_count = vertex_count
        self.edges = tuple(edges)
        self.validate()

    def validate(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("a Tait graph has at least one vertex")
        for e in self.edges:
            if not (0 <= e.left < e.right < self.vertex_count):
                raise ValueError(f"edge endpoints out of order: {e}")
            if e.half not in (UPPER, LOWER):
                raise ValueError(f"unknown half plane {e.half!r}")
            if e.sign != (1 if e.half == UPPER else -1):
                raise ValueError(f"sign does not match half plane: {e}")
        for half in (UPPER, LOWER):
            # Sorted by left end, outer arcs first, the arcs that contain the
            # current point form a stack of nested spans; an arc that starts
            # inside the top span and ends beyond it overlaps it properly.
            spans = sorted((e.left, -e.right) for e in self.edges if e.half == half)
            stack: list[tuple[int, int]] = []
            for c, neg_d in spans:
                d = -neg_d
                while stack and stack[-1][1] <= c:
                    stack.pop()
                if stack and stack[-1][1] < d:
                    a, b = stack[-1]
                    raise ValueError(
                        f"overlapping arcs ({a},{b}) and ({c},{d}) in half {half}"
                    )
                stack.append((c, d))

    def upper_edges(self) -> list[TaitEdge]:
        return [e for e in self.edges if e.half == UPPER]

    def lower_edges(self) -> list[TaitEdge]:
        return [e for e in self.edges if e.half == LOWER]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.vertex_count,
                "edges": [
                    [e.left, e.right, e.half, "+" if e.sign > 0 else "-"]
                    for e in self.edges
                ],
            }
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TaitGraph)
            and self.vertex_count == other.vertex_count
            and sorted(map(_edge_key, self.edges)) == sorted(map(_edge_key, other.edges))
        )

    def __repr__(self) -> str:
        return f"TaitGraph(n={self.vertex_count}, edges={len(self.edges)})"


def _edge_key(e: TaitEdge):
    return (e.half, e.left, e.right)


def _tree_arcs(tree: BinaryTree, half: str) -> list[TaitEdge]:
    sign = 1 if half == UPPER else -1
    first, gap = node_spans(tree)
    return [TaitEdge(a, b, half, sign) for a, b in zip(first, gap)]


def tait_graph(p: TreePair) -> TaitGraph:
    """The signed graph of a tree pair (the pair need not be reduced)."""
    edges = _tree_arcs(p.source, UPPER) + _tree_arcs(p.target, LOWER)
    return TaitGraph(p.leaf_count, tuple(edges))
