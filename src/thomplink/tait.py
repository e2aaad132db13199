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

from .pairs import TreePair
from .trees import node_spans

__all__ = ["TaitGraph", "tait_graph"]


class TaitGraph:
    """A validated signed chord diagram: ``vertex_count`` line vertices, and
    the ``(left, right)`` vertex pairs of the positive arcs above the line
    (``upper``) and of the negative arcs below it (``lower``)."""

    __slots__ = ("vertex_count", "upper", "lower")

    def __init__(self, vertex_count: int, upper, lower):
        self.vertex_count = vertex_count
        self.upper = tuple(upper)
        self.lower = tuple(lower)
        if vertex_count < 1:
            raise ValueError("a Tait graph has at least one vertex")
        for half, arcs in (("upper", self.upper), ("lower", self.lower)):
            # Sorted by left end, outer arcs first, the arcs that contain the
            # current point form a stack of nested spans; an arc that starts
            # inside the top span and ends beyond it overlaps it properly.
            stack: list[tuple[int, int]] = []
            for c, neg_d in sorted((c, -d) for c, d in arcs):
                d = -neg_d
                if not 0 <= c < d < vertex_count:
                    raise ValueError(
                        f"arc ({c},{d}) in half {half} does not run left to right "
                        f"on {vertex_count} vertices"
                    )
                while stack and stack[-1][1] <= c:
                    stack.pop()
                if stack and stack[-1][1] < d:
                    a, b = stack[-1]
                    raise ValueError(f"overlapping arcs ({a},{b}) and ({c},{d}) in half {half}")
                stack.append((c, d))

    @classmethod
    def _of(cls, vertex_count: int, upper, lower) -> "TaitGraph":
        t = object.__new__(cls)  # the arcs of a pair's trees, unchecked
        t.vertex_count, t.upper, t.lower = vertex_count, tuple(upper), tuple(lower)
        return t

    def to_json(self) -> str:
        upper = [[a, b, "U", "+"] for a, b in self.upper]
        lower = [[a, b, "L", "-"] for a, b in self.lower]
        return json.dumps({"n": self.vertex_count, "edges": upper + lower})

    def __repr__(self) -> str:
        return f"TaitGraph(n={self.vertex_count}, upper={len(self.upper)}, lower={len(self.lower)})"


def tait_graph(p: TreePair) -> TaitGraph:
    """The signed graph of a tree pair (the pair need not be reduced)."""
    return TaitGraph._of(p.leaf_count, zip(*node_spans(p.source)), zip(*node_spans(p.target)))
