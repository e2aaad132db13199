"""Minimal deterministic SVG renderings (documentation aid, no styling contract)."""

from __future__ import annotations

from .pairs import TreePair
from .tait import TaitGraph
from .trees import BinaryTree, node_spans

__all__ = ["tree_pair_svg", "tait_graph_svg", "direct_link_svg"]

_SCALE = 40
_HEADER = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}" width="{w}" height="{h}">'


def _span_ends(first: list[int], gap: list[int]) -> list[int]:
    """The end, just past the last leaf, of each node of :func:`node_spans`.
    Node ``j = i + gap - first`` follows node i's left subtree: it is node
    i's right child if it starts at the gap, else that child is a leaf."""
    end = [0] * len(first)
    for i in reversed(range(len(first))):
        j = i + gap[i] - first[i]
        end[i] = end[j] if j < len(first) and first[j] == gap[i] else gap[i] + 1
    return end


def _tree_layout(tree: BinaryTree, flip: bool, out: list[str]) -> tuple[list, list]:
    """Draw ``tree`` above the leaf line (below it if ``flip``); returns the
    gap and the (x, y) of each node in preorder.

    A node sits above the midpoint of its children, one step beyond the
    farther of the two.  Nodes are drawn in postorder, each after its
    subtrees, as a line to the left child and then one to the right child.
    """
    sign = -1 if flip else 1
    first, gap = node_spans(tree)
    end = _span_ends(first, gap)
    pos: list[tuple[float, float]] = [(0.0, 0.0)] * len(first)

    def child(i: int, first: int, last: int) -> tuple[float, float]:
        # the child of node i spanning leaves first..last-1, a leaf or node
        return (first * _SCALE, 0.0) if last - first == 1 else pos[i]

    # postorder: a node closes after every node below it
    for i in sorted(range(len(first)), key=lambda i: (end[i], -i)):
        lx, ly = child(i + 1, first[i], gap[i])
        rx, ry = child(i + gap[i] - first[i], gap[i], end[i])
        x = (lx + rx) / 2
        y = sign * (min(ly * sign, ry * sign) - _SCALE)
        pos[i] = (x, y)
        for cx, cy in ((lx, ly), (rx, ry)):
            out.append(
                f'<line x1="{x:.1f}" y1="{y:.1f}" x2="{cx:.1f}" y2="{cy:.1f}" '
                'stroke="black" stroke-width="2"/>'
            )
    return gap, pos


def _wrap(body: list[str], x0: float, y0: float, x1: float, y1: float) -> str:
    pad = _SCALE
    vb = f"{x0 - pad:.0f} {y0 - pad:.0f} {x1 - x0 + 2 * pad:.0f} {y1 - y0 + 2 * pad:.0f}"
    head = _HEADER.format(vb=vb, w=int(x1 - x0 + 2 * pad), h=int(y1 - y0 + 2 * pad))
    return "\n".join([head, *body, "</svg>"])


def tree_pair_svg(p: TreePair) -> str:
    body: list[str] = []
    _tree_layout(p.source, False, body)
    _tree_layout(p.target, True, body)
    n = p.leaf_count
    body.append(
        f'<line x1="{-_SCALE / 2}" y1="0" x2="{(n - 0.5) * _SCALE:.1f}" y2="0" '
        'stroke="gray" stroke-dasharray="4 4"/>'
    )
    depth = _SCALE * (n + 1)
    return _wrap(body, -_SCALE, -depth, n * _SCALE, depth)


def tait_graph_svg(t: TaitGraph) -> str:
    body: list[str] = []
    for v in range(t.vertex_count):
        body.append(f'<circle cx="{v * _SCALE}" cy="0" r="4" fill="black"/>')
    max_r = _SCALE
    # positive arcs red above the line, negative ones blue below it
    for arcs, sweep, color, sign in ((t.upper, 1, "red", "+"), (t.lower, 0, "blue", "-")):
        for a, b in arcs:
            rx = (b - a) * _SCALE / 2
            cx = (a + b) * _SCALE / 2
            max_r = max(max_r, rx)
            body.append(
                f'<path d="M {a * _SCALE} 0 A {rx:.1f} {rx:.1f} 0 0 {sweep} '
                f'{b * _SCALE} 0" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            label_y = -rx - 4 if sweep else rx + 12
            body.append(
                f'<text x="{cx:.1f}" y="{label_y:.1f}" font-size="12" text-anchor="middle">'
                f"{sign}</text>"
            )
    return _wrap(body, 0, -max_r, (t.vertex_count - 1) * _SCALE, max_r)


def direct_link_svg(p: TreePair) -> str:
    """The source tree above and the target tree below, the two nodes at each
    gap joined by a curve and the roots by one around the left; strands are
    drawn whole, with no crossing marked."""
    body: list[str] = []
    n = p.leaf_count
    if n == 1:
        body.append(f'<circle cx="0" cy="0" r="{_SCALE}" fill="none" stroke="black" stroke-width="2"/>')
        return _wrap(body, -_SCALE, -_SCALE, _SCALE, _SCALE)

    up_gaps, up_pos = _tree_layout(p.source, False, body)
    lo_gaps, lo_pos = _tree_layout(p.target, True, body)
    # each tree has one node at every gap 1..n-1: pair them in gap order
    up_by_gap = sorted(zip(up_gaps, up_pos))
    lo_by_gap = sorted(zip(lo_gaps, lo_pos))
    for (gap, (ux, uy)), (_, (lx, ly)) in zip(up_by_gap, lo_by_gap):
        x = (gap - 0.5) * _SCALE
        body.append(
            f'<path d="M {ux:.1f} {uy:.1f} Q {x:.1f} 0 {lx:.1f} {ly:.1f}" '
            'fill="none" stroke="green" stroke-width="1.5"/>'
        )
    rx_up = up_pos[0]
    rx_lo = lo_pos[0]
    left = -1.2 * _SCALE
    body.append(
        f'<path d="M {rx_up[0]:.1f} {rx_up[1]:.1f} C {left:.1f} {rx_up[1]:.1f} '
        f'{left:.1f} {rx_lo[1]:.1f} {rx_lo[0]:.1f} {rx_lo[1]:.1f}" '
        'fill="none" stroke="green" stroke-width="1.5"/>'
    )
    depth = _SCALE * (n + 1)
    return _wrap(body, left, -depth, n * _SCALE, depth)
