"""The Kauffman bracket by frontier contraction, and the unit comparator.

The bracket is characterized by

    <U> = 1,   <L_X> = A <L_0> + A^-1 <L_oo>,   <L u U> = (-A^2 - A^-2) <L>.

Crossings are added one at a time, the next being the one with the most
arcs already open.  After each step the smoothed part of the diagram is a
set of closed loops plus strands joining pairs of open arc ends, so a
state is that matching of open arcs.  Each state carries the sum, over
the smoothings that reach it, of A^(A-smoothings - B-smoothings) times
delta per closed loop, an integer Laurent polynomial.  States with equal
matchings merge, which is what keeps the cost polynomial for diagrams of
bounded width (Bar-Natan's local contraction, applied to the bracket).

Bracket values of diagrams of one link differ by units -A^(+-3) (framing)
and whole factors delta per split trivial component, so link comparison
goes through :func:`equivalent_up_to_units`, a necessary condition whose
failure certifies that two links differ even after adding trivial
components.
"""

from __future__ import annotations

from .laurent import DELTA, ONE, LaurentPolynomial
from .links import LinkDiagram, _join

__all__ = [
    "StateLimitError",
    "kauffman_bracket",
    "equivalent_up_to_units",
]

DEFAULT_STATE_LIMIT = 100_000

# Smoothing of a crossing (a0, a1, a2, a3): the A-smoothing joins slots
# 0-1 and 2-3 and contributes A, the B-smoothing joins 0-3 and 1-2 and
# contributes A^-1.
_SMOOTHINGS = ((1, ((0, 1), (2, 3))), (-1, ((0, 3), (1, 2))))
# A^weight * delta^loops, for the at most two loops one smoothing closes
_FACTORS = {(w, k): (DELTA**k).shifted(w) for w in (1, -1) for k in range(3)}


class StateLimitError(ValueError):
    """Raised when the contraction holds more states than the configured bound."""


def kauffman_bracket(
    d: LinkDiagram, max_states: int = DEFAULT_STATE_LIMIT
) -> LaurentPolynomial:
    """Exact bracket of a diagram, normalized so one free loop gives 1."""
    if d.crossing_count == 0:
        if d.free_loops == 0:
            raise ValueError("the empty diagram has no bracket normalization")
        return DELTA ** (d.free_loops - 1)
    crossings = d.relabeled().crossings
    remaining = list(range(len(crossings)))
    open_arcs: set[int] = set()
    frontier: tuple[int, ...] = ()
    # matching of the frontier arcs (as a tuple aligned with it) -> its sum
    states: dict[tuple[int, ...], LaurentPolynomial] = {(): ONE}
    while remaining:
        # next: the crossing with the most open arcs, the earliest on ties
        ci = max(remaining, key=lambda i: sum(a in open_arcs for a in crossings[i]))
        remaining.remove(ci)
        x = crossings[ci]
        # Name the strand end at each slot: an open arc keeps its label;
        # otherwise slot i is named ~i and linked either to the slot at the
        # other end of its arc (a kink) or to the arc, which opens here.
        names = list(x)
        links: dict[int, int] = {}
        for i, a in enumerate(x):
            if a in open_arcs:
                continue
            names[i] = ~i
            if x.count(a) == 1:
                links[~i], links[a] = a, ~i
            elif x.index(a) < i:
                j = x.index(a)
                links[~i], links[~j] = ~j, ~i
        open_arcs ^= {a for a in x if x.count(a) == 1}
        new_frontier = tuple(sorted(open_arcs))
        # The last crossing closes at least one loop in every state; leaving
        # that loop out of the factor gives the normalization <U> = 1.
        last = not remaining
        new_states: dict[tuple[int, ...], LaurentPolynomial] = {}
        for key, poly in states.items():
            for weight, ((s, t), (u, v)) in _SMOOTHINGS:
                partner = dict(zip(frontier, key))
                partner.update(links)
                closed = _join(partner, names[s], names[t])
                closed += _join(partner, names[u], names[v])
                term = poly * _FACTORS[weight, closed - last]
                out = tuple(partner[a] for a in new_frontier)
                new_states[out] = new_states[out] + term if out in new_states else term
        if len(new_states) > max_states:
            raise StateLimitError(
                f"bracket contraction reached {len(new_states)} states, "
                f"exceeding the bound {max_states}"
            )
        states, frontier = new_states, new_frontier
    return states[()] * DELTA ** d.free_loops


def _unit_equal(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """True when p == s * A^(3k) * q for some sign s and integer k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    shift = p.min_exponent() - q.min_exponent()
    if shift % 3 != 0:
        return False
    moved = q.shifted(shift)
    return p == moved or p == -moved


def equivalent_up_to_units(
    p: LaurentPolynomial, q: LaurentPolynomial, max_unknots: int = 4
) -> bool:
    """Necessary condition for two bracket values to describe one link up to
    trivial components: p * delta^m matches q (or vice versa) up to a sign
    and a power A^(3k), for some 0 <= m <= max_unknots."""
    if max_unknots < 0:
        raise ValueError("max_unknots must be non-negative")
    dp = ONE
    for m in range(max_unknots + 1):
        if _unit_equal(p * dp, q) or _unit_equal(q * dp, p):
            return True
        dp = dp * DELTA
    return False
