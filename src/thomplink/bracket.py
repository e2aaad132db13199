"""The Kauffman bracket by frontier contraction, and the unit comparator.

The bracket is characterized by

    <U> = 1,   <L_X> = A <L_0> + A^-1 <L_oo>,   <L u U> = (-A^2 - A^-2) <L>.

Crossings are added one at a time, the next being the one with the most
arcs already open, the earliest on ties: each crossing's count of open arcs
is kept up to date as arcs open, and one lazy min-heap keyed by count and
index gives the next crossing without a rescan.  Every strand end is named
by its dart in the diagram's arc-end index, an open arc by its end still to
be added.  After each step the smoothed part of the diagram is a set of
closed loops plus strands joining pairs of open arc ends, so a state is
that matching of open arcs.  Each state carries the sum, over the
smoothings that reach it, of A^(A-smoothings - B-smoothings) times delta
per closed loop, an integer Laurent polynomial held as a plain
{exponent: coefficient} dict: a smoothing adds shifted copies of its
state's dict into the dict of the state it reaches, one per term of
A^(+-1) delta^k (k <= 2), and a ``LaurentPolynomial`` is built once, at
the end.  States with equal matchings merge, which is what keeps the cost
polynomial for diagrams of bounded width (Bar-Natan's local contraction,
applied to the bracket); the work of a step still grows with the length of
its states' polynomials.

Bracket values of diagrams of one link differ by units -A^(+-3) (framing)
and whole factors delta per split trivial component, so link comparison
goes through :func:`equivalent_up_to_units`, a necessary condition whose
failure certifies that two links differ even after adding trivial
components.
"""

from __future__ import annotations

from heapq import heappop, heappush

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
# contributes A^-1.  Each carries, for the k <= 2 loops it closes, the
# terms (exponent, coefficient) of A^(+-1) * delta^k.
_SMOOTHINGS = tuple(
    ([tuple((DELTA**k).shifted(weight).coeffs.items()) for k in range(3)], joins)
    for weight, joins in ((1, ((0, 1), (2, 3))), (-1, ((0, 3), (1, 2))))
)


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
    partner = d._partner
    n = d.crossing_count
    # opened[c]: slots of crossing c whose arc is open.  It only grows while
    # c waits, so the min-heap keyed (4 - opened[c]) * n + c holds c lazily:
    # an entry whose count has moved on is skipped.
    opened = [0] * n
    added = [False] * n
    heap = list(range(4 * n, 5 * n))
    # An open arc is named by its dart at the crossing still to be added.
    frontier: list[int] = []
    # matching of the frontier arcs (a tuple aligned with it) -> its sum,
    # as {exponent: coefficient}; the free loops are factors from the start
    states: dict[tuple[int, ...], dict[int, int]] = {(): dict((DELTA**d.free_loops).coeffs)}
    for step in range(n):
        # next: the crossing with the most open arcs, the earliest on ties
        while True:
            k, ci = divmod(heappop(heap), n)
            if k + opened[ci] == 4:
                break
        # Slot s is named by its dart first + s.  An open arc's end already
        # has that name; any other end is linked to the far end of its arc,
        # which opens here unless it is another slot of ci (a kink).
        first = 4 * ci
        links: dict[int, int] = {}
        new_arcs = []
        for dart in range(first, first + 4):
            far = partner[dart]
            other = far >> 2
            if added[other]:
                continue
            links[dart] = far
            if other != ci:
                links[far] = dart
                new_arcs.append(far)
                opened[other] += 1
                heappush(heap, (4 - opened[other]) * n + other)
        added[ci] = True
        new_frontier = [a for a in frontier if a >> 2 != ci] + new_arcs
        # The last crossing closes at least one loop in every state; leaving
        # that loop out of the factor gives the normalization <U> = 1.
        last = step == n - 1
        new_states: dict[tuple[int, ...], dict[int, int]] = {}
        for key, poly in states.items():
            items = poly.items()
            frontier_ends = dict(zip(frontier, key))
            frontier_ends.update(links)
            for terms, ((s, t), (u, v)) in _SMOOTHINGS:
                ends = frontier_ends.copy()
                closed = _join(ends, first + s, first + t)
                closed += _join(ends, first + u, first + v)
                out = tuple(map(ends.__getitem__, new_frontier))
                target = new_states.get(out)
                if target is None:
                    target = new_states[out] = {}
                get = target.get
                for shift, coefficient in terms[closed - last]:
                    for e, c in items:
                        e += shift
                        target[e] = get(e, 0) + coefficient * c
        if len(new_states) > max_states:
            raise StateLimitError(
                f"bracket contraction reached {len(new_states)} states, "
                f"exceeding the bound {max_states}"
            )
        states, frontier = new_states, new_frontier
    return LaurentPolynomial(states[()])


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
