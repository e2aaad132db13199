"""The Kauffman bracket by twist reduction and frontier contraction, and the
unit comparator.

The bracket is characterized by

    <U> = 1,   <L_X> = A <L_0> + A^-1 <L_oo>,   <L u U> = delta <L>,

with delta = -A^2 - A^-2.  Each crossing carries a weight pair (x, y), at
first (A, A^-1): x weighs the smoothing that joins slots 0-1 and 2-3, and y
the one that joins 0-3 and 1-2.  At neighbouring slots s, s+1 the pinch
weight p is the one whose smoothing joins them (x for even s), and o is the
other.  The twist pass removes crossings by three rules that keep the state
sum (the pair form of Goldman & Kauffman, "Rational tangles", 1997):

* Kink, an arc from s to s+1: both smoothings join the arcs at s+2 and s+3,
  and the pinch one closes a loop, so the crossing leaves a factor delta p + o.
* Bigon, arcs from c:s to c2:t and from c:s+1 to c2:t-1: pinching both
  crossings closes a loop, pinching one or both joins c:s+2 to c:s+3 and
  c2:t+1 to c2:t+2, and pinching neither joins c:s+3 to c2:t+1 and c:s+2 to
  c2:t+2.  So c2 merges into c, whose slots become (c:s+2, c:s+3, c2:t+1,
  c2:t+2), with x = p1 o2 + o1 p2 + delta p1 p2 = p1 (delta p2 + o2) + o1 p2
  and y = o1 o2, where (p1, o1) and (p2, o2) are the pairs at the bigon.
* Zero weight: a crossing with x = 0 or y = 0 is its other smoothing alone,
  as a cancelling clasp is, which merges to (0, 1).

By induction over the rules, the exponents of one weight agree mod 4 and x's
are y's plus 2: (A, A^-1) has this, p and o differ by 2, delta moves an
exponent by 2 or 4, and every sum above adds terms that agree mod 4.  So a
weight is a list of coefficients at stride 4.  The pass checks each crossing
once, and again when one of its arcs changes; a 2-bridge diagram keeps no
crossing.  The rest are contracted one at a time, the one with the most arcs
open (the earliest on ties) next.  A state is the matching of open arcs that
the smoothings so far make, and carries their weights times delta per closed
loop; equal matchings merge (Bar-Natan's local contraction).  Its terms
share a parity (x's and y's do, and delta's exponents are even), so a state
is a list at stride 2.  Mod 4 a term is the y exponents' sum plus 2 per x
smoothing and per closed loop, and two sets of smoothings can leave one
matching of open arcs with unequal parities of that count, so not stride 4.

Brackets of one link's diagrams differ by units -A^(+-3) and factors delta
per split unknot; :func:`equivalent_up_to_units` compares them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add, sub

from .laurent import DELTA, LaurentPolynomial
from .links import LinkDiagram, _join

__all__ = ["StateLimitError", "kauffman_bracket", "equivalent_up_to_units"]

DEFAULT_STATE_LIMIT = 100_000

# A weight (e, cs) is sum cs[i] A^(e + 4i), cs without zeros at its ends.  A
# crossing's pair (A, A^-1) has kink values delta p + o of -A^3 and -A^-3.
_ONE, _DELTA, _DELTA2 = (0, [1]), (-2, [-1, -1]), (-4, [1, 2, 1])
_PLAIN, _KINKS = ((1, [1]), (-1, [1])), ((3, [-1]), (-3, [-1]))


def _poly(*products, step=4):
    """The sum of the products p * q of polynomials (e, cs), each the sum of
    cs[i] A^(e + step * i), whose exponents all agree mod ``step``."""
    rows = []  # (exponent, c, a): the longer factor a shifted, times c
    for (e, a), (f, b) in products:
        if len(a) < len(b):
            a, b = b, a
        for c in b:
            if c:
                rows.append((e + f, c, a))
            f += step
    if not rows:
        return 0, []
    e0, c, a = rows.pop()
    if not rows:
        return e0, a if c == 1 else [c * x for x in a]
    out = a[:] if c == 1 else [c * x for x in a]
    for e, c, a in rows:
        i = (e - e0) // step
        if i < 0:
            out[:0] = [0] * -i
            e0, i = e, 0
        j = i + len(a)
        if j > len(out):
            out += [0] * (j - len(out))
        # a row of 1 or -1, as a kink value's is, is added without a copy
        if c == 1:
            out[i:j] = map(add, out[i:j], a)
        elif c == -1:
            out[i:j] = map(sub, out[i:j], a)
        else:
            out[i:j] = [o + c * x for o, x in zip(out[i:j], a)]
    while out and not out[-1]:
        out.pop()
    i = 0
    while out and not out[i]:
        i += 1
    return e0 + step * i, out[i:]


def _spread(w):
    """A weight at stride 2: its coefficients with zeros between them."""
    return w[0], [c for x in w[1] for c in (x, 0)][:-1]


def _smoothings(x, y):
    """A crossing's two smoothings: at stride 2, its weight times delta^k
    for the k <= 2 loops each closes, and its joins."""
    return tuple(
        ([_spread(_poly((w, dk))) for dk in (_ONE, _DELTA, _DELTA2)], joins)
        for w, joins in ((x, ((0, 1), (2, 3))), (y, ((0, 3), (1, 2))))
    )


_PLAIN_SMOOTHINGS = _smoothings(*_PLAIN)


class StateLimitError(ValueError):
    """Raised when a contraction step would make more states than the configured bound."""


def _reduce_twists(partner: list[int]):
    """Apply the three rules to the index ``partner`` (in place) until none
    applies.  Returns the survivors' renumbered index and weight pairs, and
    the factor and the number of loops that the removed crossings leave."""
    n = len(partner) >> 2
    weights, alive = [_PLAIN] * n, [True] * n
    factor, loops, todo = _ONE, 0, list(range(n))
    while todo:
        c = todo.pop()
        if not alive[c]:
            continue
        x, y = weights[c]
        first = 4 * c
        if not (x[1] and y[1]):  # x joins slots 0-1 and 2-3, y 0-3 and 1-2
            s = 1 if x[1] else 3
            w, joins = x if x[1] else y, ((first, first + s), (first + 2, first + (s ^ 2)))
        else:
            for d in range(first, first + 4):
                e = partner[d]
                nd = d ^ (3 if d & 1 else 1)  # the next slot counterclockwise
                if e == nd or (partner[nd] == e ^ (1 if e & 1 else 3) and e >> 2 != c):
                    break  # a kink, or a bigon: the next slot's arc ends just before e
            else:
                continue
            p, o = (y, x) if d & 1 else (x, y)
            if e != nd:  # a bigon: merge e's crossing into c
                pe, pair = partner[nd], weights[e >> 2]
                p2, o2 = pair[::-1] if pe & 1 else pair
                k2 = _KINKS[pe & 1] if pair is _PLAIN else _poly((p2, _DELTA), (o2, _ONE))
                weights[c] = (_poly((p, k2), (o, p2)), _poly((o, o2)))
                alive[e >> 2] = False
                old = (d ^ 2, nd ^ 2, e ^ (3 if e & 1 else 1), e ^ 2)
                for i, f in enumerate([partner[u] for u in old]):
                    f = first + old.index(f) if f in old else f
                    partner[first + i], partner[f] = f, first + i
                todo.append(c)
                continue
            w, joins = _poly((p, _DELTA), (o, _ONE)), ((d ^ 2, nd ^ 2),)  # a kink
        alive[c] = False
        factor = _poly((factor, w))
        for u, v in joins:  # as links._join, queueing the far crossings
            a, b = partner[u], partner[v]
            if a == v:
                loops += 1
            else:
                partner[a], partner[b] = b, a
                todo.extend((a >> 2, b >> 2))
    kept = [c for c in range(n) if alive[c]]
    new = {u: i for i, u in enumerate(u for c in kept for u in range(4 * c, 4 * c + 4))}
    return [new[partner[u]] for u in new], [weights[c] for c in kept], factor, loops


def kauffman_bracket(d: LinkDiagram, max_states: int = DEFAULT_STATE_LIMIT) -> LaurentPolynomial:
    """Exact bracket of a diagram, normalized so one free loop gives 1.
    ``max_states`` bounds the contraction's states after the twist pass; a
    step raises as it is about to make one more, before it builds the rest."""
    if d.crossing_count == 0:
        if d.free_loops == 0:
            raise ValueError("the empty diagram has no bracket normalization")
        return DELTA ** (d.free_loops - 1)
    partner, weights, factor, loops = _reduce_twists(list(d._partner))
    n = len(weights)
    # free and closed loops are factors; with no crossing left one is <U> = 1
    for _ in range(loops + d.free_loops - (n == 0)):
        factor = _poly((factor, _DELTA))
    smoothings = [_PLAIN_SMOOTHINGS if w is _PLAIN else _smoothings(*w) for w in weights]
    # opened[c]: slots of crossing c whose arc is open.  It only grows while
    # c waits, so the min-heap keyed (4 - opened[c]) * n + c holds c lazily:
    # an entry whose count has moved on is skipped.
    opened = [0] * n
    added = [False] * n
    heap = list(range(4 * n, 5 * n))
    # An open arc is named by its dart at the crossing still to be added.
    frontier: list[int] = []
    # matching of the frontier arcs (a tuple aligned with it) -> its sum
    states: dict[tuple[int, ...], tuple] = {(): _spread(factor)}
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
        products: dict[tuple[int, ...], list] = {}  # matching -> (state, weight) pairs
        for key, poly in states.items():
            frontier_ends = dict(zip(frontier, key))
            frontier_ends.update(links)
            for weights, ((s, t), (u, v)) in smoothings[ci]:
                ends = frontier_ends.copy()
                closed = _join(ends, first + s, first + t)
                closed += _join(ends, first + u, first + v)
                out = tuple(map(ends.__getitem__, new_frontier))
                target = products.get(out)
                if target is None:
                    if len(products) == max_states:
                        raise StateLimitError(
                            f"bracket contraction needs more than the bound of {max_states} states"
                        )
                    target = products[out] = []
                target.append((poly, weights[closed - last]))
        states, frontier = {k: _poly(*ps, step=2) for k, ps in products.items()}, new_frontier
    e, cs = states[()]
    return LaurentPolynomial({e + 2 * i: c for i, c in enumerate(cs)})


def _unit_equal(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """True when p == s * A^(3k) * q for some sign s and integer k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    shift = p.min_exponent() - q.min_exponent()
    if shift % 3 != 0:
        return False
    moved = q.shifted(shift)
    return p == moved or p == -moved


def equivalent_up_to_units(p: LaurentPolynomial, q: LaurentPolynomial, max_unknots: int) -> bool:
    """Necessary condition for two bracket values to describe one link up to
    trivial components: p * delta^m matches q (or vice versa) up to a sign
    and a power A^(3k), for some 0 <= m <= max_unknots."""
    if max_unknots < 0:
        raise ValueError("max_unknots must be non-negative")
    if _unit_equal(p, q):
        return True
    dp = DELTA
    for m in range(1, max_unknots + 1):
        if _unit_equal(p * dp, q) or _unit_equal(q * dp, p):
            return True
        dp = dp * DELTA
    return False
