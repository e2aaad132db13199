"""Two-bridge (4-plat) oracle diagrams from Conway codes.

A code (c_1, ..., c_k) of positive integers denotes the continued fraction
c_1 + 1/(c_2 + 1/(...)) = p/q; the associated link is the numerator closure
of the rational tangle built from alternating horizontal and vertical twist
regions.  The code is normalized internally to odd length using
[..., c] = [..., c-1, 1] and [..., 1] = [... + 1], which keeps the fraction
and the crossing number while letting the tangle be assembled inside-out:
the last region horizontally on the 0-tangle, then alternating vertical /
horizontal regions, ending with the integer part c_1 horizontal.  Region
handedness is fixed so the resulting diagram is alternating; MIRROR flips
the global chirality and is pinned by the theorem-reproduction experiment
that matches these oracles against conjugate-generator links.
"""

from __future__ import annotations

from math import gcd

from .links import LinkDiagram

__all__ = ["ConwayCode", "continued_fraction", "two_bridge_diagram", "MIRROR"]

# False: east twist regions carry the "/" overstrand as built below.
MIRROR = False


class ConwayCode:
    """A non-empty sequence of positive twist counts."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(c) for c in entries)
        if not entries:
            raise ValueError("a Conway code needs at least one entry")
        if any(c < 1 for c in entries):
            raise ValueError(f"twist counts must be positive: {entries}")
        self.entries = entries

    @classmethod
    def parse(cls, text: str) -> "ConwayCode":
        parts = text.replace(",", " ").split()
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"twist counts are written with the digits 0-9: {text[:40]!r}")
        return cls(map(int, parts))

    def total_crossings(self) -> int:
        return sum(self.entries)

    def __str__(self) -> str:
        return "C(" + ",".join(map(str, self.entries)) + ")"

    def __eq__(self, other) -> bool:
        return isinstance(other, ConwayCode) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)


def continued_fraction(code: ConwayCode) -> tuple[int, int]:
    """Value of c_1 + 1/(c_2 + 1/(...)) as a reduced fraction (p, q)."""
    p, q = code.entries[-1], 1
    for c in reversed(code.entries[:-1]):
        p, q = c * p + q, p
    g = gcd(p, q)
    return p // g, q // g


def _odd_normalized(entries: tuple[int, ...]) -> list[int]:
    """Rewrite to odd length preserving fraction and total crossing count."""
    out = list(entries)
    if len(out) % 2 == 0:
        if out[-1] == 1:
            out.pop()
            out[-1] += 1
        else:
            out[-1] -= 1
            out.append(1)
    return out


class _Tangle:
    """Four dangling corners plus accumulated crossings."""

    def __init__(self):
        self.nw = self.ne = 0  # top strand
        self.sw = self.se = 1  # bottom strand
        self.next_arc = 2
        self.crossings: list[tuple[int, int, int, int]] = []

    def _new(self) -> int:
        self.next_arc += 1
        return self.next_arc - 1

    def east_twist(self) -> None:
        ne2, se2 = self._new(), self._new()
        self.crossings.append((self.ne, self.se, se2, ne2))
        self.ne, self.se = ne2, se2

    def south_twist(self) -> None:
        sw2, se2 = self._new(), self._new()
        self.crossings.append((self.sw, sw2, se2, self.se))
        self.sw, self.se = sw2, se2

    def numerator_closure(self) -> LinkDiagram:
        # join ne to nw and se to sw; a pair that is one arc closes a loop
        rename = {self.ne: self.nw, self.se: self.sw}
        crossings = [[rename.get(a, a) for a in c] for c in self.crossings]
        loops = (self.ne == self.nw) + (self.se == self.sw)
        if MIRROR:
            crossings = [(c[1], c[2], c[3], c[0]) for c in crossings]
        return LinkDiagram(crossings, loops)


def two_bridge_diagram(code: ConwayCode, max_crossings: int = 24) -> LinkDiagram:
    """Alternating 4-plat diagram of the 2-bridge link for ``code``.

    The component count of the result is 1 when the fraction numerator p is
    odd and 2 when p is even.
    """
    if code.total_crossings() > max_crossings:
        raise ValueError(
            f"{code} has {code.total_crossings()} crossings, exceeding {max_crossings}"
        )
    entries = _odd_normalized(code.entries)
    tangle = _Tangle()
    for pos in range(len(entries) - 1, -1, -1):
        twist = tangle.east_twist if pos % 2 == 0 else tangle.south_twist
        for _ in range(entries[pos]):
            twist()
    return tangle.numerator_closure()
