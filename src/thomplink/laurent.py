"""Exact Laurent polynomials in one variable A over the integers.

Sparse representation: a mapping from integer exponents to non-zero
integer coefficients.  ``DELTA`` is the loop value -A^2 - A^-2.
"""

from __future__ import annotations

__all__ = ["LaurentPolynomial", "A", "ONE", "ZERO", "DELTA"]


class LaurentPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    self.coeffs[int(e)] = int(c)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shifted(self, exponent_delta: int) -> "LaurentPolynomial":
        """Multiply by A**exponent_delta."""
        return LaurentPolynomial({e + exponent_delta: c for e, c in self.coeffs.items()})

    def mirrored(self) -> "LaurentPolynomial":
        """Substitute A -> A^-1."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def min_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no exponent range")
        return min(self.coeffs)

    def max_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no exponent range")
        return max(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{c}*A^{e}" for e, c in sorted(self.coeffs.items(), reverse=True)
        )

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.coeffs!r})"


A = LaurentPolynomial({1: 1})
ONE = LaurentPolynomial({0: 1})
ZERO = LaurentPolynomial()
DELTA = LaurentPolynomial({2: -1, -2: -1})
