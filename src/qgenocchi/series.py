"""Truncated formal power series in t over an exact field.

A Series of order N stores the N+1 coefficients of t**0 .. t**N.  The
coefficient field is anything with exact +, *, / and ** (Fraction for the
classical oracles in the tests, RatFunc for q-deformed generating functions).
Binary operations truncate to the smaller order, so precision never
silently exceeds what both operands support.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable


class Series:
    """Coefficients of t**0 .. t**order; arithmetic truncates to min order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable, order: int | None = None) -> None:
        cs = list(coeffs)
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        zero = cs[0] * 0
        cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(zero)
        self.order = order
        self.coeffs = tuple(cs)

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def factorial_coeff(self, n: int):
        """n! times the t**n coefficient (the 'number' at index n)."""
        return self.coeffs[n] * factorial(n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Series):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], self.order)

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        zero = self.coeffs[0] * 0
        out = [zero] * (n + 1)
        for i, ca in enumerate(self.coeffs[: n + 1]):
            if ca == zero:
                continue
            for j in range(n + 1 - i):
                out[i + j] += ca * other.coeffs[j]
        return Series(out, n)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative series power; use recip first")
        one = self.coeffs[0] ** 0
        result = Series([one], self.order)
        for _ in range(n):
            result = result * self
        return result

    def recip(self) -> "Series":
        """Multiplicative inverse, solving the triangular coefficient system.

        Requires an invertible constant term.
        """
        a0 = self.coeffs[0]
        if a0 == a0 * 0:
            raise ZeroDivisionError("series reciprocal needs a nonzero constant term")
        inv0 = a0**0 / a0
        out = [inv0]
        for n in range(1, self.order + 1):
            s = self.coeffs[1] * out[n - 1]
            for i in range(2, n + 1):
                s = s + self.coeffs[i] * out[n - i]
            out.append(-inv0 * s)
        return Series(out, self.order)

    def shift_up(self) -> "Series":
        """Multiply by t.  The order grows by one (no information is lost)."""
        zero = self.coeffs[0] * 0
        return Series([zero, *self.coeffs], self.order + 1)

    def __repr__(self) -> str:
        return f"Series({[str(c) for c in self.coeffs]}, order={self.order})"


def exp_xt(x, order: int) -> Series:
    """Series of exp(x*t): coefficients x**n / n!.

    x may be any exact field element (Fraction or RatFunc).
    """
    one = x**0
    coeffs = [one]
    term = one
    for n in range(1, order + 1):
        term = term * x * Fraction(1, n)
        coeffs.append(term)
    return Series(coeffs, order)


def exp_t(order: int) -> Series:
    """Series of exp(t) over Fraction."""
    return exp_xt(Fraction(1), order)
