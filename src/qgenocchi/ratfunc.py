"""Rational functions over the exact polynomial ring.

Every value is kept in canonical form: numerator and denominator share no
common factor and the denominator is monic.  Canonical form makes structural
equality an identity test, which the verification records rely on.

q-expressions are embedded here with ``x = q**(1/2)``: ``monomial_q(a)``
builds ``q**(a/2) = x**a`` for any integer a, so half-integer q-exponents
stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from .poly import ONE, ZERO, Poly, gcd

Scalar = Union[int, Fraction]


class PoleError(ArithmeticError):
    """Evaluation at a point where the (reduced) denominator vanishes."""


def _as_poly(value: "RatFunc | Poly | Scalar") -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly([value])
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


class RatFunc:
    """Quotient of two Polys, reduced and with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: "Poly | Scalar", den: "Poly | Scalar" = ONE) -> None:
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        g = gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        canon = _reduced(num, den)
        self.num, self.den = canon.num, canon.den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, Fraction)):
            return self == RatFunc(_as_poly(other))
        return NotImplemented

    def __hash__(self) -> int:
        # Over denominator 1 the value equals its numerator, so hash as it.
        if self.den == ONE:
            return hash(self.num)
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return _reduced(-self.num, self.den)

    def __add__(self, other: "RatFunc | Poly | Scalar") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero:
            return other
        if c.is_zero:
            return self
        g = gcd(b, d)
        if g.degree == 0:
            return _reduced(a * d + c * b, b * d)
        b1, d1 = b // g, d // g
        num0 = a * d1 + c * b1
        if num0.is_zero:
            return R_ZERO
        h = gcd(num0, g)
        den0 = b1 * d
        if h.degree == 0:
            return _reduced(num0, den0)
        return _reduced(num0 // h, den0 // h)

    __radd__ = __add__

    def __sub__(self, other: "RatFunc | Poly | Scalar") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "RatFunc | Poly | Scalar") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "RatFunc | Poly | Scalar") -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            if not other:
                return R_ZERO
            return _reduced(self.num * other, self.den)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero or c.is_zero:
            return R_ZERO
        g1 = gcd(a, d)
        g2 = gcd(c, b)
        if g1.degree > 0:
            a, d = a // g1, d // g1
        if g2.degree > 0:
            c, b = c // g2, b // g2
        return _reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc | Poly | Scalar") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * _reduced(other.den, other.num)

    def __rtruediv__(self, other: "RatFunc | Poly | Scalar") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RatFunc":
        if n == 0:
            return R_ONE
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return _reduced(self.den**-n, self.num**-n)
        return _reduced(self.num**n, self.den**n)

    def evaluate(self, x0: Scalar) -> Fraction:
        """Exact value at a rational x0; raises PoleError on a pole."""
        x0 = Fraction(x0)
        dv = self.den(x0)
        if not dv:
            raise PoleError(f"pole at x = {x0}")
        return self.num(x0) / dv

    def pole_order_at_one(self) -> int:
        """Multiplicity of (x - 1) in the canonical denominator."""
        order = 0
        den = self.den
        linear = Poly([-1, 1])
        while not den.is_zero and den(1) == 0:
            den = den // linear
            order += 1
        return order

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _reduced(num: Poly, den: Poly) -> RatFunc:
    """Build a RatFunc from an already-coprime num/den pair (monic-scales only)."""
    if num.is_zero:
        return R_ZERO
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if not den.is_monic:
        inv = 1 / den.leading
        num, den = num * inv, den * inv
    out = object.__new__(RatFunc)
    out.num, out.den = num, den
    return out


def _coerce(value: "RatFunc | Poly | Scalar") -> "RatFunc":
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (Poly, int, Fraction)):
        return RatFunc(_as_poly(value))
    return NotImplemented


R_ZERO = RatFunc(ZERO)
R_ONE = RatFunc(ONE)


def monomial_q(a: int) -> RatFunc:
    """q**(a/2) as an element of the field: x**a, with 1/x**|a| for a < 0."""
    if a >= 0:
        return RatFunc(Poly.monomial(a))
    return RatFunc(ONE, Poly.monomial(-a))


def _eval_even_part(p: Poly, q0: Fraction) -> Fraction | None:
    """Value of p when p uses only even powers of x, substituting x**2 = q0.

    Returns None when p has a nonzero odd-power coefficient.
    """
    return None if any(p.coeffs[1::2]) else Poly(p.coeffs[::2])(q0)


def _exact_sqrt(q0: Fraction) -> Fraction | None:
    if q0 < 0:
        return None
    sn, sd = isqrt(q0.numerator), isqrt(q0.denominator)
    if sn * sn == q0.numerator and sd * sd == q0.denominator:
        return Fraction(sn, sd)
    return None


def evaluate_at_q(f: RatFunc, q0: Fraction) -> Fraction:
    """Exact value of f at q = q0 (recall x**2 = q).

    Expressions with only integer q-powers evaluate at any rational q0;
    half-integer powers additionally need q0 to be the square of a rational
    so that x = sqrt(q0) stays exact.  Raises ValueError otherwise and
    PoleError on a pole.
    """
    nv = _eval_even_part(f.num, q0)
    dv = _eval_even_part(f.den, q0)
    if nv is not None and dv is not None:
        if not dv:
            raise PoleError(f"pole at q = {q0}")
        return nv / dv
    x0 = _exact_sqrt(q0)
    if x0 is None:
        raise ValueError(
            "expression has half-integer q-powers; q must be a square of a rational"
        )
    return f.evaluate(x0)
