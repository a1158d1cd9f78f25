"""Rational functions over the exact polynomial ring.

Every value is kept in canonical form: numerator and denominator share no
common factor and the denominator is monic.  Canonical form makes structural
equality an identity test, which the verification records rely on.  A sum
over one denominator b is (a + c)/b reduced by gcd(a + c, b) alone.

q-expressions are embedded here with ``x = q**(1/2)``: ``monomial_q(a)``
builds ``q**(a/2) = x**a`` for any integer a, so half-integer q-exponents
stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

from .poly import ONE, ZERO, Poly, Scalar, _monic_quotient, gcd


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
        canon = _reduced(*_divide_out(gcd(num, den), num, den))
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
            return self == RatFunc(other)
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
        if b == d:  # one denominator: only gcd(a + c, b) can cancel
            num = a + c
            return _reduced(*_divide_out(gcd(num, b), num, b)) if num else R_ZERO
        # Henrici: with g = gcd(b, d), only g can still divide a*d/g + c*b/g.
        g = gcd(b, d)
        b1, d1 = _divide_out(g, b, d)
        num = a * d1 + c * b1
        return _reduced(*_divide_out(gcd(num, g), num, b1 * d))

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
        if not isinstance(other, RatFunc):
            if isinstance(other, (int, Fraction)):
                return _reduced(self.num * other, self.den) if other else R_ZERO
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero or c.is_zero:
            return R_ZERO
        a, d = _divide_out(gcd(a, d), a, d)
        c, b = _divide_out(gcd(c, b), c, b)
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


def _divide_out(g: Poly, *polys: Poly) -> tuple[Poly, ...]:
    """polys each divided by their common factor g; unchanged when g is constant."""
    if g.degree > 0:
        return tuple(p // g for p in polys)
    return polys


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
        return RatFunc(value)
    return NotImplemented


R_ZERO = RatFunc(ZERO)
R_ONE = RatFunc(ONE)


def monomial_q(a: int) -> RatFunc:
    """q**(a/2) as an element of the field: x**a, with 1/x**|a| for a < 0."""
    if a >= 0:
        return RatFunc(Poly.monomial(a))
    return RatFunc(ONE, Poly.monomial(-a))


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial, from x**d - 1 = prod_{e | d} Phi_e."""
    divisors = tuple((e, 1) for e in cyclotomic_indices(d, -1)[:-1])
    return (Poly.monomial(d) - 1) // _cyclotomic_product(divisors)


def cyclotomic_indices(m: int, sign: int) -> tuple[int, ...]:
    """The d with prod Phi_d = x**m + sign for m >= 1 and sign = +-1: the
    divisors of m for -1, those of 2m that do not divide m for +1."""
    top = m if sign < 0 else 2 * m
    return tuple(d for d in range(1, top + 1) if top % d == 0 and (sign < 0 or m % d))


_PROBE = 2**16  # over_cyclotomics gates its trial divisions by values here


@lru_cache(maxsize=None)
def _factor_power(d: int, s: int) -> tuple[Poly, int]:
    """Phi_d**s and its value at _PROBE."""
    p = cyclotomic(d) ** s
    return p, p(_PROBE).numerator


@lru_cache(maxsize=None)
def _cyclotomic_product(pairs: tuple[tuple[int, int], ...]) -> Poly:
    """prod Phi_d**e over the (d, e) pairs: every such product is built here."""
    return prod((_factor_power(d, e)[0] for d, e in pairs), start=ONE)


def over_cyclotomics(num: Poly, exponents: dict[int, int]) -> RatFunc:
    """num / prod_d Phi_d**e_d in canonical form, with no gcd.

    The Phi_d are distinct irreducibles, so exact trial division by
    each, as often as its exponent allows, leaves num coprime to the monic
    denominator the remaining exponents build.  A factor is tried at its
    full power first, then at halved powers: a few passes over num each.
    A monic p**s that divides num's integer numerator P leaves an integer
    quotient Q, so P(B) = p(B)**s * Q(B) at every integer B: a division runs
    only when p(_PROBE)**s divides P(_PROBE), and the gate skips only
    divisions that would fail.  That holds at any integer B >= 2, where
    no p(B) is 0; a probe of 16 bits keeps P(_PROBE), and the Horner walk
    that builds it, small.  Each p**s is monic with integer coefficients,
    so a division is an exact monic quotient, with no pseudo-division.
    The denominator is cached by the (d, e) pairs left with e > 0.
    """
    if num.is_zero:
        return R_ZERO
    probe = 0
    for c in reversed(num._nums):
        probe = probe * _PROBE + c
    left = []
    for d, e in exponents.items():
        step = e
        while step:
            p, value = _factor_power(d, step)
            if probe % value == 0:
                quot = _monic_quotient(num, p)
                if quot is not None:
                    num, probe, e = quot, probe // value, e - step
                    step = min(step, e)
                    continue
            step //= 2
        if e:
            left.append((d, e))
    return _reduced(num, _cyclotomic_product(tuple(left)))


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
