"""Dense univariate polynomials over exact rationals.

The indeterminate is written ``x``.  Everywhere else in this package a
q-expression is encoded with ``x = q**(1/2)``, so integer powers of x cover
half-integer powers of q exactly.

A polynomial is stored as Python ints over one positive common denominator,
with no trailing zeros and no factor shared by the denominator and every
numerator, so structural equality is equality; the zero polynomial has no
numerators and degree -1.  ``coeffs`` reads them back as ``Fraction``s.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

DEFAULT_MAX_DEGREE = 10_000
_ENV_MAX_DEGREE = "QGL_MAX_DEGREE"


class DegreeLimitError(RuntimeError):
    """A polynomial exceeded the QGL_MAX_DEGREE resource cap."""


def max_degree() -> int:
    """Degree cap named by the QGL_MAX_DEGREE env var, default 10000.

    Reads the environment on every call.  Raises ValueError unless the
    variable is unset, empty or a positive integer.
    """
    raw = os.environ.get(_ENV_MAX_DEGREE)
    if not raw:
        return DEFAULT_MAX_DEGREE
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{_ENV_MAX_DEGREE} must be a positive integer, got {raw!r}")
    return int(raw)


# The cap _make enforces: max_degree() read on first use, or set_max_degree's.
_cap: int | None = None


def set_max_degree(cap: int | None) -> None:
    """Set the degree cap for the rest of the process.

    None drops the current cap, so QGL_MAX_DEGREE is read again on next use.
    """
    global _cap
    if cap is not None and cap < 1:
        raise ValueError(f"degree cap must be a positive integer, got {cap!r}")
    _cap = cap


def _make(nums: list[int], den: int) -> "Poly":
    """The canonical Poly for sum(nums[i] * x**i) / den."""
    while nums and not nums[-1]:
        nums.pop()
    # A valid cap is at least 1, so degrees 0 and 1 need no check.
    if len(nums) > 2:
        if _cap is None:
            set_max_degree(max_degree())
        if len(nums) - 1 > _cap:
            raise DegreeLimitError(
                f"degree {len(nums) - 1} exceeds {_ENV_MAX_DEGREE}={_cap}"
            )
    g = _igcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    out = object.__new__(Poly)
    out._nums, out._den = tuple(nums), den
    return out


class Poly:
    """Immutable dense polynomial ``sum(_nums[i] * x**i) / _den``."""

    __slots__ = ("_nums", "_den")

    def __new__(cls, coeffs: Iterable[Scalar] = ()) -> "Poly":
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = _ilcm(*(c.denominator for c in cs))
        return _make([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def monomial(cls, n: int, c: Scalar = 1) -> "Poly":
        """c * x**n (n >= 0)."""
        if n < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls([0] * n + [c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` multiplies ``x**i``."""
        return tuple(Fraction(c, self._den) for c in self._nums)

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_monic(self) -> bool:
        return bool(self._nums) and self._nums[-1] == self._den

    @property
    def leading(self) -> Fraction:
        return Fraction(self._nums[-1], self._den) if self._nums else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if isinstance(other, Poly):
            return self._nums == other._nums and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its number, so it must hash as that number.
        if len(self._nums) < 2:
            return hash(self.leading)
        return hash((self._nums, self._den))

    def __neg__(self) -> "Poly":
        return _make([-c for c in self._nums], self._den)

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        elif not isinstance(other, Poly):
            return NotImplemented
        den = _ilcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        a = [c * sa for c in self._nums]
        b = [c * sb for c in other._nums]
        if len(a) < len(b):
            a, b = b, a
        a[: len(b)] = [x + y for x, y in zip(a, b)]
        return _make(a, den)

    __radd__ = __add__

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-other)

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return -self + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            s = other.numerator
            return _make([c * s for c in self._nums], self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._nums, other._nums
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                j = i + len(b)
                out[i:j] = [o + ca * cb for o, cb in zip(out[i:j], b)]
        return _make(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # lc**e * u = q*v + r over the integers, with self = u/du, other = v/dv.
        q, r, e = _pseudo_divmod(self._nums, other._nums)
        scale = other._nums[-1] ** e * self._den
        return _make([c * other._den for c in q], scale), _make(r, scale)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x0: Scalar) -> Fraction:
        """Evaluate at a rational point by Horner's rule on the integers."""
        x0 = Fraction(x0)
        a, b = x0.numerator, x0.denominator
        acc, bk = 0, 1
        for c in reversed(self._nums):
            acc, bk = acc * a + c * bk, bk * b
        return Fraction(acc * b, bk * self._den)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("monic of the zero polynomial is undefined")
        return _make(list(self._nums), self._nums[-1])

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts)


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def _pseudo_divmod(
    u: Sequence[int], v: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: q, r, e with lc(v)**e * u == q*v + r.

    deg r < deg v and 0 <= e <= deg u - deg v + 1.  A quotient digit is
    taken exactly when lc(v) divides the leading remainder coefficient;
    only otherwise are the remainder and the partial quotient scaled by
    lc(v), so exact divisions stay free of powers of lc(v).
    """
    lc, n = v[-1], len(v) - 1
    r = list(u)
    q = [0] * max(0, len(r) - n)
    e = 0
    while len(r) > n:
        top = r.pop()
        c, rem = divmod(top, lc)
        if rem:
            r = [lc * x for x in r]
            q = [lc * x for x in q]
            e += 1
            c = top
        s = len(r) - n
        q[s] = c
        r[s:] = [x - c * y for x, y in zip(r[s:], v)]
        while r and not r[-1]:
            r.pop()
    return q, r, e


def _x_power(nums: Sequence[int]) -> int:
    """The largest v such that x**v divides the nonzero polynomial nums."""
    v = 0
    while not nums[v]:
        v += 1
    return v


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.

    Powers of x are split off first: with v(p) the power of x dividing p,
    gcd(a, b) = x**min(v(a), v(b)) * gcd(a / x**v(a), b / x**v(b)).  A
    constant cofactor (a or b a monomial) ends there; otherwise the
    cofactors' gcd comes from the primitive remainder sequence (Brown,
    J. ACM 18, 1971): each pseudo-remainder is divided by its integer
    content.  Raises ValueError when both arguments are zero.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    u, v = a._nums, b._nums
    vu, vv = _x_power(u), _x_power(v)
    shift = [0] * min(vu, vv)
    u, v = u[vu:], v[vv:]
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        _, r, _ = _pseudo_divmod(u, v)
        if not r:
            return _make(shift + list(v), v[-1])
        content = _igcd(*r)
        u, v = v, [c // content for c in r]
    return _make(shift + [1], 1)
