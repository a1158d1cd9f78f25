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

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

DEFAULT_MAX_DEGREE = 10_000
_ENV_MAX_DEGREE = "QGL_MAX_DEGREE"


class DegreeLimitError(RuntimeError):
    """A polynomial exceeded the QGL_MAX_DEGREE resource cap."""


# The cap _make enforces; the CLI installs each run's QGL_MAX_DEGREE here.
_cap = DEFAULT_MAX_DEGREE


def set_max_degree(cap: int | None) -> None:
    """Set the degree cap for the rest of the process; None restores 10000."""
    global _cap
    if cap is not None and cap < 1:
        raise ValueError(f"degree cap must be a positive integer, got {cap!r}")
    _cap = DEFAULT_MAX_DEGREE if cap is None else cap


def _check_degree(degree: int) -> None:
    """Raise DegreeLimitError when degree passes the cap."""
    if degree > _cap:
        raise DegreeLimitError(f"degree {degree} exceeds {_ENV_MAX_DEGREE}={_cap}")


def _make(nums: list[int], den: int) -> "Poly":
    """The canonical Poly for sum(nums[i] * x**i) / den."""
    while nums and not nums[-1]:
        nums.pop()
    _check_degree(len(nums) - 1)
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
        return _make([0] * n + [c.numerator], c.denominator)

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
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly([other])
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
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            s = other.numerator
            return _make([c * s for c in self._nums], self._den * other.denominator)
        a, b = self._nums, other._nums
        if b == (1,) and other._den == 1:  # other is ONE
            return self
        if a == (1,) and self._den == 1:
            return other
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
        """Evaluate at a rational point by Horner's rule on the integers;
        at x0 = 1, the q -> 1 point, the value is sum(numerators) / den."""
        if x0 == 1:
            return Fraction(sum(self._nums), self._den)
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


def _shifted_sum(terms: Iterable[tuple[int, int, Poly]]) -> Poly:
    """sum c * x**e * p over (c, e, p) with integer c != 0 and e >= 0,
    added up in one integer list over the lcm of the p's denominators.

    Raises DegreeLimitError at the first term whose x**e or product passes
    the cap, before any zero is trimmed, as the termwise products would.
    """
    terms = list(terms)
    den = _ilcm(*(p._den for *_, p in terms))
    acc: list[int] = []
    for c, e, p in terms:
        top = e + len(p._nums)
        _check_degree(e)
        _check_degree(top - 1)
        acc += [0] * (top - len(acc))
        s = c * (den // p._den)
        acc[e:top] = [a + s * b for a, b in zip(acc[e:top], p._nums)]
    return _make(acc, den)


def _monic_quotient(u: Poly, p: Poly) -> Poly | None:
    """u / p for a monic integer p when p divides u exactly, else None.

    The quotient keeps u's denominator.  A monic divisor takes each
    quotient digit as the leading remainder coefficient, so no scaling
    is needed, and each step touches only p's nonzero coefficients.
    """
    v, r = p._nums, list(u._nums)
    n = len(v) - 1
    support = [(i, c) for i, c in enumerate(v[:-1]) if c]
    q = r[n:]
    for s in range(len(q) - 1, -1, -1):
        c = q[s] = r[s + n]
        if c:
            for i, vi in support:
                r[s + i] -= c * vi
    if any(r[:n]):
        return None
    return _make(q, u._den)


def _x_power(nums: Sequence[int]) -> int:
    """The largest v such that x**v divides the nonzero polynomial nums."""
    v = 0
    while not nums[v]:
        v += 1
    return v


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.

    A nonzero constant operand gives ONE.  Otherwise, with v(p) the power
    of x dividing p, gcd(a, b) = x**min(v(a), v(b)) * gcd(a / x**v(a),
    b / x**v(b)).  A constant cofactor (a or b a monomial) ends there;
    otherwise the cofactors' gcd comes from the primitive remainder
    sequence (Brown, J. ACM 18, 1971): each pseudo-remainder is divided
    by its integer content.  Raises ValueError when both are zero.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    u, v = a._nums, b._nums
    if len(u) == 1 or len(v) == 1:
        return ONE
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
