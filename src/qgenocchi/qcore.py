"""q-integers, Gaussian binomials, q-power sums, and exact q-identities.

All values live in the field of rational functions in x with x**2 = q, so
half-integer powers of q (which the q-power sums need) are ordinary integer
powers of x.  The q -> 1 limit is evaluation at x = 1 of the canonical
form; when that point is a genuine pole the limit machinery reports the
pole order instead of a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .classical import power_sum
from .poly import ONE, Poly
from .ratfunc import R_ONE, R_ZERO, RatFunc, monomial_q
from .records import VerificationRecord, limit_record, record_from_difference


@dataclass(frozen=True)
class PoleReport:
    """A q -> 1 limit does not exist: the denominator vanishes to this order."""

    order: int

    def __str__(self) -> str:
        return f"POLE({self.order})"


def q_integer(k: int, base_power: int = 1) -> RatFunc:
    """[k] in base q**base_power: (q**(b*k) - 1) / (q**b - 1).

    For k >= 0 this is the polynomial 1 + q**b + ... + q**(b*(k-1)); negative
    k is supported through the same formula (e.g. [-1]_q = -1/q).
    """
    if base_power < 1:
        raise ValueError("base_power must be >= 1")
    if k >= 0:
        coeffs = [Fraction(0)] * (2 * base_power * (k - 1) + 1) if k else []
        for i in range(k):
            coeffs[2 * base_power * i] = Fraction(1)
        return RatFunc(Poly(coeffs))
    return (monomial_q(2 * base_power * k) - 1) / (monomial_q(2 * base_power) - 1)


def q_binomial(n: int, k: int) -> RatFunc:
    """Gaussian binomial coefficient via the product of q-integer ratios.

    [n choose k]_q = prod_{j=1}^{k} [n+1-j]_q / [j]_q; zero when k < 0 or
    k > n (empty product convention for k = 0).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return R_ZERO
    out = R_ONE
    for j in range(1, k + 1):
        out = out * q_integer(n + 1 - j) / q_integer(j)
    return out


def q_power_sum(m: int, n: int) -> RatFunc:
    """q-deformed power sum f_{m,q}(n).

    sum_{k=1}^{n} [k]_{q^2} * [k]_q**(m-1) * q**((n-k)(m+1)/2); the final
    factor has half-integer q-exponents whenever (n-k)(m+1) is odd.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    total = R_ZERO
    for k in range(1, n + 1):
        term = q_integer(k, 2) * q_integer(k) ** (m - 1)
        total = total + term * monomial_q((n - k) * (m + 1))
    return total


def limit_at_one(f: RatFunc) -> Fraction | PoleReport:
    """Value of f at x = 1 (that is, q -> 1), or a PoleReport."""
    dv = f.den(1)
    if dv:
        return f.num(1) / dv
    return PoleReport(f.pole_order_at_one())


def warnaar_check(n: int) -> VerificationRecord:
    """Quadratic identity for the q-power sum f_{3,q}(n):

    sum_{k=1}^{n} q**(2n-2k) [k]_q**2 [k]_{q^2}  ==  ([n+1 choose 2]_q)**2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = q_power_sum(3, n)
    rhs = q_binomial(n + 1, 2) ** 2
    return record_from_difference("warnaar", {"n": n}, lhs - rhs)


def _half_index_q2(j: int) -> RatFunc:
    """[j/2]_{q^2} read analytically: (q**j - 1) / (q**2 - 1)."""
    return RatFunc(Poly.monomial(2 * j) - ONE, Poly.monomial(4) - ONE)


def garrett_hummel_check(n: int) -> VerificationRecord:
    """Half-index q-power-sum identity:

    sum_{k=1}^{n} q**(k-1) [k]_q**2 ([(k-1)/2]_{q^2} + [(k+1)/2]_{q^2})
      ==  ([n+1 choose 2]_q)**2,

    with [j/2]_{q^2} = (q**j - 1)/(q**2 - 1) for odd j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = R_ZERO
    for k in range(1, n + 1):
        half_pair = _half_index_q2(k - 1) + _half_index_q2(k + 1)
        term = q_integer(k) ** 2 * half_pair
        lhs = lhs + term * RatFunc(Poly.monomial(2 * (k - 1)))
    rhs = q_binomial(n + 1, 2) ** 2
    return record_from_difference("garrett_hummel", {"n": n}, lhs - rhs)


def q_power_sum_limit_check(m: int, n: int) -> VerificationRecord:
    """q -> 1 limit of the q-power sum against the integer power sum."""
    limit = limit_at_one(q_power_sum(m, n))
    return limit_record("q_power_sum_limit", {"m": m, "n": n}, limit, power_sum(m, n))


def q_binomial_limit_check(n: int, k: int) -> VerificationRecord:
    """q -> 1 limit of the Gaussian binomial against the binomial coefficient."""
    limit = limit_at_one(q_binomial(n, k))
    classical = Fraction(comb(n, k))
    return limit_record("q_binomial_limit", {"k": k, "n": n}, limit, classical)
