"""q-integers, Gaussian binomials, q-power sums, and exact q-identities.

All values live in the field of rational functions in x with x**2 = q, so
half-integer powers of q (which the q-power sums need) are ordinary integer
powers of x.  The q -> 1 limit is evaluation at x = 1 of the canonical
form; when that point is a genuine pole the limit machinery reports the
pole order instead of a value.

The q-power sums and Gaussian binomials are polynomials in x, so they are
built as integer polynomials, each from the value before it, and wrapped
as rational functions only when returned: the power sums by the Horner
step (`_horner_step`, shared with engine's alternating q-power sums)
f(n) = q**((m+1)/2) f(n-1) + [n]_{q^2} [n]_q**(m-1) on integer lists, each
term built by running sums (`_bracket_term`), the binomials row by row by
the q-Pascal rule [n, k] = [n-1, k-1] + q**k [n-1, k] (Andrews, The Theory
of Partitions, Thm 3.2).  `q_binomial_cells` and `q_power_sum_cells` walk
whole grids, one step per cell; `cli`'s qtable and limits both draw them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, chain, islice
from math import comb
from operator import add, sub
from typing import NamedTuple

from .classical import power_sum
from .poly import ONE, ZERO, DegreeLimitError, Poly, _check_degree, _make
from .ratfunc import R_ZERO, RatFunc
from .records import VerificationRecord, limit_record, record_from_sides


class PoleReport(NamedTuple):
    """A q -> 1 limit does not exist: the denominator vanishes to this order."""

    order: int

    def __str__(self) -> str:
        return f"POLE({self.order})"


def q_integer_poly(k: int, base_power: int = 1) -> Poly:
    """[k]_{q**base_power} for k >= 0 as an integer polynomial in x."""
    if k < 0 or base_power < 1:
        raise ValueError("q_integer_poly needs k >= 0 and base_power >= 1")
    coeffs = [0] * (2 * base_power * (k - 1) + 1) if k else []
    coeffs[:: 2 * base_power] = [1] * k
    return Poly(coeffs)


def _last(items: Iterable):
    return deque(items, maxlen=1)[0]


def q_integer(k: int, base_power: int = 1) -> RatFunc:
    """[k] in base q**base_power: (q**(b*k) - 1) / (q**b - 1).

    For k >= 0 this is the polynomial 1 + q**b + ... + q**(b*(k-1)); negative
    k is supported through the same formula (e.g. [-1]_q = -1/q).
    """
    if base_power < 1:
        raise ValueError("base_power must be >= 1")
    if k >= 0:
        return RatFunc(q_integer_poly(k, base_power))
    # [-j]_{q^b} = -[j]_{q^b} / q**(b*j)
    return RatFunc(-q_integer_poly(-k, base_power), Poly.monomial(-2 * base_power * k))


def _check_walk(degrees: Iterable[int], widest: int) -> None:
    """Raise before a walk builds anything if its widest cell, of degree
    `widest`, passes the cap.  The error names the first of `degrees`, the
    cells' degrees in walk order, that passes it: the cell the walk itself
    would trip at."""
    try:
        _check_degree(widest)
    except DegreeLimitError:
        for degree in degrees:
            _check_degree(degree)
        raise


def _binomial_rows(n_max: int, k_max: int) -> Iterator[list[Poly]]:
    """Rows 0..n_max of the Gaussian binomial triangle, as integer polynomials.

    Row n is [n, 0], ..., [n, min(n, k_max)], built from row n-1 by the
    q-Pascal rule [n, k] = [n-1, k-1] + x**(2k) [n-1, k].  Column k needs
    only columns <= k of the row before, so a bounded walk never builds a
    cell of higher degree than [n_max, k_max] when 2 k_max <= n_max.  The
    cap is checked before row 0: [n, k] has degree 2k(n-k), widest at
    k = min(k_max, n // 2).
    """
    widest = min(k_max, n_max // 2)
    _check_walk(
        (2 * k * (n - k) for n in range(1, n_max + 1) for k in range(1, min(n, k_max + 1))),
        2 * widest * (n_max - widest),
    )
    row = [ONE]
    yield row
    for n in range(1, n_max + 1):
        top = min(n, k_max + 1)
        inner = [row[k - 1] + Poly.monomial(2 * k) * row[k] for k in range(1, top)]
        row = [ONE, *inner, ONE] if n <= k_max else [ONE, *inner]
        yield row


def q_binomial_cells(n_max: int) -> Iterator[tuple[int, int, Poly]]:
    """(n, k, [n choose k]_q) for 0 <= k <= n <= n_max, row by row."""
    for n, row in enumerate(_binomial_rows(n_max, n_max)):
        for k, value in enumerate(row):
            yield n, k, value


def q_binomial(n: int, k: int) -> RatFunc:
    """Gaussian binomial coefficient [n choose k]_q.

    Taken from row n of the q-Pascal triangle, built over integer
    polynomials; zero when k < 0 or k > n.  By the symmetry
    [n, k] = [n, n-k] only columns 0..min(k, n-k) are built.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return R_ZERO
    k = min(k, n - k)
    return RatFunc(_last(_binomial_rows(n, k))[k])


def _bracket_term(n: int, e: int, b: int) -> list[int]:
    """The integer coefficients in x of [n]_{q^2} * [n]_{q^b}**e for
    n, e >= 0 and b in (1, 2), the bracket bases of the two conventions.

    The work is done in y = q**b, where [n]_{q^b} = 1 + y + ... + y**(n-1):
    multiplying by it makes each coefficient the sum of n consecutive
    inputs, a running sum of c(t) - c(t-n).  For n < 2 that keeps [] and
    [1], so those run no window.  The degree 2(n-1)(2 + b e) is checked
    against the cap first.
    """
    _check_degree(2 * (n - 1) * (2 + b * e))
    c = [0] * (2 // b * (n - 1) + 1)
    c[:: 2 // b] = [1] * n
    pad, lag = [0] * (n - 1), [0] * n
    for _ in range(e * (n > 1)):
        c = list(accumulate(map(sub, chain(c, pad), chain(lag, c))))
    out = [0] * (2 * b * (len(c) - 1) + 1)
    out[:: 2 * b] = c
    return out


def _horner_step(f: list[int], n: int, e: int, b: int, sign: int = 1) -> list[int]:
    """S(n) = x**(e+2) * S(n-1) + sign**(n-1) * [n]_{q^2} * [n]_{q^b}**e from
    f = S(n-1), as integer lists in x, for n >= 1 and sign = +-1.  The term,
    of degree 2(n-1)(2 + b e), outgrows x**(e+2) * S(n-1), of degree at most
    2(n-2)(2 + b e) + e + 2, so S(n-1) is added into it."""
    term = _bracket_term(n, e, b)
    if sign < 0 and n % 2 == 0:
        term = [-c for c in term]
    term[e + 2 : e + 2 + len(f)] = map(add, term[e + 2 :], f)
    return term


def _check_power_sums(m_min: int, m_max: int, n_max: int) -> None:
    """Check the cap before the walk of f_{m,q}(n), m_min <= m <= m_max and
    1 <= n <= n_max, m by m: its terms have degree 2(n-1)(m+1)."""
    _check_walk(
        (2 * (n - 1) * (m + 1) for m in range(m_min, m_max + 1) for n in range(1, n_max + 1)),
        2 * (n_max - 1) * (m_max + 1),
    )


def _power_sums(m: int, n_max: int) -> Iterator[Poly]:
    """f_{m,q}(0), ..., f_{m,q}(n_max) as integer polynomials in x."""
    f: list[int] = []
    yield ZERO
    for n in range(1, n_max + 1):
        f = _horner_step(f, n, m - 1, 1)
        yield _make(f, 1)


def q_power_sum_cells(m_max: int, n_max: int) -> Iterator[tuple[int, int, Poly]]:
    """(m, n, f_{m,q}(n)) for 1 <= m <= m_max and 1 <= n <= n_max, m by m."""
    _check_power_sums(1, m_max, n_max)
    for m in range(1, m_max + 1):
        for n, value in enumerate(islice(_power_sums(m, n_max), 1, None), 1):
            yield m, n, value


def q_power_sum(m: int, n: int) -> RatFunc:
    """q-deformed power sum f_{m,q}(n).

    sum_{k=1}^{n} [k]_{q^2} * [k]_q**(m-1) * q**((n-k)(m+1)/2); the final
    factor has half-integer q-exponents whenever (n-k)(m+1) is odd.  Built
    over integer polynomials by Horner's step
    f(n) = q**((m+1)/2) * f(n-1) + [n]_{q^2} * [n]_q**(m-1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_power_sums(m, m, n)
    return RatFunc(_last(_power_sums(m, n)))


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
    return record_from_sides("warnaar", {"n": n}, lhs, rhs)


def garrett_hummel_check(n: int) -> VerificationRecord:
    """Half-index q-power-sum identity:

    sum_{k=1}^{n} q**(k-1) [k]_q**2 ([(k-1)/2]_{q^2} + [(k+1)/2]_{q^2})
      ==  ([n+1 choose 2]_q)**2,

    with [j/2]_{q^2} = (q**j - 1)/(q**2 - 1) for odd j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # Both brackets share the denominator q**2 - 1, so the k-th summand's
    # numerator is x**(2k-2) [k]_q**2 (x**(2k-2) + x**(2k+2) - 2).
    num = ZERO
    for k in range(1, n + 1):
        pair = Poly.monomial(2 * k - 2) + Poly.monomial(2 * k + 2) - 2
        num = num + Poly.monomial(2 * k - 2) * q_integer_poly(k) ** 2 * pair
    lhs = RatFunc(num, Poly.monomial(4) - ONE)
    rhs = q_binomial(n + 1, 2) ** 2
    return record_from_sides("garrett_hummel", {"n": n}, lhs, rhs)


def _power_sum_limit(m: int, n: int, f: Poly) -> VerificationRecord:
    """q -> 1 limit of the q-power sum f = f_{m,q}(n), a polynomial, vs sum k**m."""
    return limit_record("q_power_sum_limit", {"m": m, "n": n}, f(1), power_sum(m, n))


def _binomial_limit(n: int, k: int, f: Poly) -> VerificationRecord:
    """q -> 1 limit of the polynomial f = [n choose k]_q vs binom(n, k)."""
    classical = Fraction(comb(n, k))
    return limit_record("q_binomial_limit", {"k": k, "n": n}, f(1), classical)


def q_power_sum_limit_check(m: int, n: int) -> VerificationRecord:
    """q -> 1 limit of the q-power sum against the integer power sum."""
    return _power_sum_limit(m, n, q_power_sum(m, n).num)


def q_binomial_limit_check(n: int, k: int) -> VerificationRecord:
    """q -> 1 limit of the Gaussian binomial against the binomial coefficient."""
    return _binomial_limit(n, k, q_binomial(n, k).num)
