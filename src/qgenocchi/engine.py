"""Regularized alternating q-series engine for q-Genocchi-type numbers.

The defining generating function is an alternating series over j >= 0 whose
j-th summand is weight_j * exp(t * arg_j), with

    weight_j = [2]_q * q**(k-j) * [j]_{q^2}        (plain family)
    weight_j = [2]_q * q**(-j)  * [j+k]_{q^2}      (shifted family, signs
                                                    carry an extra (-1)**k)
    arg_j    = [j]_base * q**((k-j)/2)             (plain)
    arg_j    = [j+k]_base * q**(-j/2)              (shifted)

and an implicit sign (-1)**(j-1) on the j-th summand.  The divergent sum
over j is given a value termwise by the regularization

    sum_{j>=0} (-1)**(j-1) * q**(beta*j)  :=  -1 / (1 + q**beta),

after expanding every bracket into a finite combination of exponentials
q**(beta*j).  The t**n/n! coefficient of the regularized series *defines*
the numbers G(n, k) and G_shift(n, k) here; printed closed-form candidates
for them are transcribed separately and compared exactly, never assumed.

The exponential argument's bracket base is written inconsistently across
sources (base q in some displays, base q**2 in others), so it is a run-time
Convention flag and every check reports per convention.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Literal, NamedTuple

from . import CONVENTIONS, Convention  # defined at the root, so parsing loads no engine
from .classical import order_r_genocchi
from .poly import ONE, Poly, _check_degree, _make, _shifted_sum
from .qcore import _horner_step, limit_at_one, q_integer
from .ratfunc import (
    R_ZERO, RatFunc, _cyclotomic_product, cyclotomic_indices, monomial_q, over_cyclotomics
)
from .records import (
    VerificationRecord, limit_record, record_from_difference, record_from_sides
)

Variant = Literal["plain", "shifted"]


class ExpTerm(NamedTuple):
    """coeff * q**(beta2/2 * j), summed over j with implicit sign (-1)**(j-1)."""

    coeff: RatFunc
    beta2: int


class QGenocchiValue(NamedTuple):
    """One regularized coefficient: the exact value of G or G_shift."""

    n: int
    k: int
    variant: str
    value: RatFunc


def merge_terms(terms: Iterable[ExpTerm]) -> tuple[ExpTerm, ...]:
    """Combine equal-exponent terms and drop zero coefficients."""
    by_beta2: dict[int, RatFunc] = {}
    for term in terms:
        if term.beta2 in by_beta2:
            by_beta2[term.beta2] = by_beta2[term.beta2] + term.coeff
        else:
            by_beta2[term.beta2] = term.coeff
    return tuple(
        ExpTerm(coeff, beta2)
        for beta2, coeff in sorted(by_beta2.items())
        if not coeff.is_zero
    )


@lru_cache(maxsize=None)
def _regularized(beta2: int) -> RatFunc:
    """Value assigned to sum_{j>=0} (-1)**(j-1) * q**(beta2/2 * j)."""
    return -1 / (monomial_q(beta2) + 1)


def fermionic_sum(terms: Iterable[ExpTerm]) -> RatFunc:
    """Regularized value of an alternating exponential-term list."""
    total = R_ZERO
    for term in terms:
        total = total + term.coeff * _regularized(term.beta2)
    return total


def shift_terms(terms: Iterable[ExpTerm], k: int) -> tuple[ExpTerm, ...]:
    """Reindex j -> j + k: coefficients pick up (-1)**k * q**(beta2/2 * k)."""
    if k < 0:
        raise ValueError("shift must be >= 0")
    sign = (-1) ** k
    return tuple(
        ExpTerm(term.coeff * monomial_q(term.beta2 * k) * sign, term.beta2)
        for term in terms
    )


def partial_sum(terms: Iterable[ExpTerm], k: int) -> RatFunc:
    """Exact finite sum of the first k summands (j = 0 .. k-1).

    Each term's sum_{j<k} (-1)**(j-1) * x**(beta2*j) is built directly from
    its coefficient list: one polynomial for beta2 >= 0, and for beta2 < 0
    the reversed list over x**(|beta2|*(k-1)).  It is deliberately not the
    geometric closed form, whose denominator 1 + x**beta2 is the one the
    regularization uses, so the shift law stays an independent check.
    """
    if k < 0:
        raise ValueError("partial sum length must be >= 0")
    if k == 0:
        return R_ZERO
    total = R_ZERO
    for term in terms:
        step = abs(term.beta2)
        coeffs = [0] * (step * (k - 1) + 1)
        for j in range(k):
            # += so that beta2 = 0 collects every summand in the constant.
            coeffs[step * j] += 1 if j % 2 == 1 else -1
        if term.beta2 >= 0:
            inner = RatFunc(Poly(coeffs))
        else:
            inner = RatFunc(Poly(coeffs[::-1]), Poly.monomial(step * (k - 1)))
        total = total + term.coeff * inner
    return total


def _beta_coefficients(n: int, conv: Convention) -> tuple[tuple[int, int], ...]:
    """Sorted nonzero (beta2, c): the plain t**n/n! coefficient at k = 0 is
    sum c * n [2]_q / ((q**2 - 1) (q**b - 1)**(n-1)) * q**(beta2/2 * j),
    whose prefactor is n / ((q - 1) (q**b - 1)**(n-1)) in lowest terms.

    The j-th summand contributes n * weight_j * arg_j**(n-1); both brackets
    expand binomially into exponentials q**(beta*j), leaving for each
    m = 0..n-1 a pair of terms at beta2 = 2*b*m + 4 - (n+1) and
    beta2 = 2*b*m - (n+1), where b is the convention's bracket base power.
    """
    b = conv.base_power
    coeffs: Counter[int] = Counter()
    for m in range(n):
        c = comb(n - 1, m) * (-1) ** (n - 1 - m)
        coeffs[2 * b * m + 4 - (n + 1)] += c
        coeffs[2 * b * m - (n + 1)] -= c
    return tuple((beta2, c) for beta2, c in sorted(coeffs.items()) if c)


@lru_cache(maxsize=None)
def _frame(index_sets: tuple, minus_ones: tuple) -> tuple[dict, dict]:
    """The k-free part of _plus_one_sum: with lcm that of every 1 + x**a,
    each set of a's >= 0 mapped to its cofactor lcm // prod_j (1 + x**a_j),
    and the cyclotomic exponents of lcm * prod (x**m - 1)**mult."""
    lcm: Counter[int] = Counter()
    for a_s in index_sets:
        lcm |= Counter(d for a in a_s if a for d in cyclotomic_indices(a, 1))
    common = _cyclotomic_product(tuple(lcm.items()))
    cofactors = {
        a_s: common // prod((Poly.monomial(a) + 1 for a in a_s), start=ONE)
        for a_s in index_sets
    }
    for m, mult in minus_ones:
        lcm.update(dict.fromkeys(cyclotomic_indices(m, -1), mult))
    return cofactors, lcm


def _plus_one_sum(terms: list, minus_ones: tuple) -> RatFunc:
    """sum c * x**e / prod_j (1 + x**a_j) / prod (x**m - 1)**mult over
    (c, e, a's) terms and (m, mult) pairs.  Every constant factor of the
    sum is folded into the integers c by the caller.  As in _regularized,
    1 / (1 + x**a) reads x**-a / (1 + x**-a) for a < 0 and 1/2 for a = 0.
    That leaves every e >= 0 (Poly.monomial raises on a negative one): in
    G_shift e = (beta2 + n + 1) * k with beta2 >= -(n + 1), and a closed
    form's e = a - 4 < 0 sits over its own 1 + x**(a - 4).  So the lcm of
    the cyclotomic denominators comes from the index sets, and the sum over
    it is reduced by trial division: no gcd and no RatFunc addition.  The
    lcm and its cofactors are a _frame cached by index sets, fixed along k,
    and the numerator is added up in one integer list.
    """
    terms = [(c, e - sum(min(a, 0) for a in a_s), tuple(map(abs, a_s))) for c, e, a_s in terms]
    cofactors, exponents = _frame(tuple(dict.fromkeys(a_s for *_, a_s in terms)), minus_ones)
    num = _shifted_sum((c, e, cofactors[a_s]) for c, e, a_s in terms)
    return over_cyclotomics(num, exponents)


def coefficient_terms(
    n: int, k: int, variant: Variant, conv: Convention
) -> tuple[ExpTerm, ...]:
    """ExpTerm decomposition of the t**n/n! coefficient of one family:
    _beta_coefficients times the prefactor at k, x**((n+1)*k) times that
    at k = 0.  The shifted family is the plain one summed from j = k, so
    its terms are the plain terms reindexed by shift_terms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if variant == "shifted":
        return shift_terms(coefficient_terms(n, k, "plain", conv), k)
    if variant != "plain":
        raise ValueError(f"unknown variant {variant!r}")
    b = conv.base_power
    denom = (Poly.monomial(4) - 1) * (Poly.monomial(2 * b) - 1) ** (n - 1)
    prefactor = n * q_integer(2) * RatFunc(Poly.monomial((n + 1) * k), denom)
    return tuple(ExpTerm(prefactor * c, beta2) for beta2, c in _beta_coefficients(n, conv))


@lru_cache(maxsize=None)
def q_genocchi_number(n: int, k: int, conv: Convention) -> QGenocchiValue:
    """G(n, k): regularized t**n/n! coefficient of the plain family.

    k enters the plain terms only through the prefactor x**((n+1)*k), so
    G(n, k) = q**((n+1)*k/2) * G(n, 0): the regularized sum runs once per
    (n, conv) and every k > 0 scales the cached k = 0 value.  At k = 0 the
    shifted family is the plain one, so that sum is G_shift(n, 0).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        value = q_genocchi_number_shifted(n, 0, conv).value
    else:
        value = q_genocchi_number(n, 0, conv).value * monomial_q((n + 1) * k)
    return QGenocchiValue(n, k, "plain", value)


@lru_cache(maxsize=None)
def q_genocchi_number_shifted(n: int, k: int, conv: Convention) -> QGenocchiValue:
    """G_shift(n, k): regularized t**n/n! coefficient of the shifted family.

    This is fermionic_sum(coefficient_terms(n, k, "shifted", conv)), added
    up at once over the lcm of the regularization's 1 + q**(beta2/2) and
    the prefactor in lowest terms, n / ((q - 1) (q**b - 1)**(n-1)).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    scale, b = n * (-1) ** (k + 1), conv.base_power
    terms = [(scale * c, (beta2 + n + 1) * k, (beta2,)) for beta2, c in _beta_coefficients(n, conv)]
    value = _plus_one_sum(terms, ((2, 1), (2 * b, n - 1)))
    return QGenocchiValue(n, k, "shifted", value)


@lru_cache(maxsize=None)
def _alt_walk(n: int, conv: Convention) -> list:
    """[j, S(j)] for one (n, conv), S(j) an integer list in x: alt_qsum
    resumes there, or from S(0) = 0 for a smaller k."""
    return [0, []]


def alt_qsum(n: int, k: int, conv: Convention) -> RatFunc:
    """Finite alternating q-power sum

    sum_{j=0}^{k-1} [j]_{q^2} * (-1)**(j-1) * [j]_base**(n-1)
                   * q**((k-j)(n+1)/2),

    the left side of the telescoping identity; the bracket base of the
    power factor follows the convention.  It is q**((n+1)/2) * S(k-1),
    where S(0) = 0 and qcore's Horner step on integer lists gives
    S(j) = q**((n+1)/2) * S(j-1) + (-1)**(j-1) * [j]_{q^2} * [j]_base**(n-1).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    slot = _alt_walk(n, conv)
    start, s = slot if slot[0] < k else (0, [])
    for j in range(start + 1, k):
        s = _horner_step(s, j, n - 1, conv.base_power, -1)
    slot[:] = max(start, k - 1), s
    _check_degree(len(s) + n)
    return RatFunc(_make([0] * (n + 1) + s, 1))


def check_alt_qsum(
    n: int,
    k: int,
    conv: Convention,
    lhs_convention: Convention | None = None,
) -> VerificationRecord:
    """Finite alternating q-power sum vs (G(n,k) - G_shift(n,k)) / (n [2]_q).

    When G and G_shift share their canonical denominator B, as they must
    wherever the identity holds (G - G_shift is then n [2]_q times the
    polynomial lhs), the sides agree iff
    num(lhs) * n (1 + x**2) * B == (num(G) - num(G_shift)) * den(lhs):
    one product and one comparison, with no gcd.  Otherwise, and on a
    FAIL, the right side and the witness are built as canonical values.

    Passing a different lhs_convention evaluates the two sides under mixed
    bracket bases, which is expected to break the identity.
    """
    lhs_conv = lhs_convention or conv
    lhs = alt_qsum(n, k, lhs_conv)
    g = q_genocchi_number(n, k, conv).value
    g_shift = q_genocchi_number_shifted(n, k, conv).value
    params = {"n": n, "k": k}
    label = conv.value if lhs_conv is conv else f"{lhs_conv.value}/{conv.value}"
    if g.den == g_shift.den and (
        lhs.num * Poly([n, 0, n]) * g.den == (g.num - g_shift.num) * lhs.den
    ):
        return record_from_difference("alt_qsum", params, 0, label)
    rhs = (g - g_shift) / (n * q_integer(2))
    return record_from_sides("alt_qsum", params, lhs, rhs, label)


@lru_cache(maxsize=None)
def closed_form_g(n: int, k: int) -> QGenocchiValue:
    """Printed closed-form candidate for G(n, k):

    (1/(1-q))**n * sum_{m=1}^{n} binom(n,m) (-1)**(m-1) m
        * q**(m + k + (n-1)(k-1)/2 - 2)
        / ((1 + q**(-2 + m - (n-1)/2)) * (1 + q**(m - (n-1)/2))).

    The numerator's exponent is (n+1)k/2 + (m - (n-1)/2 - 2), so the
    k-factor q**((n+1)k/2) is pulled out of the sum, as for G: the sum
    runs once per n at k = 0, over the cyclotomic lcm of its denominators,
    and every k > 0 scales that cached value.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if k > 0:
        value = closed_form_g(n, 0).value * monomial_q((n + 1) * k)
        return QGenocchiValue(n, k, "plain", value)
    terms = []
    for m in range(1, n + 1):
        a = 2 * m - (n - 1)
        terms.append((comb(n, m) * (-1) ** (n + m - 1) * m, a - 4, (a - 4, a)))
    value = _plus_one_sum(terms, ((2, n),))  # (1 - q)**-n, its (-1)**n in each c
    return QGenocchiValue(n, k, "plain", value)


@lru_cache(maxsize=None)
def closed_form_g_shift(n: int, k: int) -> QGenocchiValue:
    """Literal transcription of the printed candidate for G_shift(n, k).

    (1/(1-q))**n * sum_{m=1}^{n} binom(n,m) (-1)**(m-1+k)
        * ( m q**((m-1)k) / (1 + q**(m-2-(n-1)/2))
          - m q**((m+1)k) / (1 + q**(m-(n-1)/2)) ),

    summed once over the cyclotomic lcm of its 2n denominators.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    terms = []
    for m in range(1, n + 1):
        scale, a = comb(n, m) * (-1) ** (n + m - 1 + k) * m, 2 * m - (n - 1)
        terms += [(scale, 2 * (m - 1) * k, (a - 4,)), (-scale, 2 * (m + 1) * k, (a,))]
    value = _plus_one_sum(terms, ((2, n),))  # (1 - q)**-n, its (-1)**n in each c
    return QGenocchiValue(n, k, "shifted", value)


def check_closed_form_g(n: int, k: int, conv: Convention) -> VerificationRecord:
    """Closed-form candidate vs the defining regularized value of G(n, k)."""
    lhs, rhs = closed_form_g(n, k).value, q_genocchi_number(n, k, conv).value
    return record_from_sides("closed_form_g", {"n": n, "k": k}, lhs, rhs, conv.value)


def check_closed_form_g_shift(n: int, k: int, conv: Convention) -> VerificationRecord:
    """Closed-form candidate vs the defining regularized value of G_shift."""
    lhs = closed_form_g_shift(n, k).value
    rhs = q_genocchi_number_shifted(n, k, conv).value
    return record_from_sides("closed_form_g_shift", {"n": n, "k": k}, lhs, rhs, conv.value)


def classical_limit_check(
    n: int, k: int, conv: Convention
) -> tuple[VerificationRecord, VerificationRecord]:
    """q -> 1 limits of both families against order-2 Genocchi values.

    First record: limit of G(n, k) compared with the order-2 Genocchi
    number.  Second record: limit of G_shift(n, k) compared with the
    order-2 Genocchi polynomial at k — a comparison claimed NOT to hold,
    so FAIL there means the inequality claim is confirmed.  Both are
    report-style equality records carrying the exact values (or pole
    flags) in details.
    """
    params = {"n": n, "k": k}
    lim_g = limit_at_one(q_genocchi_number(n, k, conv).value)
    number = order_r_genocchi(2, n)[n]
    rec1 = limit_record("classical_limit_g", params, lim_g, number, conv.value)

    lim_shift = limit_at_one(q_genocchi_number_shifted(n, k, conv).value)
    poly_at_k = order_r_genocchi(2, n, Fraction(k))[n]
    rec2 = limit_record(
        "classical_limit_g_shift", params, lim_shift, poly_at_k, conv.value
    )
    return rec1, rec2
