"""Differential tests of the polynomial kernel against sympy.

sympy is a test-only oracle: the module is skipped where it is not
installed.  Inputs are wider than in test_poly.py: degrees up to 12, large
numerators and denominators, negative leading coefficients, integer content
above 1, and the exact divisions RatFunc performs (num // gcd).
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgenocchi.poly import Poly, gcd
from qgenocchi.ratfunc import RatFunc, cyclotomic, cyclotomic_indices, over_cyclotomics

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")

big_coeffs = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
)
wide_polys = st.lists(big_coeffs, min_size=0, max_size=13).map(Poly)
# Integer polynomials times a content above 1, with the sign of the leading
# coefficient drawn separately so negative leads are common.
int_polys_with_content = st.builds(
    lambda cs, content, sign: Poly([sign * content * c for c in cs]),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=13).filter(
        lambda cs: cs[-1] != 0
    ),
    st.integers(min_value=2, max_value=10**6),
    st.sampled_from([1, -1]),
)
polys = st.one_of(wide_polys, int_polys_with_content)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly.from_list(coeffs, x, domain=sympy.QQ)


@given(polys, polys, st.fractions(max_denominator=50))
def test_add_mul_eval_match_sympy(a, b, x0):
    sa, sb = to_sympy(a), to_sympy(b)
    assert to_sympy(a + b) == sa + sb
    assert to_sympy(a - b) == sa - sb
    assert to_sympy(a * b) == sa * sb
    assert to_sympy(a * x0) == sa * sympy.Rational(x0.numerator, x0.denominator)
    value = sa.eval(sympy.Rational(x0.numerator, x0.denominator))
    assert a(x0) == Fraction(int(value.p), int(value.q))


@given(polys, nonzero_polys)
def test_divmod_matches_sympy(a, b):
    q, r = divmod(a, b)
    sq, sr = to_sympy(a).div(to_sympy(b))
    assert (to_sympy(q), to_sympy(r)) == (sq, sr)
    assert a // b == q and a % b == r


@given(nonzero_polys, polys, nonzero_polys)
def test_gcd_matches_sympy(a, b, c):
    # A shared factor c makes most gcds nontrivial.
    a, b = a * c, b * c
    g = gcd(a, b)
    assert to_sympy(g) == to_sympy(a).gcd(to_sympy(b))
    assert g.leading == 1


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_exact_division_by_gcd(a, b, c):
    num, den = a * c, b * c
    g = gcd(num, den)
    assert num // g * g == num and (num % g).is_zero
    assert to_sympy(num // g) == to_sympy(num).exquo(to_sympy(g))
    assert (num * den) // den == num


def assert_cancel_matches_sympy(num: Poly, den: Poly):
    # Poly.cancel is the polynomial step of sympy.cancel, without the round
    # trip through expressions that dominates its cost.
    f = RatFunc(num, den)
    sp, sq = to_sympy(num).cancel(to_sympy(den), include=True)
    lc = sq.LC()
    assert (to_sympy(f.num), to_sympy(f.den)) == (sp.quo_ground(lc), sq.quo_ground(lc))


@given(polys, nonzero_polys, nonzero_polys)
def test_ratfunc_canonical_form_matches_sympy_cancel(a, b, c):
    assert_cancel_matches_sympy(a * c, b * c)


X = Poly.monomial(1)
# One sum or product per way RatFunc can cancel, first over small linear
# factors, then over the 1 + x**beta and x**m - 1 that `verify` builds.
# With f = a/b and g = c/d, the degrees are those of the Henrici gcds
# gcd(b, d) and gcd(a*d/gcd(b, d) + c*b/gcd(b, d), gcd(b, d)) for +, and of
# the cross gcds gcd(a, d) and gcd(c, b) for *.
CANCEL_CASES = {
    "add-coprime": (RatFunc(1, X + 1), "+", RatFunc(1, X - 1), (0, 0)),
    "add-shared-g-h-one": (RatFunc(1, X * (X + 1)), "+", RatFunc(-1, X * (X - 1)), (1, 0)),
    "add-h-is-g": (RatFunc(1, 1 + X), "+", RatFunc(X, 1 + X), (1, 1)),
    "add-to-zero": (RatFunc(1, X - 1) - RatFunc(1, X + 1), "+", RatFunc(-2, X**2 - 1), (2, 2)),
    "mul-one-cross": (RatFunc(X + 1, X - 1), "*", RatFunc(X - 1, X + 2), (0, 1)),
    "mul-both-cross": (RatFunc(X + 2, X - 1), "*", RatFunc(X - 1, X + 2), (1, 1)),
    "verify-add-coprime": (RatFunc(1, 1 + X**2), "+", RatFunc(1, X**3 - 1), (0, 0)),
    "verify-add-shared-g-h-one": (RatFunc(1, 1 + X), "+", RatFunc(-1, X**2 - 1), (1, 0)),
    "verify-add-h-is-g": (RatFunc(1, 1 + X**3), "+", RatFunc(X**3, 1 + X**3), (3, 3)),
    "verify-add-to-zero": (
        RatFunc(1, X**2 - 1) - RatFunc(1, 1 + X**2),
        "+",
        RatFunc(-2, X**4 - 1),
        (4, 4),
    ),
    "verify-mul-one-cross": (RatFunc(1 + X, 1 + X**2), "*", RatFunc(X**3 - 1, 1 + X**3), (1, 0)),
    "verify-mul-both-cross": (RatFunc(1 + X**3, X**3 - 1), "*", RatFunc(X**3 - 1, 1 + X), (1, 3)),
}


@pytest.mark.parametrize("name", sorted(CANCEL_CASES))
def test_ratfunc_cancel_cases_match_uncancelled_and_sympy(name):
    f, op, g, degrees = CANCEL_CASES[name]
    a, b, c, d = f.num, f.den, g.num, g.den
    if op == "+":
        shared = gcd(b, d)
        gcds = (shared, gcd(a * (d // shared) + c * (b // shared), shared))
        num, den, got = a * d + c * b, b * d, f + g
    else:
        gcds = (gcd(a, d), gcd(c, b))
        num, den, got = a * c, b * d, f * g
    assert tuple(h.degree for h in gcds) == degrees
    assert got == RatFunc(num, den)  # structural: both canonical
    assert_cancel_matches_sympy(num, den)


# The strategies above almost never draw a zero constant term, so gcd's
# split into a power of x times a cofactor gcd gets operands of its own:
# each is multiplied by x**a with a in 0..6.
x_powers = st.integers(min_value=0, max_value=6)
monomials = st.builds(Poly.monomial, x_powers, big_coeffs.filter(bool))


def times_x(p: Poly, a: int) -> Poly:
    return p * Poly.monomial(a)


def assert_gcd_and_cancel_match_sympy(a: Poly, b: Poly):
    g = gcd(a, b)
    assert to_sympy(g) == to_sympy(a).gcd(to_sympy(b))
    if not b.is_zero:
        assert_cancel_matches_sympy(a, b)


@given(monomials, nonzero_polys, x_powers)
def test_gcd_monomial_against_polynomial(m, p, a):
    p = times_x(p, a)
    assert_gcd_and_cancel_match_sympy(m, p)
    assert_gcd_and_cancel_match_sympy(p, m)


@given(monomials, monomials)
def test_gcd_two_monomials(m1, m2):
    assert_gcd_and_cancel_match_sympy(m1, m2)


@given(nonzero_polys, nonzero_polys, nonzero_polys, x_powers, x_powers, x_powers)
def test_gcd_shared_x_power_content(a, b, c, i, j, k):
    # x**k * c is common to both sides on top of their own powers of x.
    c = times_x(c, k)
    assert_gcd_and_cancel_match_sympy(times_x(a * c, i), times_x(b * c, j))


@given(st.one_of(monomials, nonzero_polys), x_powers)
def test_gcd_zero_operand(p, a):
    p = times_x(p, a)
    assert_gcd_and_cancel_match_sympy(Poly(), p)
    assert_gcd_and_cancel_match_sympy(p, Poly())


# Operands of the kind `verify` feeds gcd: products of powers of x**a + 1 and
# x**a - 1 (q-brackets and the regularized denominators 1 + q**beta), of
# degree 20..80, where the coefficients of a remainder sequence grow.  Each
# factor is (a, sign, multiplicity).  x**a + 1 and x**b + 1 share a factor
# exactly when a and b hold the same power of 2, and x**a + 1 and x**b - 1
# exactly when b holds the higher one.
BRACKET_PAIRS = {
    "shared-x2-1": (
        [(2, -1, 4), (3, 1, 2), (5, 1, 1), (4, 1, 1)],
        [(2, -1, 2), (6, -1, 1), (7, 1, 3)],
        True,
    ),
    "coprime-odd-vs-even": (
        [(9, 1, 1), (15, 1, 1), (5, 1, 2), (3, 1, 1)],
        [(10, 1, 1), (6, 1, 2), (14, 1, 1), (2, 1, 3), (11, -1, 1)],
        False,
    ),
    "shared-multiplicities": (
        [(2, -1, 8), (4, 1, 4), (12, -1, 2)],
        [(2, -1, 5), (4, 1, 6), (8, 1, 1), (18, -1, 1)],
        True,
    ),
    "coprime-degree-64": (
        [(21, 1, 1), (15, 1, 2), (7, -1, 2)],
        [(20, 1, 2), (12, 1, 1), (4, 1, 3)],
        False,
    ),
}


def bracket_product(factors) -> Poly:
    p = Poly([1])
    for a, sign, mult in factors:
        p = p * (Poly.monomial(a) + sign) ** mult
    return p


@pytest.mark.parametrize("name", sorted(BRACKET_PAIRS))
def test_gcd_of_bracket_products_matches_sympy(name):
    fa, fb, shared = BRACKET_PAIRS[name]
    # Integer content and a rational scale ride along, as in RatFunc sums.
    a, b = 6 * bracket_product(fa), Fraction(-5, 3) * bracket_product(fb)
    assert 20 <= min(a.degree, b.degree) and max(a.degree, b.degree) <= 80
    g = gcd(a, b)
    assert to_sympy(g) == to_sympy(a).gcd(to_sympy(b))
    assert gcd(b, a) == g and g.is_monic
    assert (g.degree > 0) == shared
    assert_cancel_matches_sympy(a, b)


def test_cyclotomic_matches_sympy():
    for d in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(d, x), x, domain=sympy.QQ)
        assert to_sympy(cyclotomic(d)) == want, d


def test_cyclotomic_indices_factor_binomials():
    for m in range(1, 41):
        for sign in (-1, 1):
            product = Poly([1])
            for d in cyclotomic_indices(m, sign):
                product = product * cyclotomic(d)
            assert product == Poly.monomial(m) + sign, (m, sign)


cyclotomic_orders = st.integers(min_value=1, max_value=30)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
    st.lists(cyclotomic_orders, max_size=5),
    st.integers(min_value=0, max_value=3),
    st.lists(cyclotomic_orders, max_size=6),
)
def test_over_cyclotomics_matches_gcd_route(content, num_orders, num_x, den_orders):
    # num shares some, all or none of the denominator's factors, with
    # multiplicities on both sides; the gcd route is the reference.
    num = Poly.monomial(num_x, content)
    for d in num_orders:
        num = num * cyclotomic(d)
    exponents: dict[int, int] = {}
    den = Poly([1])
    for d in den_orders:
        exponents[d] = exponents.get(d, 0) + 1
        den = den * cyclotomic(d)
    got = over_cyclotomics(num, exponents)
    want = RatFunc(num, den)
    assert (got.num, got.den) == (want.num, want.den)


@given(
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=10)
    .map(Poly)
    .filter(bool),
    st.dictionaries(
        st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=3), max_size=4
    ),
    st.lists(st.integers(min_value=2, max_value=9).flatmap(lambda t: st.sampled_from([t, -t])), max_size=4),
    st.sampled_from(["random", "multiple", "coprime"]),
)
def test_probe_gate_agrees_with_gcd_route(base, exponents, roots, shape):
    # The trial divisions in over_cyclotomics run only where a value at a
    # large integer allows them.  A multiple of the whole denominator needs
    # every division let through; a product of x - t with |t| >= 2 shares
    # no root with any Phi_d, so it needs every division skipped.
    den = prod((cyclotomic(d) ** e for d, e in exponents.items()), start=Poly([1]))
    num = {
        "random": base,
        "multiple": base * den,
        "coprime": prod((X - t for t in roots), start=Poly([base.leading])),
    }[shape]
    got = over_cyclotomics(num, exponents)
    want = RatFunc(num, den)
    assert (got.num, got.den) == (want.num, want.den)
    assert_cancel_matches_sympy(num, den)
    if shape == "multiple":
        assert got.den == Poly([1])
    if shape == "coprime":
        assert got.den == den
