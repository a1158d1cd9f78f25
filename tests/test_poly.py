from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgenocchi.poly import (
    ONE,
    X,
    ZERO,
    DegreeLimitError,
    Poly,
    _monic_quotient,
    _shifted_sum,
    gcd,
    set_max_degree,
)
from qgenocchi.cli import max_degree
from qgenocchi.ratfunc import cyclotomic

small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
small_polys = st.lists(small_fracs, min_size=0, max_size=6).map(Poly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().is_zero
    assert Poly().degree == -1


def test_monomial_and_constants():
    assert X == Poly([0, 1])
    assert Poly.monomial(3, 2) == Poly([0, 0, 0, 2])
    with pytest.raises(ValueError):
        Poly.monomial(-1)
    assert ONE.degree == 0 and ZERO.degree == -1


def test_mul_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def test_mul_by_zero_absorbs():
    p = Poly([3, 0, 7])
    assert p * ZERO == ZERO
    assert p * 0 == ZERO


def test_square_of_geometric_chunk():
    # schoolbook: (1 + x + x^2)^2 = 1 + 2x + 3x^2 + 2x^3 + x^4
    assert Poly([1, 1, 1]) ** 2 == Poly([1, 2, 3, 2, 1])


def test_pow_and_eval():
    p = Poly([1, 1])
    assert p**0 == ONE
    assert p**3 == Poly([1, 3, 3, 1])
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    assert Poly([0, 0, 1])(Fraction(2, 3)) == Fraction(4, 9)


def test_divmod_exact_and_remainder():
    q, r = divmod(Poly([1, 0, -1]), Poly([1, 1]))
    assert q == Poly([1, -1]) and r == ZERO
    q, r = divmod(Poly([1, 1, 1]), Poly([-1, 1]))
    assert Poly([-1, 1]) * q + r == Poly([1, 1, 1])
    assert r.degree < 1
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1]), ZERO)


def test_gcd_common_linear_factor():
    assert gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_gcd_coprime():
    assert gcd(Poly([1, 1]), Poly([2, 1])) == ONE


def test_gcd_mixed_multiplicity():
    a = Poly([1, 1]) ** 2 * Poly([1, -1])
    b = Poly([1, 1]) * Poly([1, -1]) ** 2
    # common part (1+x)(1-x) = 1 - x^2, monic form x^2 - 1
    assert gcd(a, b) == Poly([-1, 0, 1])


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError, match="gcd undefined"):
        gcd(ZERO, ZERO)
    assert gcd(ZERO, Poly([2, 2])) == Poly([1, 1])


def test_monic():
    assert Poly([2, 4]).monic() == Poly([Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        ZERO.monic()
    assert Poly([2, 4]).monic().is_monic
    assert Poly([Fraction(2, 3), Fraction(1, 3)]).is_monic is False
    assert Poly([Fraction(1, 3), 1]).is_monic
    assert ZERO.is_monic is False


def test_degree_cap_env():
    set_max_degree(10)
    try:
        with pytest.raises(DegreeLimitError):
            Poly.monomial(11)
        assert Poly.monomial(10).degree == 10
    finally:
        set_max_degree(None)


def test_degree_cap_ignores_the_environment(monkeypatch):
    # Only the CLI reads QGL_MAX_DEGREE; library code keeps the cap it was set.
    monkeypatch.setenv("QGL_MAX_DEGREE", "5")
    try:
        assert Poly.monomial(12).degree == 12
        set_max_degree(5)
        with pytest.raises(DegreeLimitError, match="exceeds QGL_MAX_DEGREE=5"):
            Poly.monomial(12)
        set_max_degree(None)
        assert Poly.monomial(12).degree == 12
        with pytest.raises(DegreeLimitError, match="^degree 10001 exceeds QGL_MAX_DEGREE=10000$"):
            Poly.monomial(10_001)
        with pytest.raises(ValueError, match="positive integer"):
            set_max_degree(0)
    finally:
        set_max_degree(None)


def test_bad_degree_cap_rejected(monkeypatch):
    for raw in ("abc", "0", "-3", "1.5"):
        monkeypatch.setenv("QGL_MAX_DEGREE", raw)
        with pytest.raises(ValueError, match="positive integer"):
            max_degree()


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, nonzero_polys)
def test_divmod_law(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert (a % g).is_zero
    assert (b % g).is_zero
    assert g.leading == 1


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_scale_invariant(a, b, c):
    assert gcd(a * c, b * c) == gcd(a, b) * c.monic()


# Monic integer divisors: random integer lower coefficients under a leading
# 1, and powers of cyclotomic polynomials, the divisors over_cyclotomics uses.
monic_divisors = st.one_of(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(lambda cs: Poly([*cs, 1])),
    st.builds(lambda d, s: cyclotomic(d) ** s, st.integers(1, 18), st.integers(1, 3)),
)


@given(small_polys, monic_divisors, st.booleans())
def test_monic_quotient_matches_divmod(a, p, multiple):
    # A multiple of p (fractional content included) divides exactly; a
    # random a does when its remainder is 0, and only then.
    u = a * p if multiple else a
    q, r = divmod(u, p)
    got = _monic_quotient(u, p)
    if r.is_zero:
        assert got == q
        assert got._den == u._den or got.is_zero
    else:
        assert got is None
    assert (got is None) is (not multiple and not r.is_zero)


@given(small_polys, monic_divisors.filter(lambda p: p.degree > 0), nonzero_polys)
def test_monic_quotient_refuses_a_remainder(a, p, r):
    # a * p + r with a nonzero r of degree below deg p: never exact.
    r = divmod(r, p)[1] or Poly([Fraction(1, 3)])
    assert _monic_quotient(a * p + r, p) is None


@given(
    st.lists(
        st.tuples(st.integers(-9, 9).filter(bool), st.integers(0, 6), nonzero_polys),
        max_size=4,
    )
)
def test_shifted_sum_matches_termwise_products(terms):
    want = ZERO
    for c, e, p in terms:
        want = want + Poly.monomial(e, c) * p
    assert _shifted_sum(terms) == want


def test_shifted_sum_cap_counts_cancelled_terms():
    # The top terms cancel, but x**9 * (1 + x) has degree 10 on its own.
    terms = [(1, 9, Poly([1, 1])), (-1, 9, Poly([1, 1])), (1, 0, X)]
    set_max_degree(9)
    try:
        with pytest.raises(DegreeLimitError, match="degree 10 exceeds"):
            _shifted_sum(terms)
        set_max_degree(10)
        assert _shifted_sum(terms) == X
    finally:
        set_max_degree(None)
