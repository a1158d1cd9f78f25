from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgenocchi.poly import ONE, Poly
from qgenocchi.ratfunc import (
    R_ONE,
    R_ZERO,
    PoleError,
    RatFunc,
    evaluate_at_q,
    monomial_q,
)

coeffs = st.integers(min_value=-4, max_value=4)
polys = st.lists(coeffs, min_size=0, max_size=4).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuncs = st.builds(RatFunc, polys, nonzero_polys)
nonzero_ratfuncs = ratfuncs.filter(lambda f: not f.is_zero)


def test_cancellation():
    f = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f.num == Poly([1, 1]) and f.den == ONE


def test_zero_numerator_collapses():
    f = RatFunc(Poly(), Poly([3, 5, 1]))
    assert f == R_ZERO
    assert f.num.is_zero and f.den == ONE


def test_constant_denominator_folds_in():
    f = RatFunc(Poly([2, 2]), Poly([4]))
    assert f.num == Poly([Fraction(1, 2), Fraction(1, 2)])
    assert f.den == ONE


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly([1]), Poly())


def test_canonical_form_is_idempotent():
    f = RatFunc(Poly([1, 2, 1]), Poly([2, 2]))
    again = RatFunc(f.num, f.den)
    assert again.num == f.num and again.den == f.den


def test_removable_singularity_evaluates():
    f = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f.evaluate(1) == 2


def test_genuine_pole_raises():
    f = RatFunc(ONE, Poly([-1, 1]))
    with pytest.raises(PoleError):
        f.evaluate(1)


def test_direct_substitution():
    f = RatFunc(Poly([1, 1]), Poly([2]))
    assert f.evaluate(Fraction(1, 2)) == Fraction(3, 4)


def test_monomial_q():
    assert monomial_q(2) == RatFunc(Poly([0, 0, 1]))
    assert monomial_q(0) == R_ONE
    assert monomial_q(-3) == RatFunc(ONE, Poly.monomial(3))


def test_pole_order_at_one():
    assert RatFunc(ONE, Poly([-1, 1])).pole_order_at_one() == 1
    assert (RatFunc(ONE, Poly([-1, 1])) ** 2).pole_order_at_one() == 2
    assert R_ONE.pole_order_at_one() == 0


def test_pow_negative_inverts():
    f = RatFunc(Poly([0, 0, 1]), Poly([1, 1]))
    assert f**-1 == RatFunc(Poly([1, 1]), Poly([0, 0, 1]))
    assert f**0 == R_ONE


def test_division():
    a = RatFunc(Poly([1, 1]))
    b = RatFunc(Poly([1, 0, 1]))
    assert a / b * b == a
    with pytest.raises(ZeroDivisionError):
        a / R_ZERO


def test_evaluate_at_q_integer_powers():
    # 1 + q + 2q^2 + q^3 + q^4 at q = 1/4, even x-powers only
    p = RatFunc(Poly([1, 0, 1, 0, 2, 0, 1, 0, 1]))
    assert evaluate_at_q(p, Fraction(1, 4)) == Fraction(357, 256)
    assert evaluate_at_q(p, Fraction(1, 3)) == Fraction(130, 81)


def test_evaluate_at_q_half_powers_need_square():
    f = monomial_q(3)  # q^(3/2)
    assert evaluate_at_q(f, Fraction(1, 4)) == Fraction(1, 8)
    with pytest.raises(ValueError, match="square"):
        evaluate_at_q(f, Fraction(1, 3))


def test_evaluate_at_q_pole():
    f = RatFunc(ONE, Poly([-1, 0, 1]))  # 1/(q - 1)
    with pytest.raises(PoleError):
        evaluate_at_q(f, Fraction(1))


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(ratfuncs)
def test_add_neg_cancels(a):
    assert a + (-a) == R_ZERO
    assert a - a == R_ZERO


@given(nonzero_ratfuncs)
def test_mul_inverse(a):
    assert a * a**-1 == R_ONE


@given(polys, nonzero_polys, nonzero_polys)
def test_scale_invariance(a, b, c):
    assert RatFunc(a * c, b * c) == RatFunc(a, b)


@given(ratfuncs, ratfuncs)
def test_eval_is_additive(a, b):
    x0 = Fraction(1, 3)
    try:
        lhs = (a + b).evaluate(x0)
        va, vb = a.evaluate(x0), b.evaluate(x0)
    except PoleError:
        return
    assert lhs == va + vb


def test_equal_values_hash_equal():
    p = Poly([1, 1])
    assert len({1, Poly([1]), RatFunc(1)}) == 1
    assert len({p, RatFunc(p)}) == 1
    c = Fraction(-2, 3)
    assert len({c, Poly([c]), RatFunc(c)}) == 1
    assert len({0, Poly([]), R_ZERO}) == 1


@given(polys)
def test_hash_follows_equality(p):
    equals = [RatFunc(p)] + ([p.leading] if p.degree < 1 else [])
    for value in equals:
        assert value == p and hash(value) == hash(p)


@given(ratfuncs)
def test_canonical_invariants(a):
    assert a.den.leading == 1
    if not a.is_zero:
        from qgenocchi.poly import gcd

        assert gcd(a.num, a.den) == ONE
