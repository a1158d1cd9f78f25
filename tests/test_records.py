"""Report rendering of rationals and rational functions against an oracle."""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from qgenocchi.poly import Poly
from qgenocchi.ratfunc import RatFunc
from qgenocchi.records import _coeff_list, ratfunc_str


def frac_oracle(value: Fraction | int) -> str:
    """p when the denominator is 1, else p/q, from the reduced fraction."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def coeff_list_oracle(p: Poly) -> str:
    if p.is_zero:
        return "[0]"
    return "[" + ",".join(frac_oracle(c) for c in p.coeffs) + "]"


rationals = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.fractions(),
    st.fractions(min_value=-(2**70), max_value=2**70, max_denominator=2**70),
)


@given(rationals)
@example(0)
@example(Fraction(0))
@example(2**64 + 1)
@example(-(2**64) - 1)
@example(Fraction(-7, 3))
@example(Fraction(7, -3))
def test_str_renders_rationals_as_the_oracle(value):
    assert str(Fraction(value)) == frac_oracle(value)
    assert str(value) == frac_oracle(value)


coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=12)
polys = st.lists(coeffs, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@given(polys, nonzero_polys)
@example(Poly([]), Poly([1, 3]))
@example(Poly([Fraction(1, 2), 4]), Poly([2, 0, 6]))
@example(Poly([-5]), Poly([Fraction(-3, 7)]))
def test_ratfunc_str_matches_coefficient_oracle(num, den):
    f = RatFunc(num, den)
    assert ratfunc_str(f) == f"num={coeff_list_oracle(f.num)};den={coeff_list_oracle(f.den)}"


int_polys = st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=6).map(Poly)
# A non-unit common denominator d >= 2 (the leading coefficient is 1/d), with
# zero and large numerators below it.
over_d_polys = st.builds(
    lambda nums, d: Poly([Fraction(c, d) for c in nums] + [Fraction(1, d)]),
    st.lists(st.one_of(st.just(0), st.integers(min_value=-(2**70), max_value=2**70)), max_size=6),
    st.integers(min_value=2, max_value=2**40),
)


@given(st.one_of(int_polys, polys, over_d_polys))
@example(Poly([]))
@example(Poly([Fraction(1, 3), 2]))
def test_coeff_list_matches_the_fraction_route(p):
    assert _coeff_list(p) == "[" + ",".join(map(str, p.coeffs or (0,))) + "]"
