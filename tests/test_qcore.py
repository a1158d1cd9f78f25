from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qgenocchi import cli, engine, poly, qcore, ratfunc
from qgenocchi.engine import Convention
from qgenocchi.poly import DEFAULT_MAX_DEGREE, ONE, DegreeLimitError, Poly
from qgenocchi.qcore import (
    PoleReport,
    garrett_hummel_check,
    limit_at_one,
    q_binomial,
    q_binomial_cells,
    q_binomial_limit_check,
    q_integer,
    q_integer_poly,
    q_power_sum,
    q_power_sum_cells,
    q_power_sum_limit_check,
    warnaar_check,
)
from qgenocchi.ratfunc import R_ONE, R_ZERO, RatFunc, monomial_q
from qgenocchi.records import FAIL, limit_record


def test_q_integer_small():
    # [3]_q = 1 + q + q^2, even x-powers only
    assert q_integer(3) == RatFunc(Poly([1, 0, 1, 0, 1]))
    assert q_integer(0) == R_ZERO
    assert q_integer(1) == R_ONE


def test_q_integer_negative():
    # [-1]_q = -1/q
    assert q_integer(-1) == RatFunc(Poly([-1]), Poly.monomial(2))
    assert q_integer(-2) == -(monomial_q(-2) + monomial_q(-4))
    # (q**(b*k) - 1) / (q**b - 1), literally, in bases q, q**2 and q**3.
    for b in (1, 2, 3):
        for k in range(-8, 0):
            want = (monomial_q(2 * b * k) - 1) / (monomial_q(2 * b) - 1)
            assert q_integer(k, b) == want, (k, b)


def test_q_integer_other_base():
    # [2]_{q^2} = 1 + q^2
    assert q_integer(2, 2) == RatFunc(Poly([1, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        q_integer(3, 0)


def test_q_integer_poly_rejects_what_is_no_polynomial():
    assert RatFunc(q_integer_poly(3, 2)) == q_integer(3, 2)
    # [-1]_q = -1/q is no polynomial, and base q**0 has no [k] at all.
    for k, base_power in ((-1, 1), (-3, 2), (2, 0), (0, -1)):
        with pytest.raises(ValueError):
            q_integer_poly(k, base_power)


def test_q_integer_additivity():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert q_integer(a + b) == q_integer(a) + monomial_q(2 * a) * q_integer(b)


def test_q_binomial_small():
    assert q_binomial(2, 1) == q_integer(2)
    assert q_binomial(5, 5) == R_ONE
    assert q_binomial(4, 0) == R_ONE
    # [4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4
    assert q_binomial(4, 2) == RatFunc(Poly([1, 0, 1, 0, 2, 0, 1, 0, 1]))


def test_q_binomial_out_of_range():
    assert q_binomial(3, 5) == R_ZERO
    assert q_binomial(3, -1) == R_ZERO
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_is_polynomial_with_nonneg_int_coeffs():
    for n in range(9):
        for k in range(n + 1):
            f = q_binomial(n, k)
            assert f.den == ONE
            assert all(c >= 0 and c.denominator == 1 for c in f.num.coeffs)


def test_pascal_recurrence():
    for n in range(2, 21):
        for k in range(1, n):
            lhs = q_binomial(n, k)
            rhs = q_binomial(n - 1, k - 1) + monomial_q(2 * k) * q_binomial(n - 1, k)
            assert lhs == rhs, (n, k)


def test_symmetry():
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)


def test_q_power_sum_edges():
    assert q_power_sum(1, 1) == R_ONE
    assert q_power_sum(4, 0) == R_ZERO
    with pytest.raises(ValueError):
        q_power_sum(0, 3)


def test_q_power_sum_has_half_powers_when_m_even():
    f = q_power_sum(2, 2)
    assert any(c and i % 2 for i, c in enumerate(f.num.coeffs))


def test_limit_q_integer():
    for k in range(1, 21):
        assert limit_at_one(q_integer(k)) == k


def test_limit_q_binomial():
    for n in range(13):
        for k in range(n + 1):
            assert limit_at_one(q_binomial(n, k)) == comb(n, k)


def test_limit_pole_report():
    pole = limit_at_one(RatFunc(ONE, Poly([1, 0, -1])))  # 1/(1-q)
    assert isinstance(pole, PoleReport)
    assert pole.order == 1
    assert str(pole) == "POLE(1)"


def test_limit_double_pole():
    pole = limit_at_one(RatFunc(ONE, Poly([1, 0, -1]) ** 2))
    assert pole == PoleReport(2)


def test_warnaar_small():
    assert warnaar_check(1).passed
    rec = warnaar_check(2)
    assert rec.passed
    assert rec.identity == "warnaar"
    assert rec.params == {"n": 2}


def test_warnaar_n2_by_hand():
    # q^2 + (1+q)^2 (1+q^2) = (1+q+q^2)^2
    lhs = monomial_q(4) + q_integer(2) ** 2 * q_integer(2, 2)
    assert lhs == q_binomial(3, 2) ** 2


def test_warnaar_left_side_is_q_power_sum():
    for n in range(1, 13):
        lhs = R_ZERO
        for k in range(1, n + 1):
            term = q_integer(k) ** 2 * q_integer(k, 2)
            lhs = lhs + term * RatFunc(Poly.monomial(4 * (n - k)))
        assert lhs == q_power_sum(3, n), n


def test_garrett_hummel_small():
    for n in (1, 2, 3):
        rec = garrett_hummel_check(n)
        assert rec.passed, (n, rec.witness)
    with pytest.raises(ValueError):
        garrett_hummel_check(0)


def test_integer_rows_canonicalize_once(monkeypatch):
    calls = []
    poly_gcd = poly.gcd

    def counting(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(poly, "gcd", counting)
    monkeypatch.setattr(ratfunc, "gcd", counting)
    counts = []
    for n in (1, 4, 12):
        calls.clear()
        assert garrett_hummel_check(n).passed, n
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2], counts
    calls.clear()
    q_integer(-5, 2)
    assert len(calls) == 1


def test_limit_checks_pass():
    rec = q_power_sum_limit_check(3, 2)
    assert rec.passed
    assert rec.details == {"limit": "9", "classical": "9"}
    rec = q_binomial_limit_check(6, 3)
    assert rec.passed
    assert rec.details["limit"] == "20"


def test_limit_record_branches():
    params = {"n": 2, "k": 1}
    rec = limit_record("some_limit", params, PoleReport(2), Fraction(3), "q")
    assert rec.status == FAIL and rec.witness is None
    assert rec.details == {"limit": "POLE(2)", "classical": "3"}
    assert (rec.params, rec.convention) == (params, "q")
    rec = limit_record("some_limit", params, Fraction(3), Fraction(3))
    assert rec.passed and rec.witness is None and rec.convention is None
    assert rec.details == {"limit": "3", "classical": "3"}
    rec = limit_record("some_limit", params, Fraction(1, 2), Fraction(3))
    assert rec.status == FAIL and rec.witness == Fraction(-5, 2)
    assert rec.details == {"limit": "1/2", "classical": "3"}


@given(st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=3))
def test_q_integer_limit_is_index(k, base):
    assert limit_at_one(q_integer(k, base)) == k


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=8))
def test_q_power_sum_recurrence(m, n):
    # f_{m,q}(n+1) = q^{(m+1)/2} f_{m,q}(n) + [n+1]_{q^2} [n+1]_q^{m-1}
    lhs = q_power_sum(m, n + 1)
    rhs = monomial_q(m + 1) * q_power_sum(m, n) + q_integer(n + 1, 2) * q_integer(
        n + 1
    ) ** (m - 1)
    assert lhs == rhs


def _q_power_sum_by_terms(m, n):
    """The defining sum, every term built and added as a rational function."""
    total = R_ZERO
    for k in range(1, n + 1):
        term = q_integer(k, 2) * q_integer(k) ** (m - 1)
        total = total + term * monomial_q((n - k) * (m + 1))
    return total


def test_q_power_sum_matches_term_sum():
    for m in range(1, 7):
        for n in range(0, 16):
            assert q_power_sum(m, n) == _q_power_sum_by_terms(m, n), (m, n)


def test_q_power_sum_cells_match_term_sum():
    # The grid walk and the single cells share the running-sum builder, so
    # the grid is checked against the oracle on its own.
    for m, n, f in q_power_sum_cells(7, 12):
        assert RatFunc(f) == _q_power_sum_by_terms(m, n), (m, n)


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([1, 2]),
)
@example(0, 5, 1)
@example(1, 12, 2)
def test_bracket_term_matches_poly_powers(n, e, b):
    want = q_integer_poly(n, 2) * q_integer_poly(n, b) ** e
    assert Poly(qcore._bracket_term(n, e, b)) == want


@pytest.mark.parametrize(
    "walk",
    [
        lambda: list(q_power_sum_cells(7, 10)),
        lambda: engine.alt_qsum(4, 5, Convention.Q),
        lambda: q_power_sum(2000, 2),
    ],
    ids=["q_power_sum_cells", "alt_qsum", "high_power"],
)
def test_tripped_cap_builds_no_longer_list(monkeypatch, walk):
    # Every list of running sums and every Poly made stays within cap + 1
    # entries up to the DegreeLimitError: the term's degree is checked first.
    cap, lengths = 30, []

    def record(nums):
        lengths.append(len(nums))
        return nums

    running = qcore.accumulate
    monkeypatch.setattr(qcore, "accumulate", lambda it: record(list(running(it))))
    for module in (qcore, engine):
        make = module._make
        monkeypatch.setattr(module, "_make", lambda nums, den, make=make: make(record(nums), den))
    cli._clear_caches()
    poly.set_max_degree(cap)
    try:
        with pytest.raises(DegreeLimitError, match=f"exceeds QGL_MAX_DEGREE={cap}"):
            walk()
    finally:
        poly.set_max_degree(None)
        cli._clear_caches()
    assert max(lengths, default=0) <= cap + 1


@pytest.mark.parametrize(
    "walk, cap",
    [
        (lambda: list(q_binomial_cells(1000)), 100),
        (lambda: q_binomial(40, 20), 300),
        (lambda: list(q_power_sum_cells(9, 30)), 250),
        (lambda: q_power_sum(20, 8), 200),
    ],
    ids=["q_binomial_cells", "q_binomial", "q_power_sum_cells", "q_power_sum"],
)
def test_over_cap_walk_builds_nothing_and_trips_at_the_same_cell(monkeypatch, walk, cap):
    # The cap is checked before the q-Pascal walk builds a row and before the
    # Horner walk builds a term, and names the cell the walk itself trips at.
    built = []
    monomial, bracket_term = Poly.monomial, qcore._bracket_term
    monkeypatch.setattr(Poly, "monomial", staticmethod(lambda *a: built.append(a) or monomial(*a)))
    monkeypatch.setattr(qcore, "_bracket_term", lambda *a: built.append(a) or bracket_term(*a))

    def tripped():
        built.clear()
        poly.set_max_degree(cap)
        try:
            with pytest.raises(DegreeLimitError) as info:
                walk()
        finally:
            poly.set_max_degree(None)
        return str(info.value), len(built)

    message, count = tripped()
    assert count == 0
    monkeypatch.setattr(qcore, "_check_walk", lambda degrees, widest: None)
    assert tripped()[0] == message and built


def test_n_one_column_runs_no_window(monkeypatch):
    # f_{m,q}(1) = 1 for every m, built without a running-sum window; the
    # n = 2 cells of m = 1, 2, 3 run m - 1 windows each.
    windows = []
    running = qcore.accumulate
    monkeypatch.setattr(qcore, "accumulate", lambda it: windows.append(1) or running(it))
    assert [f for _, _, f in q_power_sum_cells(500, 1)] == [ONE] * 500
    assert windows == []
    list(q_power_sum_cells(3, 2))
    assert len(windows) == 3


def _q_binomial_by_ratios(n, k):
    """prod_{j=1}^{k} [n+1-j]_q / [j]_q over rational functions."""
    out = R_ONE
    for j in range(1, k + 1):
        out = out * q_integer(n + 1 - j) / q_integer(j)
    return out


def test_q_binomial_matches_ratio_product():
    for n in range(21):
        for k in range(n + 1):
            assert q_binomial(n, k) == _q_binomial_by_ratios(n, k), (n, k)


def test_q_binomial_narrow_cell_of_wide_row():
    # [150, 2] has x-degree 592; the middle cell of row 150 has 11250, above
    # the default degree cap, so only the columns up to min(k, n - k) are built.
    assert poly._cap == DEFAULT_MAX_DEGREE  # the cap in force; the library reads no environment
    for k in (2, 148):
        f = q_binomial(150, k)
        assert f.num.degree == 592
        assert f == _q_binomial_by_ratios(150, 2)
        assert limit_at_one(f) == comb(150, 2)
    assert warnaar_check(141).passed


def test_grid_cells_match_single_cells():
    assert list(q_binomial_cells(6)) == [
        (n, k, q_binomial(n, k).num) for n in range(7) for k in range(n + 1)
    ]
    assert list(q_power_sum_cells(3, 5)) == [
        (m, n, q_power_sum(m, n).num) for m in range(1, 4) for n in range(1, 6)
    ]
    # limits maps its checks over the same walks, binomial rows first; each
    # family's plan makes its walk, which checks the degree cap.
    cfg = cli.RunConfig("limits", n_max=3, k_max=5)
    binomial_family, power_sum_family = cli._SUBCOMMANDS["limits"].families
    assert (binomial_family.identity, power_sum_family.identity) == (
        "q_binomial_limit", "q_power_sum_limit"
    )
    assert list(binomial_family.plan(cfg)) == list(q_binomial_cells(3))
    assert list(power_sum_family.plan(cfg)) == list(q_power_sum_cells(3, 5))
    binomials, power_sums = binomial_family.records(cfg), power_sum_family.records(cfg)
    assert list(binomials) == [
        q_binomial_limit_check(n, k) for n in range(4) for k in range(n + 1)
    ]
    assert list(power_sums) == [
        q_power_sum_limit_check(m, n) for m in range(1, 4) for n in range(1, 6)
    ]
