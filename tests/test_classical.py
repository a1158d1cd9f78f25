from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import add, mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgenocchi import classical, cli
from qgenocchi.classical import (
    alt_power_sum,
    alt_power_sum_via_euler,
    alt_sum_formula_check,
    bernoulli_numbers,
    euler_alt_formula,
    euler_numbers,
    euler_poly,
    faulhaber_sum,
    genocchi_numbers,
    genocchi_poly,
    genocchi_relations_check,
    order_r_genocchi,
    power_sum,
)
from qgenocchi.series import Series, exp_xt


def akiyama_tanigawa(n_max):
    """Independent Bernoulli oracle, no power series involved.

    The classic triangle produces the B_1 = +1/2 convention; (-1)^n flips
    exactly the n = 1 entry to match the generating-function convention
    used by the package (odd entries above 1 are zero either way).
    """
    row = [Fraction(1, j + 1) for j in range(n_max + 1)]
    out = [row[0]]
    for i in range(1, n_max + 1):
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
        out.append(row[0])
    return [(-1) ** n * b for n, b in enumerate(out)]


AT_BERNOULLI = akiyama_tanigawa(40)


def genocchi_poly_binomial(n, x):
    """G_n(x) as sum(binom(n,k) * G_k * x**(n-k)); the independent route."""
    table = genocchi_numbers(n)
    return sum(
        (comb(n, k) * table[k] * x ** (n - k) for k in range(n + 1)), Fraction(0)
    )


@lru_cache(maxsize=None)
def series_euler_gf(n_max):
    """2/(exp(t)+1) by inverting a Fraction power series."""
    halves = [Fraction(1)]
    halves += [Fraction(1, 2 * factorial(m)) for m in range(1, n_max + 1)]
    return Series(halves, n_max).recip()


def series_tables(n_max):
    """B, E, G and G^(2) as inverted Fraction power series, a route that
    shares nothing with the integer recurrences of the package."""
    bernoulli = Series([Fraction(1, factorial(m + 1)) for m in range(n_max + 1)], n_max)
    return {
        "B": bernoulli.recip(),
        "E": series_euler_gf(n_max),
        "G": series_euler_gf(n_max).shift_up(),
        "G^(2)": series_order_r_gf(2, n_max, Fraction(0)),
    }


def series_order_r_gf(r, n_max, x):
    """2*(1/(1+exp(t)))**r * exp(x*t) as a Fraction power series."""
    return (series_euler_gf(n_max) * Fraction(1, 2)) ** r * exp_xt(x, n_max) * 2


def euler_at_zero_oracle(n):
    # E_n(0) = 2*(1 - 2^(n+1)) * B_{n+1} / (n+1) for n >= 1, E_0 = 1
    if n == 0:
        return Fraction(1)
    return Fraction(2) * (1 - 2 ** (n + 1)) * AT_BERNOULLI[n + 1] / (n + 1)


def pascal_rows(n_max):
    """Rows C(n, i), i = 0 .. n, for n = 0 .. n_max.

    Each row comes from the one before by the Pascal rule, with no products
    of binomials: C(n+1, i) = C(n, i) + C(n, i-1).
    """
    row = [1]
    for _ in range(n_max + 1):
        yield row
        row = [*map(add, [*row, 0], [0, *row])]


@lru_cache(maxsize=None)
def pascal_rule_scaled_euler(n_max):
    """Reference e_n = 2**n * E_n by the Pascal-rule recurrence

    2*e_n + sum_{i<n} C(n, i) * 2**(n-i) * e_i = 2*[n = 0],

    over rows C(n, i) * 2**(n-i) built by W(n+1, i) = 2*W(n, i) + W(n, i-1).
    """
    e = []
    row = [1]
    for n in range(n_max + 1):
        e.append(classical._exact_quotient(2 * (n == 0) - sum(map(mul, row, e)), 2))
        row = [*map(add, [*(2 * v for v in row), 0], [0, *row])]
    return tuple(e)


@lru_cache(maxsize=None)
def pascal_rule_bernoulli(n_max):
    """Reference B_0 .. B_n_max: sum_{i<=n} C(n+1, i) * B_i = [n = 0], solved
    for b_n = D * B_n with D = lcm(1 .. n_max+1), which clears every
    denominator (von Staudt-Clausen), so each step is an exact integer
    division by n + 1."""
    denominator = lcm(*range(1, n_max + 2))
    rows = pascal_rows(n_max + 1)
    next(rows)
    b = []
    for n, row in enumerate(rows):
        total = (n == 0) * denominator - sum(map(mul, row, b))
        b.append(classical._exact_quotient(total, n + 1))
    return tuple(Fraction(v, denominator) for v in b)


@lru_cache(maxsize=None)
def pascal_rule_genocchi(n_max):
    """Reference G_0 .. G_n_max: 2*G_n + sum_{i<n} C(n, i) * G_i = 2*[n = 1]."""
    g = []
    for n, row in enumerate(pascal_rows(n_max)):
        g.append(classical._exact_quotient(2 * (n == 1) - sum(map(mul, row, g)), 2))
    return tuple(Fraction(v) for v in g)


def binomial_convolution(a, b):
    """EGF product: c_n = sum_i C(n, i) * a_i * b_(n-i)."""
    return [sum(comb(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def convolution_order_r_genocchi(r, n_max, x):
    """Reference G^(r)_n(x): the r-fold EGF product h of the scaled Euler
    numbers gives G^(r)_n(0) = h_n / 2**(n+r-1), then a binomial sum in x."""
    e = pascal_rule_scaled_euler(n_max)
    h = e
    for _ in range(r - 1):
        h = binomial_convolution(h, e)
    at_zero = [Fraction(v, 2 ** (n + r - 1)) for n, v in enumerate(h)]
    return [
        sum((comb(n, i) * at_zero[i] * x ** (n - i) for i in range(n + 1)), Fraction(0))
        for n in range(n_max + 1)
    ]


def test_bernoulli_against_triangle_oracle():
    table = bernoulli_numbers(40)
    for n in range(41):
        assert table[n] == AT_BERNOULLI[n], n


def test_bernoulli_anchors():
    table = bernoulli_numbers(12)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[3] == 0
    assert table[12] == Fraction(-691, 2730)


def test_euler_against_bernoulli_oracle():
    table = euler_numbers(30)
    for n in range(31):
        assert table[n] == euler_at_zero_oracle(n), n


def test_euler_anchors():
    table = euler_numbers(3)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[2] == 0
    assert table[3] == Fraction(1, 4)


def test_tables_match_series_oracle():
    n_max = 80
    oracle = series_tables(n_max)
    tables = {
        "B": bernoulli_numbers(n_max),
        "E": euler_numbers(n_max),
        "G": genocchi_numbers(n_max),
        "G^(2)": order_r_genocchi(2, n_max),
    }
    for kind, table in tables.items():
        assert len(table) == n_max + 1
        for n in range(n_max + 1):
            assert table[n] == oracle[kind].factorial_coeff(n), (kind, n)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=25),
    st.fractions(min_value=-20, max_value=20, max_denominator=50),
)
def test_order_r_genocchi_matches_series_oracle(r, n_max, x):
    table = order_r_genocchi(r, n_max, x)
    gf = series_order_r_gf(r, n_max, x)
    assert list(table) == [gf.factorial_coeff(n) for n in range(n_max + 1)]


def test_scaled_euler_matches_pascal_rule_reference():
    reference = pascal_rule_scaled_euler(300)
    for n in range(301):
        assert classical._scaled_euler(n) == reference[: n + 1], n


REFERENCE_XS = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3)]


@pytest.mark.parametrize("r", range(1, 7))
def test_order_r_genocchi_matches_convolution_reference(r):
    for n_max in (0, 1, 2, 9, 40):
        for x in REFERENCE_XS:
            expected = convolution_order_r_genocchi(r, n_max, x)
            assert list(order_r_genocchi(r, n_max, x)) == expected, (n_max, x)


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 30, 31])
def test_tables_are_prefix_stable(n_max):
    longer = classical._scaled_euler(n_max + 3)
    assert classical._scaled_euler(n_max) == longer[: n_max + 1]
    for r in (1, 2, 5):
        for x in REFERENCE_XS:
            longer = order_r_genocchi(r, n_max + 3, x)
            assert order_r_genocchi(r, n_max, x).values == longer.values[: n_max + 1]


@pytest.mark.parametrize(
    "build, reference",
    [(bernoulli_numbers, pascal_rule_bernoulli), (genocchi_numbers, pascal_rule_genocchi)],
)
def test_tables_match_pascal_rule_reference(build, reference):
    expected = reference(400)
    assert build(400).values == expected
    for n_max in (0, 1, 2, 3, 4, 199, 200, 201):
        assert build(n_max).values == expected[: n_max + 1], n_max


def test_three_tables_agree_to_500():
    b, e, g = bernoulli_numbers(500), euler_numbers(500), genocchi_numbers(500)
    for m in range(1, 251):
        assert g[2 * m] == 2 * (1 - 4**m) * b[2 * m] == 2 * m * e[2 * m - 1], m


@pytest.mark.parametrize("n_max", [200, 201])
def test_numbers_runs_one_tangent_walk(capsys, fresh_tables, n_max):
    assert cli.main(["numbers", "--nmax", str(n_max)]) == 0
    capsys.readouterr()
    assert classical._scaled_euler.cache_info().misses == 1


def test_bernoulli_against_triangle_oracle_to_100():
    assert list(bernoulli_numbers(100)) == akiyama_tanigawa(100)


@pytest.fixture
def fresh_tables():
    """Empty the table caches so a patched recurrence really runs."""
    caches = [f for f in vars(classical).values() if hasattr(f, "cache_clear")]
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_exact_quotient_refuses_a_remainder():
    assert classical._exact_quotient(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        classical._exact_quotient(-7, 2)


def off_by_one_row(rows_of, index):
    """rows_of with entry 1 of row `index` raised by one, in place, so the
    rows built from it inherit the error."""

    def rows(n_max):
        for n, row in enumerate(rows_of(n_max)):
            if n == index:
                row[1] += 1
            yield row

    return rows


@pytest.mark.parametrize("rows", ["_boustrophedon", "_seidel_rows"])
def test_an_off_by_one_row_entry_fails_the_relations(monkeypatch, fresh_tables, rows):
    assert genocchi_relations_check(5).passed
    classical.bernoulli_numbers.cache_clear()
    classical.genocchi_numbers.cache_clear()
    monkeypatch.setattr(classical, rows, off_by_one_row(getattr(classical, rows), 3))
    record = genocchi_relations_check(5)
    assert not record.passed
    assert record.witness != 0


def test_order_step_raises_on_a_corrupted_euler_table(monkeypatch, fresh_tables):
    scaled_euler = classical._scaled_euler

    def off_by_one(n_max):
        e = scaled_euler(n_max)
        return (*e[:3], e[3] + 1, *e[4:])

    monkeypatch.setattr(classical, "_scaled_euler", off_by_one)
    with pytest.raises(ArithmeticError):
        order_r_genocchi(3, 6)


def test_genocchi_anchors():
    table = genocchi_numbers(8)
    assert table[0] == 0
    assert table[1] == 1
    assert table[2] == -1
    assert table[5] == 0


def test_genocchi_bernoulli_relation_all_n():
    g = genocchi_numbers(40)
    for n in range(41):
        assert g[n] == 2 * (1 - 2**n) * AT_BERNOULLI[n], n


def test_genocchi_odd_vanish():
    table = genocchi_numbers(39)
    for m in range(3, 40, 2):
        assert table[m] == 0


def test_relations_check_grid():
    for m in range(1, 16):
        rec = genocchi_relations_check(m)
        assert rec.passed, (m, rec.witness)
        assert rec.identity == "genocchi_relations"
        assert set(rec.details) == {"series", "via_bernoulli", "via_euler"}


def test_relations_check_to_m_60():
    for m in range(1, 61):
        assert genocchi_relations_check(m).passed, m


def test_relations_loop_builds_each_table_once_per_power_of_two(fresh_tables):
    # Sizes 2, 4, .., 512 cover 2m <= 500.
    for m in range(1, 251):
        assert genocchi_relations_check(m).passed, m
    for table in (genocchi_numbers, bernoulli_numbers, euler_numbers):
        assert table.cache_info().misses == 9, table


def test_relations_check_domain():
    with pytest.raises(ValueError):
        genocchi_relations_check(0)


def test_genocchi_poly_at_zero_gives_numbers():
    table = genocchi_numbers(10)
    for n in range(11):
        assert genocchi_poly(n, Fraction(0)) == table[n]


SAMPLE_XS = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(5)]


def test_genocchi_poly_two_routes_agree():
    for n in range(16):
        for x in SAMPLE_XS:
            assert genocchi_poly(n, x) == genocchi_poly_binomial(n, x), (n, x)


def test_euler_and_genocchi_poly_match_series_oracle():
    n_max = 20
    for x in SAMPLE_XS:
        euler_gf = series_order_r_gf(1, n_max, x)
        genocchi_gf = (series_euler_gf(n_max) * exp_xt(x, n_max)).shift_up()
        for n in range(n_max + 1):
            assert euler_poly(n, x) == euler_gf.factorial_coeff(n), (n, x)
            assert genocchi_poly(n, x) == genocchi_gf.factorial_coeff(n), (n, x)


def test_order_r_genocchi_anchors():
    table = order_r_genocchi(2, 1)
    assert table[0] == Fraction(1, 2)
    assert table[1] == Fraction(-1, 2)
    assert table.kind == "G^(2)"


def test_order_one_reduces_to_euler_numbers():
    e = euler_numbers(12)
    g1 = order_r_genocchi(1, 12)
    assert list(g1) == list(e)


def test_order_r_genocchi_domain():
    with pytest.raises(ValueError):
        order_r_genocchi(0, 3)


def test_power_sum_values():
    assert power_sum(3, 3) == 36
    assert power_sum(5, 0) == 0
    assert power_sum(2, 10) == 385
    with pytest.raises(ValueError):
        power_sum(0, 3)


def test_faulhaber_values():
    assert faulhaber_sum(2, 4) == 14  # 1 + 4 + 9
    assert faulhaber_sum(1, 2) == 1
    assert faulhaber_sum(3, 1) == 0


def test_faulhaber_matches_bruteforce_patch():
    for n in range(1, 8):
        for k in range(1, 20):
            assert faulhaber_sum(n, k) == power_sum(n, k - 1), (n, k)


def test_alt_power_sum_values():
    assert alt_power_sum(2, 4) == -6  # -1 + 4 - 9
    assert alt_power_sum(1, 3) == 1
    assert alt_power_sum(3, 2) == -1
    with pytest.raises(ValueError):
        alt_power_sum(2, 1)


def test_alt_power_sum_euler_route_matches():
    for k in range(1, 9):
        for n in range(2, 20):
            assert alt_power_sum_via_euler(k, n) == alt_power_sum(k, n), (k, n)


def test_euler_poly_anchors():
    # E_1(x) = x - 1/2
    assert euler_poly(1, Fraction(3, 4)) == Fraction(1, 4)
    assert euler_poly(0, Fraction(7)) == 1


def test_alt_sum_formula_records_are_well_formed():
    saw_fail = False
    for k in range(1, 6):
        for n in range(2, 6):
            for transposed in (False, True):
                rec = alt_sum_formula_check(k, n, transposed=transposed)
                expected = (
                    "alt_sum_formula_transposed" if transposed else "alt_sum_formula"
                )
                assert rec.identity == expected
                if rec.passed:
                    assert rec.witness is None
                else:
                    saw_fail = True
                    assert rec.witness != 0
    assert saw_fail  # the printed formula does not hold as written


def test_literal_formula_evaluates_everywhere():
    for n in range(1, 11):
        for k in range(1, 11):
            value = euler_alt_formula(n, k)
            assert value.denominator >= 1


def test_literal_formula_builds_one_euler_table_per_power_of_two(monkeypatch, fresh_tables):
    cells = [(1, k) for k in range(1, 65)] + [(k, 1) for k in range(1, 65)]
    values = {cell: euler_alt_formula(*cell) for cell in cells}
    # Sizes 2, 4, .., 128; one size per k would be 64 tables.
    assert euler_numbers.cache_info().currsize <= 7
    for (n, k), value in values.items():
        # The same value from a table of exactly max(n, k - 1) + 1 entries.
        table = euler_numbers(max(n, k - 1))
        monkeypatch.setattr(classical, "euler_numbers", lambda size: table)
        assert euler_alt_formula(n, k) == value, (n, k)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=30))
def test_power_sum_recurrence(k, n):
    assert power_sum(k, n + 1) == power_sum(k, n) + (n + 1) ** k


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=25))
def test_alt_sum_recurrence(k, n):
    assert alt_power_sum(k, n + 1) == alt_power_sum(k, n) + (-1) ** n * n**k
