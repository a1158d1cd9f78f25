import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenocchi import cli, engine, poly, qcore, ratfunc
from qgenocchi.classical import euler_numbers
from qgenocchi.engine import (
    CONVENTIONS,
    Convention,
    ExpTerm,
    _regularized,
    alt_qsum,
    check_alt_qsum,
    check_closed_form_g,
    check_closed_form_g_shift,
    classical_limit_check,
    closed_form_g,
    closed_form_g_shift,
    coefficient_terms,
    fermionic_sum,
    merge_terms,
    partial_sum,
    q_genocchi_number,
    q_genocchi_number_shifted,
    shift_terms,
)
from qgenocchi.poly import DegreeLimitError, Poly
from qgenocchi.qcore import limit_at_one, q_integer, q_power_sum_cells
from qgenocchi.ratfunc import R_ONE, R_ZERO, RatFunc, evaluate_at_q, monomial_q
from qgenocchi.records import record_from_sides
from qgenocchi.series import Series, exp_xt

Q, Q2 = Convention.Q, Convention.Q2
TWO_Q = RatFunc(Poly([1, 0, 1]))


def test_convention_parse():
    assert Convention.parse("q") is Q
    assert Convention.parse("q2") is Q2
    assert Q.base_power == 1 and Q2.base_power == 2
    with pytest.raises(ValueError):
        Convention.parse("q3")


def test_regularized_constant_exponent():
    # sum (-1)^(j-1) * 1 over j >= 0 is assigned -1/(1+1)
    assert fermionic_sum([ExpTerm(R_ONE, 0)]) == RatFunc(Poly([Fraction(-1, 2)]))


def test_regularized_pair_hand_value():
    # beta = 1 minus beta = -1: -1/(1+q) + q/(1+q) = (q-1)/(q+1)
    value = fermionic_sum([ExpTerm(R_ONE, 2), ExpTerm(-R_ONE, -2)])
    assert value == RatFunc(Poly([-1, 0, 1]), Poly([1, 0, 1]))


def test_empty_sum_is_zero():
    assert fermionic_sum([]) == R_ZERO
    assert partial_sum([], 5) == R_ZERO


def test_merge_terms_combines_and_drops():
    a = ExpTerm(R_ONE, 4)
    b = ExpTerm(-R_ONE, 4)
    c = ExpTerm(TWO_Q, -2)
    merged = merge_terms([a, c, b])
    assert merged == (ExpTerm(TWO_Q, -2),)


def test_coefficient_terms_n1_hand_expansion():
    # n=1: the weight [j]_{q^2} = (q^{2j}-1)/(q^2-1) splits into exponentials
    # at beta2 = +2 and beta2 = -2 with coefficient [2]_q q^k / (q^2 - 1).
    for k in range(4):
        c = monomial_q(2 * k) / RatFunc(Poly([-1, 0, 1]))
        expected = merge_terms([ExpTerm(-c, -2), ExpTerm(c, 2)])
        for conv in CONVENTIONS:
            assert coefficient_terms(1, k, "plain", conv) == expected


def test_zero_shift_degeneracy():
    for conv in CONVENTIONS:
        for n in range(1, 5):
            plain = coefficient_terms(n, 0, "plain", conv)
            shifted = coefficient_terms(n, 0, "shifted", conv)
            assert plain == shifted


def test_domain_errors():
    with pytest.raises(ValueError):
        coefficient_terms(0, 1, "plain", Q)
    with pytest.raises(ValueError):
        coefficient_terms(1, -1, "plain", Q)
    with pytest.raises(ValueError):
        coefficient_terms(1, 1, "sideways", Q)
    with pytest.raises(ValueError):
        alt_qsum(0, 2, Q)
    with pytest.raises(ValueError):
        shift_terms([], -1)


def test_first_family_n1_closed_value():
    # hand expansion through the regularization gives q^k/(1+q)
    for conv in CONVENTIONS:
        for k in range(11):
            got = q_genocchi_number(1, k, conv).value
            assert got == monomial_q(2 * k) / TWO_Q, (conv, k)


def test_shifted_equals_plain_at_zero_shift():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            a = q_genocchi_number(n, 0, conv)
            b = q_genocchi_number_shifted(n, 0, conv)
            assert a.value == b.value
            assert a.variant == "plain" and b.variant == "shifted"


def test_values_finite_on_grid():
    # canonical denominators never vanish identically: construction succeeds
    for conv in CONVENTIONS:
        for n in range(1, 11):
            for k in range(0, 11):
                assert not q_genocchi_number(n, k, conv).value.den.is_zero
                assert not q_genocchi_number_shifted(n, k, conv).value.den.is_zero


def _series_route_partial(n, k, variant, conv, j_count):
    """Truncated-series evaluation of the first j_count summands.

    Builds sum_j sign_j * weight_j * exp(t * arg_j) with plain Series
    arithmetic over the rational-function field, multiplies by [2]_q * t,
    and extracts n! times the t^n coefficient.  Shares no code with the
    exponential-expansion bookkeeping it cross-checks.
    """
    total = None
    for j in range(j_count):
        if variant == "plain":
            sign = (-1) ** (j + 1)
            weight = monomial_q(2 * (k - j)) * q_integer(j, 2)
            arg = q_integer(j, conv.base_power) * monomial_q(k - j)
        else:
            sign = (-1) ** (j + k + 1)
            weight = monomial_q(-2 * j) * q_integer(j + k, 2)
            arg = q_integer(j + k, conv.base_power) * monomial_q(-j)
        term = exp_xt(arg, n) * (weight * sign)
        total = term if total is None else total + term
    series = (total * TWO_Q).shift_up()
    return series.factorial_coeff(n)


def test_series_route_cross_check():
    # independent construction of the same truncation: series arithmetic
    # versus binomial expansion into exponentials plus partial_sum
    J = 5
    for conv in CONVENTIONS:
        for variant in ("plain", "shifted"):
            for n in range(1, 5):
                for k in range(0, 4):
                    terms = coefficient_terms(n, k, variant, conv)
                    assert partial_sum(terms, J) == _series_route_partial(
                        n, k, variant, conv, J
                    ), (conv, variant, n, k)


def test_shift_law_small_hand_case():
    terms = (ExpTerm(R_ONE, 2),)
    for k in range(5):
        lhs = fermionic_sum(shift_terms(terms, k))
        rhs = fermionic_sum(terms) - partial_sum(terms, k)
        assert lhs == rhs


small_ratfuncs = st.builds(
    RatFunc,
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(Poly),
    st.sampled_from([Poly([1]), Poly([2]), Poly([1, 1]), Poly([3, 0, 1])]),
)
term_lists = st.lists(
    st.builds(ExpTerm, small_ratfuncs, st.integers(-6, 6)), min_size=1, max_size=4
)


@settings(max_examples=60)
@given(term_lists, st.integers(min_value=0, max_value=6))
def test_shift_law_property(terms, k):
    lhs = fermionic_sum(shift_terms(terms, k))
    rhs = fermionic_sum(terms) - partial_sum(terms, k)
    assert lhs == rhs


def test_alt_qsum_vanishes_at_k1():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            assert alt_qsum(n, 1, conv) == R_ZERO


def test_alt_qsum_first_values():
    # j=1 carries sign (-1)^0 = +1, so the leading summand is positive
    assert alt_qsum(1, 2, Q) == monomial_q(2)
    assert alt_qsum(2, 2, Q) == monomial_q(3)
    assert alt_qsum(1, 2, Q2) == monomial_q(2)


def _literal_alt_qsum(n, k, conv):
    # The docstring's sum, term by term over q_integer, with no carried walk.
    total = R_ZERO
    for j in range(k):
        sign = 1 if j % 2 == 1 else -1
        bracket = q_integer(j, conv.base_power) ** (n - 1)
        total = total + q_integer(j, 2) * sign * bracket * monomial_q((k - j) * (n + 1))
    return total


def test_alt_qsum_walk_in_any_k_order():
    # Up, down, up, to zero and the same k again, with two n values and both
    # conventions interleaved, so each (n, conv) walk restarts and resumes.
    cli._clear_caches()
    for k in (5, 2, 7, 0, 7):
        for n in (2, 3):
            for conv in CONVENTIONS:
                assert alt_qsum(n, k, conv) == _literal_alt_qsum(n, k, conv), (n, k, conv)


def _count_terms(monkeypatch):
    """The list that collects the arguments of every term qcore's shared
    Horner step builds."""
    calls = []
    bracket_term = qcore._bracket_term

    def counting(*args):
        calls.append(args)
        return bracket_term(*args)

    monkeypatch.setattr(qcore, "_bracket_term", counting)
    cli._clear_caches()
    return calls


def test_alt_qsum_walk_is_linear_along_k(monkeypatch):
    calls = _count_terms(monkeypatch)
    per_step = []
    for k in range(1, 41):
        before = len(calls)
        alt_qsum(1, k, Q)
        per_step.append(len(calls) - before)
    # One term per step, and none for k = 1: [0]_{q^2} = 0.
    assert per_step == [0] + [1] * 39, per_step


def test_q_power_sum_walk_is_linear_along_n(monkeypatch):
    calls = _count_terms(monkeypatch)
    per_cell = []
    before = 0
    for _ in q_power_sum_cells(3, 40):
        per_cell.append(len(calls) - before)
        before = len(calls)
    # One term per cell, each row starting from f(0) = 0.
    assert per_cell == [1] * 120, per_cell


def test_telescoping_identity_grid():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            for k in range(1, 7):
                rec = check_alt_qsum(n, k, conv)
                assert rec.passed, (conv, n, k, rec.witness)
                assert rec.convention == conv.value


def _alt_qsum_record_from_sides(n, k, conv, lhs_conv):
    # The canonical route: both sides built and compared, lhs - rhs on a FAIL.
    g = engine.q_genocchi_number(n, k, conv).value
    g_shift = engine.q_genocchi_number_shifted(n, k, conv).value
    rhs = (g - g_shift) / (n * q_integer(2))
    label = conv.value if lhs_conv is conv else f"{lhs_conv.value}/{conv.value}"
    lhs = engine.alt_qsum(n, k, lhs_conv)
    return record_from_sides("alt_qsum", {"n": n, "k": k}, lhs, rhs, label)


@pytest.mark.parametrize("fault", [None, "alt_qsum_off_by_one", "g_off_by_a_fraction"])
def test_alt_qsum_cross_product_matches_record_from_sides(monkeypatch, fault):
    # Passing cells and mixed-convention FAILs; an lhs off by one
    # everywhere; and G off by 1 / (1 + x**3), so that G and G_shift no
    # longer share their denominator.  (On a passing cell they always do:
    # G - G_shift is n [2]_q times the polynomial lhs.)
    cells = list(product(range(1, 6), range(1, 6), CONVENTIONS))
    if fault == "alt_qsum_off_by_one":
        walk = engine.alt_qsum
        monkeypatch.setattr(engine, "alt_qsum", lambda n, k, conv: walk(n, k, conv) + 1)
    if fault == "g_off_by_a_fraction":
        extra = RatFunc(1, Poly.monomial(3) + 1)
        g_of = {cell: q_genocchi_number(*cell) for cell in cells}
        off = {cell: g._replace(value=g.value + extra) for cell, g in g_of.items()}
        monkeypatch.setattr(engine, "q_genocchi_number", lambda *cell: off[cell])
    statuses, shared = Counter(), Counter()
    for n, k, conv in cells:
        g = engine.q_genocchi_number(n, k, conv).value
        shared[g.den == engine.q_genocchi_number_shifted(n, k, conv).value.den] += 1
        for lhs_conv in CONVENTIONS:
            got = check_alt_qsum(n, k, conv, lhs_convention=lhs_conv).to_dict()
            want = _alt_qsum_record_from_sides(n, k, conv, lhs_conv).to_dict()
            assert json.dumps(got) == json.dumps(want), (n, k, conv, lhs_conv)
            statuses[got["status"]] += 1
    if fault is None:
        assert statuses["PASS"] >= 50 and statuses["FAIL"] > 0
        assert shared[False] == 0
    else:
        assert set(statuses) == {"FAIL"}
    if fault == "g_off_by_a_fraction":
        assert shared[False] > 0


def test_mixed_convention_fails_with_witness():
    rec = check_alt_qsum(2, 3, Q2, lhs_convention=Q)
    assert not rec.passed
    assert rec.convention == "q/q2"
    assert rec.witness is not None and not rec.witness.is_zero
    # and the witness is a concrete nonzero number at an exact sample point
    assert evaluate_at_q(rec.witness, Fraction(1, 4)) != 0


def test_closed_form_g_hand_transcription():
    # n=1, k=1: (1/(1-q)) * 1/((1+q^(-1))(1+q)) = q/((1-q)(1+q)^2)
    got = closed_form_g(1, 1).value
    want = monomial_q(2) / (RatFunc(Poly([1, 0, -1])) * TWO_Q**2)
    assert got == want


def test_closed_form_g_shift_hand_transcription():
    # n=1, k=1: sign (-1)^(m-1+k) = -1 on the single m=1 term;
    # piece = q^0/(1+q^(-1)) - q^2/(1+q) = (q - q^2)/(1+q), so the
    # (1/(1-q)) prefactor leaves -q/(1+q).
    got = closed_form_g_shift(1, 1).value
    assert got == -monomial_q(2) / TWO_Q


def test_closed_forms_fail_against_engine_with_exact_witness():
    rec1 = check_closed_form_g(1, 1, Q)
    assert not rec1.passed
    assert evaluate_at_q(rec1.witness, Fraction(1, 4)) != 0
    rec2 = check_closed_form_g_shift(1, 1, Q)
    assert not rec2.passed
    assert evaluate_at_q(rec2.witness, Fraction(1, 4)) != 0


def test_closed_form_discrepancy_is_structured():
    # measured on every tested cell: engine = (1-q^2) * closed and
    # engine_shifted = -closed_shifted; keep witnessing that structure
    one_minus_q2 = RatFunc(Poly([1, 0, 0, 0, -1]))
    for n in range(1, 5):
        for k in range(0, 5):
            g = q_genocchi_number(n, k, Q).value
            assert g == one_minus_q2 * closed_form_g(n, k).value, (n, k)
            gs = q_genocchi_number_shifted(n, k, Q).value
            assert gs == -closed_form_g_shift(n, k).value, (n, k)


def test_classical_limit_records():
    rec1, rec2 = classical_limit_check(1, 1, Q)
    assert rec1.identity == "classical_limit_g"
    assert rec2.identity == "classical_limit_g_shift"
    # limit of q^k/(1+q) at q=1 is 1/2; the order-2 number is -1/2
    assert rec1.details == {"limit": "1/2", "classical": "-1/2"}
    assert not rec1.passed
    assert rec1.witness == Fraction(1)


def test_classical_limit_details_always_present():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            for k in range(1, 7):
                for rec in classical_limit_check(n, k, conv):
                    assert set(rec.details) == {"limit", "classical"}
                    has_pole = rec.details["limit"].startswith("POLE(")
                    if has_pole:
                        assert rec.witness is None and not rec.passed


def test_value_objects_carry_coordinates():
    v = q_genocchi_number(3, 2, Q)
    assert (v.n, v.k, v.variant) == (3, 2, "plain")
    w = q_genocchi_number_shifted(3, 2, Q)
    assert w.variant == "shifted"


def test_deterministic_random_regression():
    # pin one seeded trial so the randomized property has a frozen witness
    rng = random.Random(11)
    terms = tuple(
        ExpTerm(RatFunc(Poly([rng.randint(-3, 3), rng.randint(-3, 3)]) + 1), b2)
        for b2 in (rng.randint(-6, 6), rng.randint(-6, 6))
    )
    k = 4
    assert fermionic_sum(shift_terms(terms, k)) == fermionic_sum(terms) - partial_sum(
        terms, k
    )


def _shifted_terms_by_hand(n, k, conv):
    """The shifted family's expansion written out on its own: prefactor
    n (-1)**k [2]_q / denom, with q**(b*m*k) on each pair and q**(2k) on the
    first term of the pair."""
    b = conv.base_power
    denom = (Poly.monomial(4) - 1) * (Poly.monomial(2 * b) - 1) ** (n - 1)
    prefactor = n * (-1) ** k * q_integer(2) / denom
    terms = []
    for m in range(n):
        c = prefactor * (comb(n - 1, m) * (-1) ** (n - 1 - m))
        c = c * monomial_q(2 * b * m * k)
        terms.append(ExpTerm(c * monomial_q(4 * k), 2 * b * m + 4 - (n + 1)))
        terms.append(ExpTerm(-c, 2 * b * m - (n + 1)))
    return merge_terms(terms)


def test_shifted_terms_match_hand_expansion():
    for conv in CONVENTIONS:
        for n in range(1, 9):
            for k in range(0, 9):
                got = coefficient_terms(n, k, "shifted", conv)
                assert got == _shifted_terms_by_hand(n, k, conv), (conv, n, k)


def _regularized_two_branch(beta2):
    """-1/(1 + x**beta2) with the x**|beta2| cleared by hand for beta2 < 0."""
    if beta2 >= 0:
        return RatFunc(Poly([-1]), Poly.monomial(beta2) + 1)
    a = -beta2
    return RatFunc(-Poly.monomial(a), Poly.monomial(a) + 1)


def test_regularized_matches_two_branch_form():
    for beta2 in range(-12, 13):
        assert _regularized(beta2) == _regularized_two_branch(beta2), beta2


def test_plain_values_vanish_for_even_n_under_q():
    """G(n, k) = 0 for even n under the q convention, and why.

    With b = 1 the plain term at m, beta2 = 2m + 3 - n, pairs with the
    second term at m' = n-1-m, beta2 = -(2m + 3 - n).  Their coefficients
    are P*a_m and -P*a_{m'} with a_m = C(n-1, m) (-1)**(n-1-m), and
    -a_{m'} / a_m = (-1)**n, so for even n the merged list has
    c_{-beta2} = c_{beta2}, and every beta2 is odd.  Since
    _regularized(beta2) + _regularized(-beta2) = -1, G = -sum_{beta2>0} c.
    Each unmerged pair is (c, -c), so all the c sum to 0, and by the
    symmetry so do the c with beta2 > 0.
    """
    for n in range(2, 9, 2):
        for k in range(0, 9):
            terms = coefficient_terms(n, k, "plain", Q)
            by_beta2 = {t.beta2: t.coeff for t in terms}
            assert all(b2 % 2 for b2 in by_beta2), (n, k)
            assert all(by_beta2[-b2] == c for b2, c in by_beta2.items()), (n, k)
            for b2 in by_beta2:
                assert _regularized(b2) + _regularized(-b2) == -R_ONE
            positive = [c for b2, c in by_beta2.items() if b2 > 0]
            assert sum(positive, R_ZERO) == R_ZERO, (n, k)
            assert fermionic_sum(terms) == R_ZERO
            assert q_genocchi_number(n, k, Q).value == R_ZERO, (n, k)


def test_shifted_values_vanish_for_even_n_under_q_at_small_k():
    # k = 0 is the plain family; at k = 1 the shift law subtracts the j = 0
    # summand, -sum c, which is 0 as above
    for n in range(2, 9, 2):
        for k in (0, 1):
            assert q_genocchi_number_shifted(n, k, Q).value == R_ZERO, (n, k)


def test_limit_of_g_is_minus_n_times_euler_number():
    for conv in CONVENTIONS:
        for n in range(1, 11):
            expected = -n * euler_numbers(n)[n]
            for k in range(0, 9):
                limit = limit_at_one(q_genocchi_number(n, k, conv).value)
                assert limit == expected, (conv, n, k)


def _partial_sum_by_monomials(terms, k):
    """The finite sum built one monomial at a time, summand by summand."""
    total = R_ZERO
    for term in terms:
        inner = R_ZERO
        for j in range(k):
            sign = 1 if j % 2 == 1 else -1
            inner = inner + monomial_q(term.beta2 * j) * sign
        total = total + term.coeff * inner
    return total


def test_partial_sum_matches_monomial_loop():
    coeff = RatFunc(Poly([2, -1]), Poly([1, 0, 3]))
    for beta2 in range(-8, 9):
        terms = (ExpTerm(coeff, beta2), ExpTerm(R_ONE, 3))
        for k in range(0, 9):
            got = partial_sum(terms, k)
            assert got == _partial_sum_by_monomials(terms, k), (beta2, k)


def test_g_scaling_matches_per_k_sum():
    # G(n, k) is built as q**((n+1)k/2) * G(n, 0); the per-k regularized sum
    # is the definition it must equal.
    for conv in CONVENTIONS:
        for n in range(1, 9):
            for k in range(0, 9):
                direct = fermionic_sum(coefficient_terms(n, k, "plain", conv))
                assert q_genocchi_number(n, k, conv).value == direct, (conv, n, k)
    with pytest.raises(ValueError):
        q_genocchi_number(1, -1, Q)


def _alt_qsum_by_terms(n, k, conv):
    """The defining alternating sum, term by term over rational functions."""
    b = conv.base_power
    total = R_ZERO
    for j in range(k):
        sign = 1 if j % 2 == 1 else -1
        term = q_integer(j, 2) * q_integer(j, b) ** (n - 1) * sign
        total = total + term * monomial_q((k - j) * (n + 1))
    return total


def test_alt_qsum_matches_term_sum():
    for lhs_conv in CONVENTIONS:
        for n in range(1, 9):
            for k in range(0, 9):
                want = _alt_qsum_by_terms(n, k, lhs_conv)
                assert alt_qsum(n, k, lhs_conv) == want, (lhs_conv, n, k)
                if k == 0:
                    continue
                for conv in CONVENTIONS:
                    g = q_genocchi_number(n, k, conv).value
                    g_shift = q_genocchi_number_shifted(n, k, conv).value
                    diff = want - (g - g_shift) / (n * q_integer(2))
                    got = check_alt_qsum(n, k, conv, lhs_convention=lhs_conv)
                    assert got.witness == (diff or None), (lhs_conv, conv, n, k)


term_pairs = st.lists(
    st.tuples(st.fractions(-3, 3, max_denominator=4), st.integers(-8, 8)), max_size=4
)


@settings(max_examples=40)
@given(term_pairs, st.integers(min_value=0, max_value=6))
def test_maps_split_over_unit_terms(pairs, k):
    # The premise of cli.shift_law_record's defect table: each map acts on a
    # term list term by term, as the coefficient times its unit-term value.
    terms = tuple(ExpTerm(c * R_ONE, beta2) for c, beta2 in pairs)
    units = [(c, (ExpTerm(R_ONE, beta2),)) for c, beta2 in pairs]
    assert fermionic_sum(terms) == sum((c * fermionic_sum(u) for c, u in units), R_ZERO)
    assert partial_sum(terms, k) == sum((c * partial_sum(u, k) for c, u in units), R_ZERO)
    assert shift_terms(terms, k) == tuple(
        ExpTerm(c * t.coeff, t.beta2) for c, u in units for t in shift_terms(u, k)
    )


def _closed_form_g_per_k(n, k):
    """The printed closed form for G(n, k), summed afresh at this k."""
    total = R_ZERO
    for m in range(1, n + 1):
        numer = monomial_q(2 * m + 2 * k + (n - 1) * (k - 1) - 4)
        numer = numer * (comb(n, m) * (-1) ** (m - 1) * m)
        d1 = monomial_q(2 * m - 4 - (n - 1)) + 1
        d2 = monomial_q(2 * m - (n - 1)) + 1
        total = total + numer / (d1 * d2)
    return (1 - monomial_q(2)) ** -n * total


def test_closed_form_g_scaling_matches_per_k_sum():
    # closed_form_g(n, k) is built as q**((n+1)k/2) * closed_form_g(n, 0).
    for n in range(1, 11):
        for k in range(0, 11):
            assert closed_form_g(n, k).value == _closed_form_g_per_k(n, k), (n, k)


def test_shifted_values_match_regularized_term_sum():
    # G_shift is summed once over the cyclotomic lcm; the termwise
    # fermionic_sum of the shifted terms is the definition it must equal.
    for conv in CONVENTIONS:
        for n in range(1, 9):
            for k in range(0, 9):
                direct = fermionic_sum(coefficient_terms(n, k, "shifted", conv))
                assert q_genocchi_number_shifted(n, k, conv).value == direct, (conv, n, k)


def _closed_form_g_shift_literal(n, k):
    """The printed closed form for G_shift(n, k), one RatFunc piece at a time."""
    total = R_ZERO
    for m in range(1, n + 1):
        scale = comb(n, m) * (-1) ** (m - 1 + k) * m
        d1 = monomial_q(2 * m - 4 - (n - 1)) + 1
        d2 = monomial_q(2 * m - (n - 1)) + 1
        piece = monomial_q(2 * (m - 1) * k) / d1 - monomial_q(2 * (m + 1) * k) / d2
        total = total + piece * scale
    return (1 - monomial_q(2)) ** -n * total


def test_closed_form_g_shift_matches_literal_sum():
    for n in range(1, 11):
        for k in range(0, 11):
            assert closed_form_g_shift(n, k).value == _closed_form_g_shift_literal(n, k), (n, k)


def test_engine_sums_run_no_gcd(monkeypatch):
    calls = []
    poly_gcd = poly.gcd

    def counting(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(poly, "gcd", counting)
    monkeypatch.setattr(ratfunc, "gcd", counting)
    # G(n, 0) is read from G_shift(n, 0), so both caches start empty.
    q_genocchi_number.cache_clear()
    q_genocchi_number_shifted.cache_clear()
    g = q_genocchi_number(6, 0, Q).value
    g_shift = q_genocchi_number_shifted(6, 3, Q).value
    assert calls == []
    assert g == fermionic_sum(coefficient_terms(6, 0, "plain", Q))
    assert g_shift == fermionic_sum(coefficient_terms(6, 3, "shifted", Q))
    assert calls


def test_sum_frames_are_built_once_per_column(monkeypatch):
    calls = []
    floordiv = Poly.__floordiv__

    def counting(a, b):
        calls.append(1)
        return floordiv(a, b)

    monkeypatch.setattr(Poly, "__floordiv__", counting)

    def column(ks):
        cli._clear_caches()
        before = len(calls)
        for k in ks:
            q_genocchi_number_shifted(4, k, Q)
        return len(calls) - before

    whole = column(range(9))
    # The cofactors are divided out once per column, so the seven inner k
    # add no division to the two ends, which build every Phi_d it uses.
    assert whole == column((0, 8)) > 0
    assert column(range(9)) == whole


def test_engine_sums_respect_degree_cap():
    poly.set_max_degree(20)
    try:
        with pytest.raises(DegreeLimitError):
            q_genocchi_number_shifted.__wrapped__(8, 8, Q)
    finally:
        poly.set_max_degree(None)


@pytest.mark.parametrize(
    "family, args",
    [
        (q_genocchi_number_shifted, (3, 4, Q)),
        (q_genocchi_number_shifted, (5, 3, Q2)),
        (q_genocchi_number_shifted, (6, 6, Q)),
        (q_genocchi_number_shifted, (4, 1, Q)),
        (closed_form_g_shift, (3, 3)),
        (closed_form_g_shift, (5, 4)),
        (closed_form_g_shift, (4, 1)),
    ],
)
def test_degree_cap_trips_at_the_largest_summand(monkeypatch, family, args):
    # D, the largest e + deg(cofactor) over the summands of a sum's
    # numerator, is the lowest cap the sum builds under.  At (4, 1) under
    # q both numerators cancel to 0, so D is no degree of the sum.
    seen = []
    plus_one_sum = engine._plus_one_sum
    monkeypatch.setattr(
        engine, "_plus_one_sum", lambda terms, m: seen.append((terms, m)) or plus_one_sum(terms, m)
    )
    family.__wrapped__(*args)
    terms, minus_ones = seen[0]
    # As in _plus_one_sum: 1 / (1 + x**a) with a < 0 reads x**-a / (1 + x**-a).
    terms = [(e - sum(min(a, 0) for a in a_s), tuple(map(abs, a_s))) for _, e, a_s in terms]
    cofactors, _ = engine._frame(tuple(dict.fromkeys(a_s for _, a_s in terms)), minus_ones)
    top = max(e + cofactors[a_s].degree for e, a_s in terms)
    try:
        poly.set_max_degree(top - 1)
        with pytest.raises(DegreeLimitError, match=f"^degree {top} exceeds QGL_MAX_DEGREE={top - 1}$"):
            family.__wrapped__(*args)
        poly.set_max_degree(top)
        family.__wrapped__(*args)
    finally:
        poly.set_max_degree(None)
