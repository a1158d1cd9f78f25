"""Exact q-Genocchi constructions and identity verification.

Everything is computed over exact rationals: polynomials and rational
functions in x with x**2 = q carry the q-expressions, integer recurrences
give the classical number tables (power series in t stay as API and as
the tests' oracle), and a termwise regularization of alternating
exponential series defines the q-Genocchi numbers themselves.  Each
published identity has a checker returning a VerificationRecord whose
witness, when present, is the exact difference between the two sides.
"""

__version__ = "0.1.0"

from .classical import (
    NumberTable,
    alt_power_sum,
    alt_power_sum_via_euler,
    alt_sum_formula_check,
    bernoulli_numbers,
    euler_numbers,
    euler_poly,
    faulhaber_sum,
    genocchi_numbers,
    genocchi_poly,
    genocchi_relations_check,
    order_r_genocchi,
    power_sum,
)
from .engine import (
    CONVENTIONS,
    Convention,
    ExpTerm,
    QGenocchiValue,
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
from .poly import DegreeLimitError, Poly
from .poly import gcd as poly_gcd
from .qcore import (
    PoleReport,
    garrett_hummel_check,
    limit_at_one,
    q_binomial,
    q_binomial_limit_check,
    q_integer,
    q_power_sum,
    q_power_sum_limit_check,
    warnaar_check,
)
from .ratfunc import PoleError, RatFunc, evaluate_at_q, monomial_q
from .records import FAIL, PASS, VerificationRecord, record_from_difference
from .series import Series, exp_t, exp_xt

__all__ = [
    "CONVENTIONS",
    "Convention",
    "DegreeLimitError",
    "ExpTerm",
    "FAIL",
    "NumberTable",
    "PASS",
    "PoleError",
    "PoleReport",
    "Poly",
    "QGenocchiValue",
    "RatFunc",
    "Series",
    "VerificationRecord",
    "alt_power_sum",
    "alt_power_sum_via_euler",
    "alt_qsum",
    "alt_sum_formula_check",
    "bernoulli_numbers",
    "check_alt_qsum",
    "check_closed_form_g",
    "check_closed_form_g_shift",
    "classical_limit_check",
    "closed_form_g",
    "closed_form_g_shift",
    "coefficient_terms",
    "euler_numbers",
    "euler_poly",
    "evaluate_at_q",
    "exp_t",
    "exp_xt",
    "faulhaber_sum",
    "fermionic_sum",
    "garrett_hummel_check",
    "genocchi_numbers",
    "genocchi_poly",
    "genocchi_relations_check",
    "limit_at_one",
    "merge_terms",
    "monomial_q",
    "order_r_genocchi",
    "partial_sum",
    "poly_gcd",
    "power_sum",
    "q_binomial",
    "q_binomial_limit_check",
    "q_genocchi_number",
    "q_genocchi_number_shifted",
    "q_integer",
    "q_power_sum",
    "q_power_sum_limit_check",
    "record_from_difference",
    "shift_terms",
    "warnaar_check",
]
