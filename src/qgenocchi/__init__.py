"""Exact q-Genocchi constructions and identity verification.

Everything is computed over exact rationals: polynomials and rational
functions in x with x**2 = q carry the q-expressions, integer recurrences
give the classical number tables (power series in t stay as API and as
the tests' oracle), and a termwise regularization of alternating
exponential series defines the q-Genocchi numbers themselves.  Each
published identity has a checker returning a VerificationRecord whose
witness, when present, is the exact difference between the two sides.

The exported names resolve on first access (PEP 562): importing the
package loads none of its modules, so a command loads only what it runs.
"""

from __future__ import annotations

import enum

__version__ = "0.1.0"


class Convention(enum.Enum):
    """Bracket base used inside the exponential argument of the engine's
    series; defined here so that parsing `--convention` loads no engine."""

    Q = "q"
    Q2 = "q2"

    @property
    def base_power(self) -> int:
        return 1 if self is Convention.Q else 2

    @classmethod
    def parse(cls, text: str) -> Convention:
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown convention {text!r}; expected 'q' or 'q2'")


CONVENTIONS = (Convention.Q, Convention.Q2)

# Each exported name -> the module that defines it; `poly_gcd` is `poly.gcd`.
_SOURCES = {
    name: module
    for module, names in {
        "classical": "NumberTable alt_power_sum alt_power_sum_via_euler alt_sum_formula_check "
        "bernoulli_numbers euler_numbers euler_poly faulhaber_sum genocchi_numbers "
        "genocchi_poly genocchi_relations_check order_r_genocchi power_sum",
        "engine": "ExpTerm QGenocchiValue alt_qsum check_alt_qsum check_closed_form_g "
        "check_closed_form_g_shift classical_limit_check closed_form_g closed_form_g_shift "
        "coefficient_terms fermionic_sum merge_terms partial_sum q_genocchi_number "
        "q_genocchi_number_shifted shift_terms",
        "poly": "DegreeLimitError Poly poly_gcd",
        "qcore": "PoleReport garrett_hummel_check limit_at_one q_binomial q_binomial_limit_check "
        "q_integer q_power_sum q_power_sum_limit_check warnaar_check",
        "ratfunc": "PoleError RatFunc evaluate_at_q monomial_q",
        "records": "FAIL PASS VerificationRecord record_from_difference",
        "series": "Series exp_t exp_xt",
    }.items()
    for name in names.split()
}

__all__ = sorted(["CONVENTIONS", "Convention", *_SOURCES])


def __getattr__(name: str):
    """Import the module that defines `name`, and keep the value here."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_SOURCES[name]}")
    value = globals()[name] = getattr(module, "gcd" if name == "poly_gcd" else name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
