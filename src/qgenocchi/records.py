"""Verification records and their serialization.

A record states one instance of one identity: which identity, at which
integer parameters, under which convention, whether the two sides agreed
(PASS) and, when they did not, the exact difference as a witness.  Records
serialize to strings deterministically: rationals as "p/q" (plain integers
when the denominator is 1), rational functions as canonical coefficient
lists "num=[...];den=[...]".
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Union

from .poly import Poly
from .ratfunc import RatFunc

Witness = Union[Fraction, RatFunc]

PASS = "PASS"
FAIL = "FAIL"


def frac_str(value: Fraction | int) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _coeff_list(p: Poly) -> str:
    if p.is_zero:
        return "[0]"
    return "[" + ",".join(frac_str(c) for c in p.coeffs) + "]"


def ratfunc_str(f: RatFunc) -> str:
    return f"num={_coeff_list(f.num)};den={_coeff_list(f.den)}"


class VerificationRecord(NamedTuple):
    """Outcome of one exact identity check."""

    identity: str
    params: dict
    convention: str | None = None
    status: str = PASS
    witness: Witness | None = None
    details: Mapping[str, str] = MappingProxyType({})

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def sort_key(self):
        return (
            self.identity,
            tuple(sorted(self.params.items())),
            self.convention or "",
        )

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "params": dict(sorted(self.params.items())),
            "convention": self.convention,
            "status": self.status,
        }
        if isinstance(self.witness, RatFunc):
            out["witness"] = ratfunc_str(self.witness)
        elif self.witness is not None:
            out["witness"] = frac_str(self.witness)
        if self.details:
            out["details"] = {k: self.details[k] for k in sorted(self.details)}
        return out


def record_from_difference(
    identity: str,
    params: dict,
    difference: Witness,
    convention: str | None = None,
    details: dict | None = None,
) -> VerificationRecord:
    """PASS iff the exact difference is zero; FAIL carries it as the witness."""
    if not difference:
        return VerificationRecord(
            identity, dict(params), convention, PASS, None, dict(details or {})
        )
    return VerificationRecord(
        identity, dict(params), convention, FAIL, difference, dict(details or {})
    )


def limit_record(
    identity: str,
    params: dict,
    limit: object,
    classical: Fraction,
    convention: str | None = None,
) -> VerificationRecord:
    """A q -> 1 limit against its classical value.

    limit is a Fraction, or a pole flag (qcore.PoleReport) whose str() is
    reported; a pole is a FAIL without a witness.
    """
    if isinstance(limit, Fraction):
        details = {"limit": frac_str(limit), "classical": frac_str(classical)}
        difference = limit - classical
        return record_from_difference(identity, params, difference, convention, details)
    details = {"limit": str(limit), "classical": frac_str(classical)}
    return VerificationRecord(identity, dict(params), convention, FAIL, None, details)
