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


def _coeff_list(p: Poly) -> str:
    return "[" + ",".join(map(str, (p._nums if p._den == 1 else p.coeffs) or (0,))) + "]"


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
            "params": dict(self.params),
            "convention": self.convention,
            "status": self.status,
        }
        if isinstance(self.witness, RatFunc):
            out["witness"] = ratfunc_str(self.witness)
        elif self.witness is not None:
            out["witness"] = str(self.witness)
        if self.details:
            out["details"] = dict(self.details)
        return out


def record_from_difference(
    identity: str,
    params: dict,
    difference: Witness,
    convention: str | None = None,
    details: dict | None = None,
) -> VerificationRecord:
    """PASS iff the exact difference is zero; FAIL carries it as the witness."""
    status, witness = (FAIL, difference) if difference else (PASS, None)
    return VerificationRecord(
        identity, dict(params), convention, status, witness, dict(details or {})
    )


def record_from_sides(
    identity: str,
    params: dict,
    lhs: Witness,
    rhs: Witness,
    convention: str | None = None,
    details: dict | None = None,
) -> VerificationRecord:
    """PASS iff lhs == rhs, an identity test on canonical values; only a FAIL
    builds the difference lhs - rhs, its witness."""
    status, witness = (PASS, None) if lhs == rhs else (FAIL, lhs - rhs)
    return VerificationRecord(
        identity, dict(params), convention, status, witness, dict(details or {})
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
    details = {"limit": str(limit), "classical": str(classical)}
    if isinstance(limit, Fraction):
        return record_from_difference(identity, params, limit - classical, convention, details)
    return VerificationRecord(identity, dict(params), convention, FAIL, None, details)
