"""Command-line front end: tables, identity grids, and deterministic reports.

Four subcommands share one report shape.  `numbers` prints the classical
number tables, `qtable` the q-binomial and q-power-sum tables (optionally
evaluated at a rational q), `limits` the q -> 1 limit checks, and `verify`
the full identity grid.  Reports are emitted as JSON or CSV, to stdout or
a file, and identical configurations always produce byte-identical output.

Exit codes: 0 when every hard identity in the run passed, 1 when any hard
identity failed, 2 for bad flags (`numbers --nmax` above NUMBERS_MAX_N
included) or a bad QGL_MAX_DEGREE, 3 for an I/O failure while writing the
report, 4 when a polynomial outgrew the QGL_MAX_DEGREE cap during the run.
Report-only identities (the printed closed forms and the classical-limit
comparisons) never affect the exit code.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .classical import (
    alt_power_sum,
    alt_power_sum_via_euler,
    alt_sum_formula_check,
    bernoulli_numbers,
    euler_numbers,
    faulhaber_sum,
    genocchi_numbers,
    order_r_genocchi,
    power_sum,
)
from .engine import (
    CONVENTIONS,
    Convention,
    ExpTerm,
    check_alt_qsum,
    check_closed_form_g,
    check_closed_form_g_shift,
    classical_limit_check,
    fermionic_sum,
    partial_sum,
    shift_terms,
)
from .poly import DegreeLimitError, Poly, max_degree
from .qcore import (
    garrett_hummel_check,
    q_binomial_cells,
    q_limit_checks,
    q_power_sum_cells,
    warnaar_check,
)
from .ratfunc import RatFunc, evaluate_at_q
from .records import (
    PASS,
    VerificationRecord,
    frac_str,
    ratfunc_str,
    record_from_difference,
)

# Which identities gate the exit code.  This split is configuration data:
# promoting a corrected closed form to hard is an edit here, not in the
# runner.  Everything absent from this set is report-only.
HARD_IDENTITIES = frozenset(
    {
        "genocchi_relations",
        "warnaar",
        "garrett_hummel",
        "faulhaber",
        "alt_power_sum",
        "alt_qsum",
        "shift_law",
        "q_power_sum_limit",
        "q_binomial_limit",
    }
)

SHIFT_LAW_TRIALS = 200
SHIFT_LAW_MAX_SHIFT = 6
SHIFT_LAW_SEED = 271828

# Largest `numbers --nmax`.  The tables cost O(N**2) operations on integers
# of O(N log N) bits, so the time grows faster than N**3: N = 1000 takes a
# few seconds and about 35 MB, and larger values are refused with exit 2.
NUMBERS_MAX_N = 1000


class RunConfig(NamedTuple):
    command: str
    n_max: int
    k_max: int
    conventions: tuple[Convention, ...]
    q_eval: Fraction | None
    format: str
    out_path: str | None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "n_max": self.n_max,
            "k_max": self.k_max,
            "conventions": [c.value for c in self.conventions],
            "q_eval": frac_str(self.q_eval) if self.q_eval is not None else None,
            "format": self.format,
            "out": self.out_path,
        }


def _value_record(identity: str, params: dict, details: dict) -> VerificationRecord:
    """Table row carried in the uniform record shape; PASS means computed."""
    return VerificationRecord(identity, params, None, PASS, None, details)


def _numbers_records(cfg: RunConfig) -> list[VerificationRecord]:
    out = []
    tables = [
        ("B", bernoulli_numbers(cfg.n_max)),
        ("E", euler_numbers(cfg.n_max)),
        ("G", genocchi_numbers(cfg.n_max)),
        ("G^(2)", order_r_genocchi(2, cfg.n_max)),
    ]
    for kind, table in tables:
        for i in range(cfg.n_max + 1):
            out.append(_value_record(kind, {"n": i}, {"value": frac_str(table[i])}))
    return out


def _eval_detail(value: RatFunc, q0: Fraction) -> str:
    try:
        return frac_str(evaluate_at_q(value, q0))
    except ValueError:
        return "REQUIRES-SQUARE-Q"


def _qtable_cells(cfg: RunConfig) -> Iterator[tuple[str, dict, RatFunc]]:
    for n, k, value in q_binomial_cells(cfg.n_max):
        yield "q_binomial", {"k": k, "n": n}, RatFunc(value)
    for m, n, value in q_power_sum_cells(cfg.n_max, cfg.k_max):
        yield "q_power_sum", {"m": m, "n": n}, RatFunc(value)


def _qtable_records(cfg: RunConfig) -> list[VerificationRecord]:
    out = []
    for identity, params, value in _qtable_cells(cfg):
        details = {"value": ratfunc_str(value)}
        if cfg.q_eval is not None:
            details["value_at_q"] = _eval_detail(value, cfg.q_eval)
        out.append(_value_record(identity, params, details))
    return out


def _limits_records(cfg: RunConfig) -> list[VerificationRecord]:
    return list(q_limit_checks(cfg.n_max, cfg.k_max))


def _random_exp_terms(rng: random.Random) -> tuple[ExpTerm, ...]:
    terms = []
    for _ in range(rng.randint(1, 4)):
        num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        if num.is_zero:
            num = Poly([1])
        den = Poly.monomial(rng.randint(0, 2)) + rng.randint(1, 3)
        terms.append(ExpTerm(RatFunc(num, den), rng.randint(-6, 6)))
    return tuple(terms)


def shift_law_record(
    trials: int = SHIFT_LAW_TRIALS,
    max_shift: int = SHIFT_LAW_MAX_SHIFT,
    seed: int = SHIFT_LAW_SEED,
) -> VerificationRecord:
    """Randomized check that shifting the summation index by k changes a
    regularized sum by exactly the finite partial sum of the first k terms.

    One aggregated record: PASS only when every seeded trial holds exactly.
    """
    rng = random.Random(seed)
    failures = 0
    witness = None
    for _ in range(trials):
        terms = _random_exp_terms(rng)
        k = rng.randint(0, max_shift)
        lhs = fermionic_sum(shift_terms(terms, k))
        rhs = fermionic_sum(terms) - partial_sum(terms, k)
        if lhs != rhs:
            failures += 1
            if witness is None:
                witness = lhs - rhs
    record = record_from_difference(
        "shift_law",
        {"trials": trials, "max_shift": max_shift},
        witness if failures else 0,
        details={"seed": str(seed), "failures": str(failures)},
    )
    return record


def _verify_records(cfg: RunConfig) -> list[VerificationRecord]:
    out = []
    for n in range(1, cfg.n_max + 1):
        out.append(warnaar_check(n))
        out.append(garrett_hummel_check(n))
    for n in range(1, cfg.n_max + 1):
        for k in range(1, cfg.k_max + 1):
            diff = faulhaber_sum(n, k) - power_sum(n, k - 1)
            out.append(record_from_difference("faulhaber", {"k": k, "n": n}, diff))
    for k in range(1, cfg.n_max + 1):
        for n in range(2, cfg.k_max + 1):
            diff = alt_power_sum_via_euler(k, n) - alt_power_sum(k, n)
            out.append(record_from_difference("alt_power_sum", {"k": k, "n": n}, diff))
            out.append(alt_sum_formula_check(k, n))
            out.append(alt_sum_formula_check(k, n, transposed=True))
    for conv in cfg.conventions:
        for n in range(1, cfg.n_max + 1):
            for k in range(1, cfg.k_max + 1):
                out.append(check_alt_qsum(n, k, conv))
                out.append(check_closed_form_g(n, k, conv))
                out.append(check_closed_form_g_shift(n, k, conv))
                out.extend(classical_limit_check(n, k, conv))
    out.append(shift_law_record())
    return out


_BUILDERS = {
    "numbers": _numbers_records,
    "qtable": _qtable_records,
    "limits": _limits_records,
    "verify": _verify_records,
}


def build_report(cfg: RunConfig) -> dict:
    records = sorted(_BUILDERS[cfg.command](cfg), key=VerificationRecord.sort_key)
    summary: dict[str, dict[str, int]] = {}
    for rec in records:
        bucket = summary.setdefault(rec.identity, {"PASS": 0, "FAIL": 0})
        bucket[rec.status] += 1
    return {
        "version": __version__,
        "config": cfg.to_dict(),
        "records": [rec.to_dict() for rec in records],
        "summary": summary,
    }


def exit_code_for(report: dict) -> int:
    for rec in report["records"]:
        if rec["identity"] in HARD_IDENTITIES and rec["status"] != PASS:
            return 1
    return 0


def _params_compact(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(params.items()))


_CSV_COLUMNS = {
    "numbers": ["identity", "index", "value"],
    "qtable": ["identity", "params", "value", "value_at_q"],
    "limits": ["identity", "params", "limit", "classical", "status"],
    "verify": ["identity", "params", "convention", "status", "witness"],
}


_CSV_CELLS = {
    "identity": lambda rec: rec["identity"],
    "index": lambda rec: rec["params"]["n"],
    "params": lambda rec: _params_compact(rec["params"]),
    "value": lambda rec: rec["details"]["value"],
    "value_at_q": lambda rec: rec["details"]["value_at_q"],
    "limit": lambda rec: rec["details"]["limit"],
    "classical": lambda rec: rec["details"]["classical"],
    "convention": lambda rec: rec["convention"] or "",
    "status": lambda rec: rec["status"],
    "witness": lambda rec: rec.get("witness", ""),
}


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    command = report["config"]["command"]
    columns = _CSV_COLUMNS[command]
    if command == "qtable" and report["config"]["q_eval"] is None:
        columns = columns[:-1]
    import csv  # only --format csv needs it; kept off the start-up path

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in report["records"]:
        writer.writerow([_CSV_CELLS[c](rec) for c in columns])
    return buf.getvalue()


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgenocchi",
        description="Exact q-Genocchi constructions and identity verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("numbers", "classical Bernoulli/Euler/Genocchi tables"),
        ("qtable", "q-binomial and q-power-sum tables"),
        ("verify", "run the full identity grid"),
        ("limits", "q -> 1 limit checks with pole flags"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--nmax", type=int, default=8, help="first grid bound")
        p.add_argument("--kmax", type=int, default=8, help="second grid bound")
        p.add_argument(
            "--q",
            type=_parse_fraction,
            default=None,
            metavar="P/Q",
            help="rational sample point in (0,1) for table evaluation",
        )
        p.add_argument(
            "--convention",
            choices=["q", "q2", "all"],
            default="all",
            help="bracket base inside the exponential argument",
        )
        p.add_argument("--format", choices=["csv", "json"], default="json")
        p.add_argument("--out", default=None, help="report path (default stdout)")
    return parser


def config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    if args.nmax < 1 or args.kmax < 1:
        parser.error("--nmax and --kmax must be >= 1")
    if args.command == "numbers" and args.nmax > NUMBERS_MAX_N:
        parser.error(f"numbers --nmax {args.nmax} exceeds the cap of {NUMBERS_MAX_N}")
    if args.q is not None and not (0 < args.q < 1):
        parser.error("--q must lie strictly between 0 and 1")
    if args.convention == "all":
        conventions = CONVENTIONS
    else:
        conventions = (Convention.parse(args.convention),)
    return RunConfig(
        command=args.command,
        n_max=args.nmax,
        k_max=args.kmax,
        conventions=conventions,
        q_eval=args.q,
        format=args.format,
        out_path=args.out,
    )


def _write_report(text: str, out_path: str | None) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # Point fd 1 at the null device: the interpreter flushes stdout again
        # at exit, and that flush must not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def main(argv: list[str] | None = None) -> int:
    try:
        max_degree()
    except ValueError as exc:
        print(f"qgenocchi: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args, parser)
    try:
        report = build_report(cfg)
    except DegreeLimitError as exc:
        print(f"qgenocchi: {exc}", file=sys.stderr)
        return 4
    try:
        _write_report(render_report(report, cfg.format), cfg.out_path)
    except OSError as exc:
        print(f"qgenocchi: cannot write report: {exc}", file=sys.stderr)
        return 3
    return exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
