"""Command-line front end: tables, identity grids, and deterministic reports.

Four subcommands share one report shape.  `numbers` prints the classical
number tables, `qtable` the q-binomial and q-power-sum tables (optionally
evaluated at a rational q), `limits` the q -> 1 limit checks, and `verify`
the full identity grid.  Reports are emitted as JSON or CSV, to stdout or
a file, and identical configurations always produce byte-identical output.

Exit codes: 0 when every hard identity in the run passed, 1 when any hard
identity failed, 2 for bad flags (a flag the subcommand does not read, a
`--flag=--` word, a grid bound below 1, or `numbers --nmax` above
NUMBERS_MAX_N) or a bad QGL_MAX_DEGREE, 3 for an I/O failure while writing
the report (a closed stdout included), 4 when a polynomial outgrew the
QGL_MAX_DEGREE cap during the run.  With fd 2 closed the codes still hold
and nothing is written to stdout.  Report-only identities (the printed
closed forms and the classical-limit comparisons) never affect the exit code.
"""

from __future__ import annotations

import io
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import redirect_stderr, suppress
from fractions import Fraction
from functools import partial
from itertools import chain, product, starmap
from typing import TYPE_CHECKING, NamedTuple, NoReturn

if TYPE_CHECKING:  # argparse loads only for --help, refusals and unusual lines
    import argparse

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
from .poly import DegreeLimitError, Poly, max_degree, set_max_degree
from .qcore import (
    _binomial_limit,
    _power_sum_limit,
    garrett_hummel_check,
    q_binomial_cells,
    q_power_sum_cells,
    warnaar_check,
)
from .ratfunc import R_ONE, RatFunc, evaluate_at_q
from .records import (
    PASS,
    VerificationRecord,
    ratfunc_str,
    record_from_difference,
    witness_str,
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
_SHIFT_LAW_BETAS = range(-6, 7)  # the beta2 a trial draws, each a row of the table

# Largest `numbers --nmax`.  Each table costs O(N**2) additions or
# small-integer multiples of integers of O(N log N) bits, so the time grows
# like N**3 log N: N = 1000 takes 0.66-0.72 s and 32.7 MB peak RSS on a
# 2-CPU Xeon host (CPython 3.11), and larger values are refused with exit 2.
NUMBERS_MAX_N = 1000


class RunConfig(NamedTuple):
    # The defaults are the CLI's; `config` prints them for unread flags too.
    command: str
    n_max: int = 8
    k_max: int = 8
    conventions: tuple[Convention, ...] = CONVENTIONS
    q_eval: Fraction | None = None
    format: str = "json"
    out_path: str | None = None

    def to_dict(self) -> dict:
        fields = self._asdict()
        fields["out"] = fields.pop("out_path")
        fields["conventions"] = [c.value for c in self.conventions]
        fields["q_eval"] = str(self.q_eval) if self.q_eval is not None else None
        return fields


def _numbers_records(cfg: RunConfig) -> Iterator[tuple[str, Iterable[VerificationRecord]]]:
    for table in (
        bernoulli_numbers(cfg.n_max),
        euler_numbers(cfg.n_max),
        genocchi_numbers(cfg.n_max),
        order_r_genocchi(2, cfg.n_max),
    ):
        yield table.kind, (
            VerificationRecord(table.kind, {"n": i}, details={"value": str(value)})
            for i, value in enumerate(table)
        )


def _qtable_records(cfg: RunConfig) -> Iterator[tuple[str, Iterable[VerificationRecord]]]:
    def table(identity: str, names: tuple, cells: Iterable) -> Iterator[VerificationRecord]:
        for *index, f in cells:
            value = RatFunc(f)
            details = {"value": ratfunc_str(value)}
            if cfg.q_eval is not None:
                try:
                    at_q = evaluate_at_q(value, cfg.q_eval)
                except ValueError:  # a half-integer power of q at a non-square q
                    at_q = "REQUIRES-SQUARE-Q"
                details["value_at_q"] = str(at_q)
            yield VerificationRecord(identity, dict(zip(names, index)), details=details)

    yield "q_binomial", table("q_binomial", ("n", "k"), q_binomial_cells(cfg.n_max))
    yield "q_power_sum", table("q_power_sum", ("m", "n"), q_power_sum_cells(cfg.n_max, cfg.k_max))


def _draw_trial(rng) -> tuple[tuple[ExpTerm, ...], int]:
    """One seeded trial: terms with coefficients num / (x**a + c), and a shift k."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        a, c = rng.randint(0, 2), rng.randint(1, 3)
        beta2 = rng.randint(_SHIFT_LAW_BETAS[0], _SHIFT_LAW_BETAS[-1])
        terms.append(ExpTerm(RatFunc(Poly(num if any(num) else [1]), Poly.monomial(a) + c), beta2))
    return tuple(terms), rng.randint(0, SHIFT_LAW_MAX_SHIFT)


def shift_law_record() -> VerificationRecord:
    """Randomized check that shifting the summation index by k changes a
    regularized sum by exactly the finite partial sum of the first k terms.

    The three maps act termwise, so every trial holds when the empty list
    and the unit term at every drawable beta2 and k do.  That table is
    checked first, each entry by cross-multiplication; only a nonzero entry
    draws the seeded trials and runs each one through the three maps.
    One aggregated record: PASS only when every seeded trial holds exactly.
    """

    def holds(t: tuple[ExpTerm, ...], k: int) -> bool:
        # lhs - rhs = a - c + e is 0 iff a + e == c, over the three denominators.
        a, c, e = fermionic_sum(shift_terms(t, k)), fermionic_sum(t), partial_sum(t, k)
        return (a.num * e.den + e.num * a.den) * c.den == c.num * a.den * e.den

    shifts = range(SHIFT_LAW_MAX_SHIFT + 1)
    keys = [((), k) for k in shifts]
    keys += [((ExpTerm(R_ONE, b),), k) for k in shifts for b in _SHIFT_LAW_BETAS]
    failing = []
    if not all(starmap(holds, keys)):
        import random  # only a nonzero table entry needs the trials
        rng = random.Random(SHIFT_LAW_SEED)
        diffs = (
            fermionic_sum(shift_terms(t, k)) - fermionic_sum(t) + partial_sum(t, k)
            for t, k in (_draw_trial(rng) for _ in range(SHIFT_LAW_TRIALS))
        )
        failing = [d for d in diffs if d]
    return record_from_difference(
        "shift_law",
        {"trials": SHIFT_LAW_TRIALS, "max_shift": SHIFT_LAW_MAX_SHIFT},
        failing[0] if failing else 0,
        details={"seed": str(SHIFT_LAW_SEED), "failures": str(len(failing))},
    )


def _verify_records(cfg: RunConfig) -> Iterator[tuple[str, Iterable[VerificationRecord]]]:
    ns, ks = range(1, cfg.n_max + 1), range(1, cfg.k_max + 1)
    pairs = partial(product, ns, ks[1:])  # each family draws its own lazy grid of (k, n)

    def cells() -> Iterator[tuple[int, int, Convention]]:
        return ((n, k, conv) for conv in cfg.conventions for n in ns for k in ks)

    yield "warnaar", map(warnaar_check, ns)
    yield "garrett_hummel", map(garrett_hummel_check, ns)
    yield "faulhaber", (
        record_from_difference(
            "faulhaber", {"k": k, "n": n}, faulhaber_sum(n, k) - power_sum(n, k - 1)
        )
        for n in ns for k in ks
    )
    yield "alt_power_sum", (
        record_from_difference(
            "alt_power_sum", {"k": k, "n": n}, alt_power_sum_via_euler(k, n) - alt_power_sum(k, n)
        )
        for k, n in pairs()
    )
    yield "alt_sum_formula", starmap(alt_sum_formula_check, pairs())
    yield "alt_sum_formula_transposed", (alt_sum_formula_check(k, n, True) for k, n in pairs())
    yield "alt_qsum", starmap(check_alt_qsum, cells())
    yield "closed_form_g", starmap(check_closed_form_g, cells())
    yield "closed_form_g_shift", starmap(check_closed_form_g_shift, cells())
    yield "classical_limit", chain.from_iterable(starmap(classical_limit_check, cells()))
    yield "shift_law", (shift_law_record() for _ in range(1))  # one record


class _Subcommand(NamedTuple):
    help: str
    flags: tuple[str, ...]  # the grid flags its builder reads
    families: Callable[[RunConfig], Iterable[tuple[str, Iterable[VerificationRecord]]]]
    csv_columns: tuple[str, ...]
    q_columns: tuple[str, ...] = ()  # CSV columns only a run with --q has


# The subcommands in `--help` order.  A builder yields lazy (identity,
# records) families, each drawn before the next is made, and looks up what
# it calls in this module at call time, so a wrapper set on a global here
# (perfbench's tracer) sees it.  limits maps its checks over qtable's walks.
_SUBCOMMANDS = {
    "numbers": _Subcommand(
        "classical Bernoulli/Euler/Genocchi tables",
        ("--nmax",),
        _numbers_records,
        ("identity", "index", "value"),
    ),
    "qtable": _Subcommand(
        "q-binomial and q-power-sum tables",
        ("--nmax", "--kmax", "--q"),
        _qtable_records,
        ("identity", "params", "value"),
        ("value_at_q",),
    ),
    "verify": _Subcommand(
        "run the full identity grid",
        ("--nmax", "--kmax", "--convention"),
        _verify_records,
        ("identity", "params", "convention", "status", "witness"),
    ),
    "limits": _Subcommand(
        "q -> 1 limit checks with pole flags",
        ("--nmax", "--kmax"),
        # Binomials first, as in qtable: an over-cap --nmax trips in their rows.
        lambda cfg: (
            ("q_binomial_limit", starmap(_binomial_limit, q_binomial_cells(cfg.n_max))),
            ("q_power_sum_limit", starmap(_power_sum_limit, q_power_sum_cells(cfg.n_max, cfg.k_max))),
        ),
        ("identity", "params", "limit", "classical", "status"),
    ),
}


def build_report(cfg: RunConfig) -> dict:
    """The report of one run: version, config (a dict), records (the sorted
    `VerificationRecord`s) and summary (PASS and FAIL counts per identity)."""
    records: list[VerificationRecord] = []
    for identity, family in _SUBCOMMANDS[cfg.command].families(cfg):
        try:
            records.extend(family)
        except DegreeLimitError as exc:
            where = f"in {identity} with --nmax {cfg.n_max} --kmax {cfg.k_max}"
            raise DegreeLimitError(f"{exc} {where}") from exc
    records.sort(key=VerificationRecord.sort_key)
    summary: dict[str, dict[str, int]] = {}
    for rec in records:
        bucket = summary.setdefault(rec.identity, {"PASS": 0, "FAIL": 0})
        bucket[rec.status] += 1
    return {
        "version": __version__,
        "config": cfg.to_dict(),
        "records": records,
        "summary": summary,
    }


def exit_code_for(report: dict) -> int:
    for rec in report["records"]:
        if rec.identity in HARD_IDENTITIES and rec.status != PASS:
            return 1
    return 0


def _params_compact(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(params.items()))


_CSV_CELLS = {
    "identity": lambda rec: rec.identity,
    "index": lambda rec: rec.params["n"],
    "params": lambda rec: _params_compact(rec.params),
    "value": lambda rec: rec.details["value"],
    "value_at_q": lambda rec: rec.details["value_at_q"],
    "limit": lambda rec: rec.details["limit"],
    "classical": lambda rec: rec.details["classical"],
    "convention": lambda rec: rec.convention or "",
    "status": lambda rec: rec.status,
    "witness": lambda rec: "" if rec.witness is None else witness_str(rec.witness),
}


def _json_str(s: str) -> str:
    """`json.dumps(s)`.  Printable ASCII other than a quote or a backslash is
    exactly what its `ensure_ascii` leaves alone; only other text loads `json`."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json

    return json.dumps(s)


def _json_leaf(value) -> str:
    """The text of a str, an int or None; any other value raises TypeError."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"not a report value: {value!r}")


def _json_key(key) -> str:
    if type(key) is not str:
        raise TypeError(f"report key is not a str: {key!r}")
    return _json_str(key)


def _json(value, pad: str = "") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` with each line after the
    first indented by `pad`, for a tree of dicts with str keys, lists, str,
    int and None; any other value raises TypeError."""
    kind = type(value)
    if kind is not dict and kind is not list:
        return _json_leaf(value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list:
        return f"[\n{inner}{sep.join(_json(item, inner) for item in value)}\n{pad}]"
    body = sep.join(f"{_json_key(key)}: {_json(item, inner)}" for key, item in sorted(value.items()))
    return f"{{\n{inner}{body}\n{pad}}}"


def _json_fields(items: Mapping) -> str:
    """A record's params or details, as `_json` writes them at depth 3."""
    if not items:
        return "{}"
    text = "{"
    for key, value in sorted(items.items()) if len(items) > 1 else items.items():
        text += f"\n        {_json_key(key)}: {_json_leaf(value)},"
    return text[:-1] + "\n      }"


def _record_json(rec: VerificationRecord) -> str:
    """`rec.to_dict()` as `_json` writes it in a report's records list
    (depth 2): the keys in sorted order, `details` only when non-empty and
    `witness` only when present."""
    details = f',\n      "details": {_json_fields(rec.details)}' if rec.details else ""
    witness = (
        "" if rec.witness is None else f',\n      "witness": {_json_str(witness_str(rec.witness))}'
    )
    return (
        f'{{\n      "convention": {_json_leaf(rec.convention)}{details}'
        f',\n      "identity": {_json_leaf(rec.identity)}'
        f',\n      "params": {_json_fields(rec.params)}'
        f',\n      "status": {_json_leaf(rec.status)}{witness}\n    }}'
    )


def render_report(report: dict, fmt: str) -> str:
    records = report["records"]
    if fmt == "json":
        # The bytes of `json.dumps(report, sort_keys=True, indent=2)` with
        # each record's `to_dict()`, where an indent runs json's pure-Python
        # encoder: a template per record and `_json` for the rest, with
        # build_report's four keys in sorted order.  `json` loads only for a
        # string that needs escaping; no pinned report has one.
        body = ",\n    ".join(map(_record_json, records))
        text = f"[\n    {body}\n  ]" if records else "[]"
        return (
            f'{{\n  "config": {_json(report["config"], "  ")},\n  "records": {text}'
            f',\n  "summary": {_json(report["summary"], "  ")}'
            f',\n  "version": {_json_str(report["version"])}\n}}\n'
        )
    subcommand = _SUBCOMMANDS[report["config"]["command"]]
    columns = subcommand.csv_columns
    if report["config"]["q_eval"] is not None:
        columns += subcommand.q_columns
    import csv  # only --format csv needs it; kept off the start-up path

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_CSV_CELLS[c](rec) for c in columns])
    return buf.getvalue()


def _q_value(text: str) -> Fraction:
    error = "not a rational strictly between 0 and 1"
    try:
        # Fraction would expand an exponent, as in 1e-5000, to a power of ten.
        if len(text) + abs(int(text.lower().partition("e")[2] or 0)) > 100:
            error = "too long once its exponent is expanded"
        elif 0 < (q := Fraction(text)) < 1:
            return q
    except (ValueError, ZeroDivisionError):
        pass
    import argparse  # only a refused value needs it
    raise argparse.ArgumentTypeError(f"{error}: {text!r}")


def _conventions(text: str) -> tuple[Convention, ...]:
    try:
        return CONVENTIONS if text == "all" else (Convention.parse(text),)
    except ValueError as exc:
        import argparse  # only a refused value needs it
        raise argparse.ArgumentTypeError(f"not one of q, q2, all: {text!r}") from exc


# Each flag once, as its `add_argument` keywords; dest is the RunConfig field.
# A subcommand takes the grid flags its entry above lists, then the
# _REPORT_FLAGS; a field no flag of the subcommand sets keeps its default.
_FLAGS = {
    "--nmax": dict(dest="n_max", type=int, metavar="NMAX", help="first grid bound"),
    "--kmax": dict(dest="k_max", type=int, metavar="KMAX", help="second grid bound"),
    "--q": dict(dest="q_eval", type=_q_value, metavar="P/Q",
                help="rational sample point in (0,1) for table evaluation"),
    "--convention": dict(dest="conventions", type=_conventions, metavar="{q,q2,all}",
                         help="bracket base in the exponent"),
    "--format": dict(dest="format", choices=("csv", "json")),
    "--out": dict(dest="out_path", metavar="OUT", help="report path (default stdout)"),
}
_REPORT_FLAGS = ("--format", "--out")


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="qgenocchi",
        description="Exact q-Genocchi constructions and identity verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, subcommand in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=subcommand.help)
        p.set_defaults(**RunConfig._field_defaults)
        for option in (*subcommand.flags, *_REPORT_FLAGS):
            p.add_argument(option, **_FLAGS[option])
    return parser


def _refusal(cfg: RunConfig) -> str | None:
    """The range checks' message for a config they refuse, else None."""
    if cfg.n_max < 1 or cfg.k_max < 1:
        return "--nmax and --kmax must be >= 1"
    if cfg.command == "numbers" and cfg.n_max > NUMBERS_MAX_N:
        return f"numbers --nmax {cfg.n_max} exceeds the cap of {NUMBERS_MAX_N}"
    return None


def config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    for flag, spec in _FLAGS.items():
        # `--flag=--` arrives as [] where argparse strips the `--` (CPython
        # 3.11) and as "--" where it keeps it; no other line gives either.
        if getattr(args, spec["dest"]) in ([], "--"):
            parser.error(f"argument {flag}: expected one argument")
    cfg = RunConfig(**vars(args))
    if refusal := _refusal(cfg):
        parser.error(refusal)
    return cfg


def _fast_config(argv: list[str]) -> RunConfig | None:
    """The RunConfig argparse gives for `SUBCOMMAND (--flag VALUE)*`, read
    without argparse, or None.  A line is read here only when each flag is
    one the subcommand takes, in full and once, each value is non-empty, does
    not start with "-" and passes the flag's type and choices, and the config
    passes the range checks.  argparse reads every other line, and it alone
    prints usage and errors."""
    command, pairs = argv[0] if argv else "", dict(zip(argv[1::2], argv[2::2]))
    if command not in _SUBCOMMANDS or 2 * len(pairs) != len(argv) - 1:
        return None  # not a subcommand, a lone word, or a repeated flag
    fields = {}
    for flag, text in pairs.items():
        if flag not in (*_SUBCOMMANDS[command].flags, *_REPORT_FLAGS) or text[:1] in ("", "-"):
            return None
        spec = _FLAGS[flag]
        try:
            fields[spec["dest"]] = value = spec.get("type", str)(text)
        except Exception:  # argparse runs the type again and reports the failure
            return None
        if value not in spec.get("choices", (value,)):
            return None
    cfg = RunConfig(command, **fields)
    return None if _refusal(cfg) else cfg


def _write_report(text: str, out_path: str | None) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    if sys.stdout is None:  # fd 1 was closed at start-up
        raise OSError("stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # Point fd 1 at the null device: `run` flushes stdout again before
        # the process ends, and that flush must not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _clear_caches() -> None:
    """Empty every `lru_cache` of the package, so that no value built under
    an earlier run's degree cap is handed to this run."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{__package__}."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _complain(message: str) -> None:
    with suppress(AttributeError, OSError):  # fd 2 closed or dead: exit code alone
        sys.stderr.write(f"qgenocchi: {message}\n")


def main(argv: list[str] | None = None) -> int:
    try:
        set_max_degree(max_degree())
    except ValueError as exc:
        _complain(str(exc))
        return 2
    _clear_caches()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:  # argparse's version action, without argparse
        with suppress(AttributeError, OSError):  # as argparse's _print_message
            (sys.stdout or sys.stderr).write(__version__ + "\n")
        raise SystemExit(0)
    cfg = _fast_config(argv)
    if cfg is None:  # --help, a refusal or another shape
        # With sys.stderr None (fd 2 closed), argparse prints usage to stdout.
        with redirect_stderr(sys.stderr or io.StringIO()):
            parser = build_parser()
            cfg = config_from_args(parser.parse_args(argv), parser)
    # The flags were parsed under Python's int-to-str digit limit; exact
    # values of any length are printed.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        report = build_report(cfg)
    except DegreeLimitError as exc:
        _complain(str(exc))
        return 4
    try:
        _write_report(render_report(report, cfg.format), cfg.out_path)
    except OSError as exc:
        _complain(f"cannot write report: {exc}")
        return 3
    return exit_code_for(report)


def run(argv: list[str] | None = None) -> NoReturn:
    """Process entry of `python -m qgenocchi` and the console script: `main`,
    then a flush of stdout and stderr and `os._exit` with main's code, also
    when argparse exits.  Ending the process here skips the interpreter's
    finalization and `atexit` hooks; the package registers none, and the
    `--out` file is closed inside `main`.  If a flush fails, `sys.exit` ends
    the process, so the interpreter reports the failure.  `main`, the
    in-process API, never ends the process and guards a closed fd 2 itself."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --version, --help, bad flags
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start-up
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
