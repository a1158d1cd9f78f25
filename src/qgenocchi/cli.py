"""Command-line front end: tables, identity grids, and deterministic reports.

Four subcommands share one report shape.  `numbers` prints the classical
number tables, `qtable` the q-binomial and q-power-sum tables (optionally
evaluated at a rational q), `limits` the q -> 1 limit checks, and `verify`
the full identity grid.  Reports are emitted as JSON or CSV, to stdout or
a file, and identical configurations always produce byte-identical output.

Exit codes: 0 when every hard identity in the run passed, 1 when any hard
identity failed, 2 for a refused command line (an unknown flag, a flag
without a value such as `--flag=--`, a bad value, a grid bound below 1, or
`numbers --nmax` above NUMBERS_MAX_N) or a bad QGL_MAX_DEGREE, 3 for an I/O
failure while writing the report (a closed stdout included), 4 when a
polynomial outgrew the QGL_MAX_DEGREE cap.  Codes 2 to 4 write one stderr
line, `qgenocchi: error: ...` for a refused line; with fd 2 closed they
still hold and nothing goes to stdout.  Report-only identities (the printed
closed forms and the classical-limit comparisons) never affect the exit code.
"""

from __future__ import annotations

import io
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import suppress
from functools import partial
from itertools import chain, product, repeat, starmap
from typing import TYPE_CHECKING, NamedTuple, NoReturn

from . import CONVENTIONS, Convention, __version__

# Each function imports the package modules it calls: a command loads only what it runs.
if TYPE_CHECKING:
    from fractions import Fraction

    from .engine import ExpTerm
    from .records import VerificationRecord

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


def _draw_trial(rng) -> tuple[tuple[ExpTerm, ...], int]:
    """One seeded trial: terms with coefficients num / (x**a + c), and a shift k."""
    from .engine import ExpTerm
    from .poly import Poly
    from .ratfunc import RatFunc

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
    from .engine import ExpTerm, fermionic_sum, partial_sum, shift_terms
    from .ratfunc import R_ONE
    from .records import record_from_difference

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


def _from(module: str):
    """A package module, imported when a family first calls into it
    (`fromlist` makes `__import__` return the module, not the package)."""
    return __import__(f"{__package__}.{module}", fromlist=("_",))


class _Family(NamedTuple):
    identity: str
    hard: bool  # whether a FAIL in it fails the run
    records: Callable[[RunConfig], Iterable[VerificationRecord]]  # lazy; drawn in table order
    plan: Callable[[RunConfig], object] | None = None  # run before any family is drawn


def _each(check: str, grid: Callable[[RunConfig], Iterable[tuple]]) -> Callable:
    """The records of `check`, a "module.name" looked up when the family is
    drawn, at each argument tuple of `grid(cfg)`."""
    module, _, name = check.partition(".")
    return lambda cfg: starmap(getattr(_from(module), name), grid(cfg))


def _numbers(make: str, *args: int) -> Callable:
    """The records of the classical table `make(*args, --nmax)`, one per index."""

    def records(cfg: RunConfig) -> Iterator[VerificationRecord]:
        table = getattr(_from("classical"), make)(*args, cfg.n_max)
        record = _from("records").VerificationRecord
        return (record(table.kind, {"n": i}, details={"value": str(v)}) for i, v in enumerate(table))

    return records


def _binomials(cfg: RunConfig) -> Iterator[tuple]:
    return _from("qcore").q_binomial_cells(cfg.n_max)


def _power_sums(cfg: RunConfig) -> Iterator[tuple]:
    return _from("qcore").q_power_sum_cells(cfg.n_max, cfg.k_max)


def _qtable(identity: str, names: tuple[str, str], walk: Callable[[RunConfig], Iterator]) -> _Family:
    """A qtable family: a record of each cell of the walk, with its value
    and, under --q, its value there.  Its plan is the walk."""

    def records(cfg: RunConfig) -> Iterator[VerificationRecord]:
        from .ratfunc import RatFunc, evaluate_at_q
        from .records import VerificationRecord, ratfunc_str

        def record(*cell) -> VerificationRecord:
            *index, f = cell
            value = RatFunc(f)
            details = {"value": ratfunc_str(value)}
            if cfg.q_eval is not None:
                try:
                    at_q = evaluate_at_q(value, cfg.q_eval)
                except ValueError:  # a half-integer power of q at a non-square q
                    at_q = "REQUIRES-SQUARE-Q"
                details["value_at_q"] = str(at_q)
            return VerificationRecord(identity, dict(zip(names, index)), details=details)

        return starmap(record, walk(cfg))

    return _Family(identity, False, records, walk)


# The argument tuples of the verify checks.  Each family draws its own lazy grid.
def _rows(cfg: RunConfig) -> Iterator[tuple[int]]:
    return zip(range(1, cfg.n_max + 1))


def _pairs(cfg: RunConfig, low: int = 2) -> Iterator[tuple[int, int]]:
    """(a, b) for 1 <= a <= --nmax and low <= b <= --kmax."""
    return product(range(1, cfg.n_max + 1), range(low, cfg.k_max + 1))


def _cells(cfg: RunConfig) -> Iterator[tuple[int, int, Convention]]:
    ns, ks = range(1, cfg.n_max + 1), range(1, cfg.k_max + 1)
    return ((n, k, conv) for conv in cfg.conventions for n in ns for k in ks)


class _Subcommand(NamedTuple):
    help: str
    flags: tuple[str, ...]  # the grid flags its families read, then --format and --out
    families: tuple[_Family, ...]
    csv_columns: tuple[str, ...]
    q_columns: tuple[str, ...] = ()  # CSV columns only a run with --q has


# The subcommands in `--help` order, each with its families in the order
# they are drawn.  limits maps its checks over qtable's two walks.
_SUBCOMMANDS = {
    "numbers": _Subcommand(
        "classical Bernoulli/Euler/Genocchi tables",
        ("--nmax", "--format", "--out"),
        (
            _Family("B", False, _numbers("bernoulli_numbers")),
            _Family("E", False, _numbers("euler_numbers")),
            _Family("G", False, _numbers("genocchi_numbers")),
            _Family("G^(2)", False, _numbers("order_r_genocchi", 2)),
        ),
        ("identity", "index", "value"),
    ),
    "qtable": _Subcommand(
        "q-binomial and q-power-sum tables",
        ("--nmax", "--kmax", "--q", "--format", "--out"),
        (_qtable("q_binomial", ("n", "k"), _binomials), _qtable("q_power_sum", ("m", "n"), _power_sums)),
        ("identity", "params", "value"),
        ("value_at_q",),
    ),
    "verify": _Subcommand(
        "run the full identity grid",
        ("--nmax", "--kmax", "--convention", "--format", "--out"),
        (
            _Family("warnaar", True, _each("qcore.warnaar_check", _rows)),
            _Family("garrett_hummel", True, _each("qcore.garrett_hummel_check", _rows)),
            _Family("faulhaber", True, _each("classical._faulhaber_check", partial(_pairs, low=1))),
            _Family("alt_power_sum", True, _each("classical._alt_power_sum_check", _pairs)),
            _Family("alt_sum_formula", False, _each("classical.alt_sum_formula_check", _pairs)),
            _Family("alt_sum_formula_transposed", False, _each(
                "classical.alt_sum_formula_check", lambda cfg: ((*p, True) for p in _pairs(cfg)))),
            _Family("alt_qsum", True, _each("engine.check_alt_qsum", _cells)),
            _Family("closed_form_g", False, _each("engine.check_closed_form_g", _cells)),
            _Family("closed_form_g_shift", False, _each("engine.check_closed_form_g_shift", _cells)),
            _Family("classical_limit", False, lambda cfg: chain.from_iterable(
                _each("engine.classical_limit_check", _cells)(cfg))),
            _Family("shift_law", True, lambda cfg: starmap(shift_law_record, [()])),  # one record
        ),
        ("identity", "params", "convention", "status", "witness"),
    ),
    "limits": _Subcommand(
        "q -> 1 limit checks with pole flags",
        ("--nmax", "--kmax", "--format", "--out"),
        (
            _Family("q_binomial_limit", True, _each("qcore._binomial_limit", _binomials), _binomials),
            _Family("q_power_sum_limit", True, _each("qcore._power_sum_limit", _power_sums), _power_sums),
        ),
        ("identity", "params", "limit", "classical", "status"),
    ),
}

# The identities that gate the exit code: the table's `hard` column.
HARD_IDENTITIES = frozenset(f.identity for sub in _SUBCOMMANDS.values() for f in sub.families if f.hard)


def build_report(cfg: RunConfig) -> dict:
    """The report of one run: version, config (a dict), records (the sorted
    `VerificationRecord`s) and summary (PASS and FAIL counts per identity).
    Every plan runs before any family is drawn; a cap that trips names the family."""
    from .poly import DegreeLimitError
    from .records import VerificationRecord

    records: list[VerificationRecord] = []
    families = _SUBCOMMANDS[cfg.command].families
    for drawing in (False, True):
        for family in families:
            try:
                if drawing:
                    records.extend(family.records(cfg))
                elif family.plan:
                    family.plan(cfg)
            except DegreeLimitError as exc:
                where = f"in {family.identity} with --nmax {cfg.n_max} --kmax {cfg.k_max}"
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
    from .records import PASS

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
}  # and "witness", which render_report adds


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


def _record_json(rec: VerificationRecord, witness_str: Callable[[object], str]) -> str:
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
    from .records import witness_str  # once per run, not per record

    records = report["records"]
    if fmt == "json":
        # The bytes of `json.dumps(report, sort_keys=True, indent=2)` with
        # each record's `to_dict()`, where an indent runs json's pure-Python
        # encoder: a template per record and `_json` for the rest, with
        # build_report's four keys in sorted order.  `json` loads only for a
        # string that needs escaping; no pinned report has one.
        body = ",\n    ".join(map(_record_json, records, repeat(witness_str)))
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
    cells = {**_CSV_CELLS, "witness": lambda rec: "" if rec.witness is None else witness_str(rec.witness)}
    writer.writerow(columns)
    for rec in records:
        writer.writerow([cells[c](rec) for c in columns])
    return buf.getvalue()


def _q_value(text: str) -> Fraction:
    from fractions import Fraction

    error = "not a rational strictly between 0 and 1"
    try:
        # Fraction would expand an exponent, as in 1e-5000, to a power of ten.
        if len(text) + abs(int(text.lower().partition("e")[2] or 0)) > 100:
            error = "too long once its exponent is expanded"
        elif 0 < (q := Fraction(text)) < 1:
            return q
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{error}: {text!r}")


# Each flag once: the RunConfig field it sets, its reader (a function that
# raises ValueError on a refused value, or a dict of the values it takes),
# and its `--help` metavar and line.
_FLAGS = {
    "--nmax": ("n_max", int, "NMAX", "first grid bound (default 8)"),
    "--kmax": ("k_max", int, "KMAX", "second grid bound (default 8)"),
    "--q": ("q_eval", _q_value, "P/Q", "rational sample point in (0,1) for table evaluation"),
    "--convention": ("conventions", dict(q=(Convention.Q,), q2=(Convention.Q2,), all=CONVENTIONS),
                     "{q,q2,all}", "bracket base in the exponent (default all)"),
    "--format": ("format", dict(csv="csv", json="json"), "{csv,json}", "report format (default json)"),
    "--out": ("out_path", str, "OUT", "report path (default stdout)"),
}


def _help(command: str | None) -> str:
    """The `--help` text of the program, or of one subcommand."""
    if command is None:
        usage = "[--version] {" + ",".join(_SUBCOMMANDS) + "} ..."
        about = "Exact q-Genocchi constructions and identity verification."
        rows = [(name, sub.help) for name, sub in _SUBCOMMANDS.items()]
        rows.append(("--version", "print the version"))
    else:
        usage, about = f"{command} [--FLAG VALUE ...]", _SUBCOMMANDS[command].help
        rows = [(f"{flag} {_FLAGS[flag][2]}", _FLAGS[flag][3]) for flag in _SUBCOMMANDS[command].flags]
    rows.append(("-h, --help", "print this help"))
    return f"usage: qgenocchi {usage}\n\n{about}\n\n" + "".join(f"  {a:25}{b}\n" for a, b in rows)


def _flag(word: str, options: tuple[str, ...]) -> str | None:
    """The option a flag word names by its part before any "=", in full or as
    a unique prefix, or "" for none.  None for a value: a word not led by "-",
    "-" alone, a negative number, or one with a space that names no option."""
    name = word.partition("=")[0]
    found = [name] if name in options else [o for o in options if o.startswith(name)]
    flag = found[0] if len(found) == 1 else ""
    number = word[1:].replace(".", "", 1).isdecimal() and word[-1] != "."  # -3, -3.5, -.5
    if word[:1] != "-" or word == "-" or number or (" " in word and not flag):
        return None
    return flag


def _refuse(message: str) -> NoReturn:
    _complain(f"error: {message}")
    raise SystemExit(2)


def _parse(argv: list[str]) -> RunConfig:
    """The RunConfig of a report line, read as the README's "CLI" section
    says.  `-h`/`--help` and `--version` print their text and raise
    SystemExit(0) where they stand; any other line is refused with one
    stderr line `qgenocchi: error: ...` and SystemExit(2)."""
    cut = argv.index("--") if "--" in argv else len(argv)  # no word after it is read
    # `--=x` names every flag: it is refused before any flag acts, -h included.
    if ambiguous := [word for word in argv[:cut] if word.startswith("--=")]:
        _refuse(f"ambiguous option: {ambiguous[0]}")
    command, fields, extras, options = None, {}, [], ("-h", "--help", "--version")
    words = iter(argv[:cut])
    for word in words:
        flag = _flag(word, options)
        _, eq, text = word.partition("=")
        if flag is None and command is None:
            if word not in _SUBCOMMANDS:
                _refuse(f"invalid command {word!r}: choose from {', '.join(_SUBCOMMANDS)}")
            command, options = word, ("-h", "--help", *_SUBCOMMANDS[word].flags)
        elif not flag:  # a word after the command, or an unknown flag
            extras.append(word)
        elif flag not in _FLAGS:  # -h, --help or --version
            if eq:
                _refuse(f"argument {flag}: takes no value")
            page = __version__ + "\n" if flag == "--version" else _help(command)
            with suppress(AttributeError, OSError):  # to stderr when fd 1 is closed
                (sys.stdout or sys.stderr).write(page)
            raise SystemExit(0)
        else:
            field, read = _FLAGS[flag][:2]
            text = text if eq else next(words, "--")
            if text == "--" or not eq and _flag(text, options) is not None:
                _refuse(f"argument {flag}: expected one argument")
            try:
                fields[field] = read[text] if type(read) is dict else read(text)
            except KeyError:
                _refuse(f"argument {flag}: not one of {', '.join(read)}: {text!r}")
            except ValueError as exc:  # int's own text names int(), not the flag
                why = f"invalid int value: {text!r}" if read is int else exc
                _refuse(f"argument {flag}: {why}")
    if command is None:
        _refuse(f"a command is required: choose from {', '.join(_SUBCOMMANDS)}")
    if extras := extras + argv[cut:]:
        _refuse(f"unrecognized arguments: {' '.join(extras)}")
    cfg = RunConfig(command, **fields)
    if cfg.n_max < 1 or cfg.k_max < 1:
        _refuse("--nmax and --kmax must be >= 1")
    if command == "numbers" and cfg.n_max > NUMBERS_MAX_N:
        _refuse(f"numbers --nmax {cfg.n_max} exceeds the cap of {NUMBERS_MAX_N}")
    return cfg


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


def max_degree() -> int | None:
    """The degree cap the QGL_MAX_DEGREE env var names, or None when it is
    unset or empty, which `poly.set_max_degree` reads as its default, 10000.

    Reads the environment on every call.  Raises ValueError unless the
    variable is unset, empty or a positive integer.
    """
    raw = os.environ.get("QGL_MAX_DEGREE")
    if not raw:
        return None
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"QGL_MAX_DEGREE must be a positive integer, got {raw!r}")
    return int(raw)


def main(argv: list[str] | None = None) -> int:
    try:
        cap = max_degree()
    except ValueError as exc:
        _complain(str(exc))
        return 2
    cfg = _parse(sys.argv[1:] if argv is None else list(argv))
    from .poly import DegreeLimitError, set_max_degree  # past --version, --help and refusals

    set_max_degree(cap)
    _clear_caches()
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
    when `_parse` exits.  Ending the process here skips the interpreter's
    finalization and `atexit` hooks; the package registers none, and the
    `--out` file is closed inside `main`.  If a flush fails, `sys.exit` ends
    the process, so the interpreter reports the failure.  `main`, the
    in-process API, never ends the process and guards a closed fd 2 itself."""
    try:
        code = main(argv)
    except SystemExit as exc:  # _parse: --version, --help, a refused line
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
