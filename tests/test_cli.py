import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import chain
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgenocchi
from qgenocchi import CONVENTIONS, DegreeLimitError, RatFunc, VerificationRecord, cli, poly
from qgenocchi import classical, engine, qcore
from qgenocchi.cli import (
    HARD_IDENTITIES,
    NUMBERS_MAX_N,
    SHIFT_LAW_MAX_SHIFT,
    SHIFT_LAW_TRIALS,
    build_parser,
    config_from_args,
    exit_code_for,
    main,
    shift_law_record,
)
from qgenocchi.qcore import q_power_sum
from qgenocchi.ratfunc import R_ZERO, evaluate_at_q
from qgenocchi.records import ratfunc_str, witness_str

from report_digests import REPORT_DIGESTS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_numbers_csv_contains_anchor_rows(capsys):
    code, out, _ = run_cli(capsys, ["numbers", "--nmax", "6", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,index,value"
    assert "G,1,1" in lines
    assert "G,5,0" in lines
    assert "B,2,1/6" in lines
    assert "E,3,1/4" in lines


def test_numbers_json_bernoulli_anchor(capsys):
    code, out, _ = run_cli(capsys, ["numbers", "--nmax", "12"])
    assert code == 0
    report = json.loads(out)
    rows = {
        (r["identity"], r["params"]["n"]): r["details"]["value"]
        for r in report["records"]
    }
    assert rows[("B", 12)] == "-691/2730"
    assert rows[("G", 1)] == "1"
    assert rows[("G^(2)", 0)] == "1/2"


def test_qtable_evaluation_at_quarter(capsys):
    code, out, _ = run_cli(capsys, ["qtable", "--nmax", "4", "--kmax", "2", "--q", "1/4"])
    assert code == 0
    report = json.loads(out)
    by_key = {
        (r["identity"], tuple(sorted(r["params"].items()))): r["details"]
        for r in report["records"]
    }
    cell = by_key[("q_binomial", (("k", 2), ("n", 4)))]
    assert cell["value_at_q"] == "357/256"


def test_qtable_non_square_q_flags_half_powers(capsys):
    code, out, _ = run_cli(capsys, ["qtable", "--nmax", "4", "--kmax", "3", "--q", "1/3"])
    assert code == 0
    report = json.loads(out)
    binom = [r for r in report["records"] if r["identity"] == "q_binomial"]
    psum = [r for r in report["records"] if r["identity"] == "q_power_sum"]
    # binomial cells only involve integer q-powers: always evaluable
    assert all(r["details"]["value_at_q"] != "REQUIRES-SQUARE-Q" for r in binom)
    # power sums mix half-integer q-powers for even m
    assert any(r["details"]["value_at_q"] == "REQUIRES-SQUARE-Q" for r in psum)


@contextmanager
def cli_state_restored():
    """Undo what main leaves set for the rest of the process: the degree cap
    it read and the int-to-str digit limit it lifted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        yield
    finally:
        poly.set_max_degree(None)
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_qtable_prints_values_past_the_int_str_limit(capsys):
    def flagged_cells(q):
        code, out, err = run_cli(capsys, ["qtable", "--nmax", "8", "--kmax", "8", "--q", q])
        assert code == 0 and "Traceback" not in err
        records = json.loads(out)["records"]
        values = {(r["identity"], tuple(r["params"].values())): r["details"] for r in records}
        flagged = {key for key, d in values.items() if d["value_at_q"] == "REQUIRES-SQUARE-Q"}
        return values, flagged

    long_q = "1/" + "7" * 95
    with cli_state_restored():
        values, flagged = flagged_cells(long_q)
        assert len(flagged) == 28
        assert flagged == flagged_cells("1/3")[1]
        # Past Python's 4,300-digit limit on int-to-str, printed exactly;
        # Fraction parses them back under the limit main lifted.
        for m, n in [(7, 7), (7, 8)]:
            text = values[("q_power_sum", (m, n))]["value_at_q"]
            assert len(text) > 4300
            assert Fraction(text) == evaluate_at_q(q_power_sum(m, n), Fraction(long_q))


def test_qtable_csv_drops_eval_column_without_q(capsys):
    code, out, _ = run_cli(capsys, ["qtable", "--nmax", "2", "--kmax", "1", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "identity,params,value"
    code, out, _ = run_cli(
        capsys, ["qtable", "--nmax", "2", "--kmax", "1", "--format", "csv", "--q", "1/4"]
    )
    assert code == 0
    assert out.splitlines()[0] == "identity,params,value,value_at_q"


def test_limits_csv_all_pass(capsys):
    code, out, _ = run_cli(capsys, ["limits", "--nmax", "3", "--kmax", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,params,limit,classical,status"
    assert len(lines) > 1
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_verify_small_grid_roundtrip_and_order(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--nmax", "2", "--kmax", "2"])
    assert code == 0
    report = json.loads(out)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == out
    keys = [
        (r["identity"], tuple(sorted(r["params"].items())), r["convention"] or "")
        for r in report["records"]
    ]
    assert keys == sorted(keys)
    assert report["version"] == "0.1.0"
    assert report["config"]["command"] == "verify"


def test_verify_summary_counts_records(capsys):
    _, out, _ = run_cli(capsys, ["verify", "--nmax", "3", "--kmax", "3"])
    report = json.loads(out)
    total = sum(v["PASS"] + v["FAIL"] for v in report["summary"].values())
    assert total == len(report["records"])
    assert report["summary"]["alt_qsum"] == {"PASS": 18, "FAIL": 0}
    assert report["summary"]["shift_law"] == {"PASS": 1, "FAIL": 0}
    # the printed closed forms are reported, not gated
    assert report["summary"]["classical_limit_g"]["FAIL"] > 0


def test_verify_convention_filter(capsys):
    full = json.loads(run_cli(capsys, ["verify", "--nmax", "2", "--kmax", "2"])[1])["records"]
    for chosen, other in (("q", "q2"), ("q2", "q")):
        argv = ["verify", "--nmax", "2", "--kmax", "2", "--convention", chosen]
        _, out, _ = run_cli(capsys, argv)
        report = json.loads(out)
        conventions = {r["convention"] for r in report["records"]}
        assert other not in conventions
        assert chosen in conventions
        assert report["config"]["conventions"] == [chosen]
        # A single-convention run is the full run without the other convention.
        assert report["records"] == [r for r in full if r["convention"] in (None, chosen)]


def test_verify_hard_failures_gate_exit_code():
    fail_hard = {"records": [VerificationRecord("alt_qsum", {}, status="FAIL")]}
    fail_soft = {"records": [VerificationRecord("closed_form_g", {}, status="FAIL")]}
    all_pass = {"records": [VerificationRecord("alt_qsum", {}, status="PASS")]}
    assert exit_code_for(fail_hard) == 1
    assert exit_code_for(fail_soft) == 0
    assert exit_code_for(all_pass) == 0
    assert "closed_form_g" not in HARD_IDENTITIES
    assert "alt_qsum" in HARD_IDENTITIES


def test_shift_law_record_shape():
    rec = shift_law_record()
    assert rec.passed
    assert rec.params == {"trials": SHIFT_LAW_TRIALS, "max_shift": SHIFT_LAW_MAX_SHIFT}
    assert rec.details["failures"] == "0"
    assert rec.details["seed"] == "271828"


def test_shift_law_failure_keeps_first_witness(monkeypatch):
    # Off by one on the finite partial sum: every trial fails and the first
    # trial's difference lhs - rhs is exactly the constant 1.
    partial_sum = engine.partial_sum
    monkeypatch.setattr(engine, "partial_sum", lambda terms, k: partial_sum(terms, k) + 1)
    rec = shift_law_record()
    assert rec.status == "FAIL"
    assert rec.details["failures"] == str(SHIFT_LAW_TRIALS) == "200"
    assert rec.witness == RatFunc(1)


def _shift_law_by_trials():
    """failures and first witness of the 200 seeded trials, each built from
    cli's own draws (the same RNG stream) and run through the three maps as
    engine names them, where a spy patches them."""
    rng = random.Random(cli.SHIFT_LAW_SEED)
    failures, witness = 0, None
    for _ in range(SHIFT_LAW_TRIALS):
        terms, k = cli._draw_trial(rng)
        lhs = engine.fermionic_sum(engine.shift_terms(terms, k))
        rhs = engine.fermionic_sum(terms) - engine.partial_sum(terms, k)
        if lhs != rhs:
            failures += 1
            witness = witness or lhs - rhs
    return failures, witness


def test_shift_law_linear_fault_matches_trial_replay(monkeypatch):
    # One summand too many: the maps stay linear, so the defect table must
    # report exactly what running every trial through them reports.
    partial_sum = engine.partial_sum
    monkeypatch.setattr(engine, "partial_sum", lambda terms, k: partial_sum(terms, k + 1))
    failures, witness = _shift_law_by_trials()
    # The seeded stream, pinned apart from _draw_trial.
    assert (failures, ratfunc_str(witness)) == (200, "num=[1/2,0,0,0,0,0,-2];den=[0,0,0,0,1]")
    rec = shift_law_record()
    assert rec.status == "FAIL"
    assert rec.details["failures"] == str(failures)
    assert rec.witness == witness


def test_passing_shift_law_draws_no_trial(monkeypatch):
    def refuse(rng):
        raise AssertionError("a trial was drawn on a passing table")

    monkeypatch.setattr(cli, "_draw_trial", refuse)
    rec = shift_law_record()
    assert rec.passed and rec.details["failures"] == "0"


@pytest.mark.parametrize(
    "seed, trials", [(cli.SHIFT_LAW_SEED, SHIFT_LAW_TRIALS), (1, 2000), (2, 2000)]
)
def test_shift_law_table_covers_every_trial(seed, trials):
    # A passing table stands for the trials only if each drawn beta2 is a
    # row of the table and each drawn k one of its shifts.
    rng = random.Random(seed)
    for _ in range(trials):
        terms, k = cli._draw_trial(rng)
        assert k in range(SHIFT_LAW_MAX_SHIFT + 1)
        assert all(t.beta2 in cli._SHIFT_LAW_BETAS for t in terms)


@pytest.mark.parametrize(
    "cell",
    [
        (3, 5, 1, 7, "num=[3,2];den=[2,0,1]"),
        (-6, 0, 1, 4, "num=[-1/4,1/4];den=[3,1]"),
        (6, 6, 1, 3, "num=[0,0,-3];den=[2,0,1]"),
        (3, 5, 2, 7, "num=[9,12,4];den=[4,0,4,0,1]"),
    ],
)
def test_shift_law_one_faulty_cell_falls_back_to_trial_replay(monkeypatch, cell):
    # Off by the sum of coeff**power over the terms at one (beta2, k) cell
    # only: power 1 extends a unit-term fault linearly to every list, power 2
    # is not linear.  One nonzero table entry must replay the trials, and
    # only the trials themselves give the failures and the first witness,
    # pinned as the seeded stream gives them.
    partial_sum = engine.partial_sum
    beta2, shift, power, *pinned = cell

    def faulty(terms, k):
        extra = sum((t.coeff**power for t in terms if t.beta2 == beta2), R_ZERO)
        return partial_sum(terms, k) + (extra if k == shift else 0)

    monkeypatch.setattr(engine, "partial_sum", faulty)
    failures, witness = _shift_law_by_trials()
    assert 0 < failures < SHIFT_LAW_TRIALS
    assert [failures, ratfunc_str(witness)] == pinned
    rec = shift_law_record()
    assert rec.status == "FAIL"
    assert rec.details["failures"] == str(failures)
    assert rec.witness == witness


def test_shift_law_runs_maps_once_per_table_key(monkeypatch):
    # Keys: the empty list at each k, the unit term at each (beta2, k).
    calls = []
    fermionic_sum = engine.fermionic_sum
    monkeypatch.setattr(engine, "fermionic_sum", lambda terms: calls.append(1) or fermionic_sum(terms))
    assert shift_law_record().passed
    keys = (SHIFT_LAW_MAX_SHIFT + 1) * (1 + 13)
    assert len(calls) == 2 * keys == 2 * (7 + 13 * 7)


def test_bad_flags_exit_two():
    for argv in (
        ["verify", "--nmax", "0"],
        ["verify", "--kmax", "-3"],
        ["qtable", "--q", "3/2"],
        ["qtable", "--q", "not-a-number"],
        ["no-such-command"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("q", ["1e-5000", "1e-100000", "1e-1000000"])
def test_huge_q_exponent_exits_two_at_once(capsys, q):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["qtable", "--nmax", "1", "--kmax", "1", "--q", q])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"qgenocchi qtable: error: argument --q: too long once its exponent is expanded: '{q}'"
    )


def test_verify_families_hold_no_grid_list():
    # At 300 x 300 the grid lists would hold 270,000 tuples, about 19 MB.
    cfg = cli.RunConfig("verify", n_max=300, k_max=300)
    dict(cli._verify_records(cfg))  # the builder's imports load outside the trace
    tracemalloc.start()
    try:
        families = dict(cli._verify_records(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert next(iter(families["alt_power_sum"])).params == {"k": 1, "n": 2}
    assert next(iter(families["alt_sum_formula"])) == classical.alt_sum_formula_check(1, 2)


def test_unwritable_out_path_exits_three(capsys):
    code, out, err = run_cli(
        capsys, ["numbers", "--nmax", "2", "--out", "/no-such-dir/report.json"]
    )
    assert code == 3
    assert out == ""
    assert "cannot write" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("nmax", ["2", "200"])
def test_failed_stdout_write_exits_three(nmax):
    # With stdout buffered (PYTHONUNBUFFERED unset), a small report fails
    # only on the flush and a large one already on write.
    src = str(Path(qgenocchi.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "qgenocchi", "numbers", "--nmax", nmax],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**env, "PYTHONPATH": src},
        )
    assert done.returncode == 3
    assert done.stderr.startswith("qgenocchi: cannot write report: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_degree_cap_exits_two(run_module, value):
    for argv in (["numbers", "--nmax", "2"], ["--version"]):
        done = run_module(argv, QGL_MAX_DEGREE=value)
        assert done.returncode == 2, argv
        assert done.stdout == ""
        assert done.stderr == (
            f"qgenocchi: QGL_MAX_DEGREE must be a positive integer, got '{value}'\n"
        )


@pytest.mark.parametrize(
    "argv, family",
    [
        ("limits --nmax 7 --kmax 10", "q_power_sum_limit"),
        ("limits --nmax 9 --kmax 1", "q_binomial_limit"),
        ("qtable --nmax 2 --kmax 9", "q_power_sum"),
        ("qtable --nmax 9 --kmax 1", "q_binomial"),
        # Both walks pass the cap here; the binomials' check runs first.
        ("limits --nmax 9 --kmax 9", "q_binomial_limit"),
        ("qtable --nmax 9 --kmax 9", "q_binomial"),
        ("verify --nmax 4 --kmax 4", "alt_qsum"),
        ("verify --nmax 9 --kmax 1", "warnaar"),
    ],
)
def test_degree_cap_error_names_the_family(run_module, argv, family):
    done = run_module(argv.split(), QGL_MAX_DEGREE="30")
    assert done.returncode == 4
    assert done.stdout == ""
    nmax, kmax = argv.split()[2::2]
    assert re.fullmatch(
        rf"qgenocchi: degree \d+ exceeds QGL_MAX_DEGREE=30 in {family} "
        rf"with --nmax {nmax} --kmax {kmax}\n",
        done.stderr,
    )


def test_each_run_enforces_the_cap_it_read(monkeypatch, capsys):
    # Each run starts from empty caches, so a warm process meets the cap too.
    argv = ["verify", "--nmax", "4", "--kmax", "4"]
    with cli_state_restored():
        monkeypatch.setenv("QGL_MAX_DEGREE", "30")
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (4, "")
        assert err.startswith("qgenocchi: degree 32 exceeds QGL_MAX_DEGREE=30 ")
        monkeypatch.setenv("QGL_MAX_DEGREE", "10000")
        assert run_cli(capsys, argv)[0] == 0


def test_over_cap_limits_trips_before_the_power_sums(monkeypatch, capsys):
    # The q-Pascal rows reach the cap within a few rows, so a long --nmax
    # ends there without one q-power-sum record.  The spy sits where the
    # limits builder looks the check up: at the default cap it sees each cell.
    built = []
    check = qcore._power_sum_limit
    monkeypatch.setattr(qcore, "_power_sum_limit", lambda *args: built.append(args) or check(*args))
    monkeypatch.delenv("QGL_MAX_DEGREE", raising=False)
    with cli_state_restored():
        assert run_cli(capsys, ["limits", "--nmax", "3", "--kmax", "3"])[0] == 0
        assert len(built) == 9
        built.clear()
        monkeypatch.setenv("QGL_MAX_DEGREE", "100")
        code, out, err = run_cli(capsys, ["limits", "--nmax", "1000", "--kmax", "1"])
    assert (code, out, built) == (4, "", [])
    assert re.fullmatch(
        r"qgenocchi: degree \d+ exceeds QGL_MAX_DEGREE=100 in q_binomial_limit "
        r"with --nmax 1000 --kmax 1\n",
        err,
    )


@pytest.mark.parametrize("command, family", [("limits", "q_power_sum_limit"), ("qtable", "q_power_sum")])
def test_over_cap_power_sums_build_no_binomial_cell(monkeypatch, capsys, command, family):
    # Both walks' degree checks run before either walk is drawn, so a grid
    # whose power sums alone pass the cap ends before the first binomial
    # cell.  The spy counts the cells drawn from the binomial walk: at the
    # default cap it sees all 15 of rows 0..4.
    drawn = []
    walk = qcore.q_binomial_cells
    monkeypatch.setattr(qcore, "q_binomial_cells", lambda n: (drawn.append(c) or c for c in walk(n)))
    monkeypatch.delenv("QGL_MAX_DEGREE", raising=False)
    argv = [command, "--nmax", "4", "--kmax", "10"]
    with cli_state_restored():
        assert run_cli(capsys, argv)[0] == 0
        assert len(drawn) == 15
        drawn.clear()
        monkeypatch.setenv("QGL_MAX_DEGREE", "50")
        code, out, err = run_cli(capsys, argv)
    assert (code, out, drawn) == (4, "", [])
    assert err == f"qgenocchi: degree 54 exceeds QGL_MAX_DEGREE=50 in {family} with --nmax 4 --kmax 10\n"


def test_runner_names_the_family_that_trips_the_cap(monkeypatch):
    # The second family raises after one record: build_report re-raises
    # with that family's name and the grid flags, whatever the builder is.
    drawn = []

    def second():
        drawn.append("second")
        yield VerificationRecord("second", {"n": 1})
        raise DegreeLimitError("degree 31 exceeds QGL_MAX_DEGREE=30")

    def families(cfg):
        yield "first", iter([VerificationRecord("first", {"n": 1})])
        yield "second", second()
        drawn.append("third")
        yield "third", iter([])

    stub = cli._SUBCOMMANDS["verify"]._replace(families=families)
    monkeypatch.setitem(cli._SUBCOMMANDS, "verify", stub)
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(["verify", "--nmax", "3", "--kmax", "2"]), parser)
    with pytest.raises(DegreeLimitError) as info:
        cli.build_report(cfg)
    assert str(info.value) == "degree 31 exceeds QGL_MAX_DEGREE=30 in second with --nmax 3 --kmax 2"
    assert drawn == ["second"]


def test_numbers_nmax_above_cap_exits_two(run_module):
    value = NUMBERS_MAX_N + 1
    done = run_module(["numbers", "--nmax", str(value)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1] == (
        f"qgenocchi: error: numbers --nmax {value} exceeds the cap of {NUMBERS_MAX_N}"
    )


def test_nmax_cap_only_bounds_numbers():
    parser = build_parser()
    for command in ("qtable", "limits", "verify"):
        args = parser.parse_args([command, "--nmax", str(NUMBERS_MAX_N + 1)])
        assert config_from_args(args, parser).n_max == NUMBERS_MAX_N + 1


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["numbers", "--nmax", "4", "--out", str(target)])
    assert code == 0
    _, stdout_text, _ = run_cli(capsys, ["numbers", "--nmax", "4"])
    written = json.loads(target.read_text(encoding="utf-8"))
    direct = json.loads(stdout_text)
    # the config echo records where the report went; everything else agrees
    assert written["config"].pop("out") == str(target)
    assert direct["config"].pop("out") is None
    assert written == direct


def test_out_path_that_needs_escaping_round_trips(tmp_path):
    target = tmp_path / 'r"e\\p\u00e9.json'
    assert main(["numbers", "--nmax", "2", "--out", str(target)]) == 0
    text = target.read_text(encoding="utf-8")
    assert json.loads(text)["config"]["out"] == str(target)
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


report_trees = st.recursive(
    st.none() | st.integers() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
)


@given(report_trees)
def test_json_text_matches_the_standard_encoder(tree):
    assert cli._json(tree) == json.dumps(tree, sort_keys=True, indent=2)


@given(report_trees, st.sampled_from(["", "  ", "    "]))
def test_json_indents_every_later_line_by_the_pad(tree, pad):
    assert cli._json(tree, pad) == json.dumps(tree, sort_keys=True, indent=2).replace(
        "\n", "\n" + pad
    )


@given(st.text())
@example("")
@example('say "x"')
@example("a\\b")
@example("\x00\t\n\x1f")
@example("\x7f")
@example("\u00e9\u2028\U0001f600")
def test_json_str_matches_the_standard_encoder(text):
    assert cli._json_str(text) == json.dumps(text)


@pytest.mark.parametrize("value", [True, 1.5, {1: "a"}, ("a",), b"a"])
def test_json_text_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        cli._json({"records": [value]})


report_witnesses = st.none() | st.fractions() | st.builds(
    RatFunc,
    st.lists(st.integers(-99, 99), max_size=4).map(poly.Poly),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any).map(poly.Poly),
)
report_records = st.builds(
    VerificationRecord,
    identity=st.text(max_size=6),
    params=st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    convention=st.sampled_from([None, "q", "q2"]),
    status=st.sampled_from(["PASS", "FAIL"]),
    witness=report_witnesses,
    details=st.dictionaries(st.text(max_size=4), st.text(max_size=6), max_size=2),
)


@given(st.lists(report_records, max_size=4), st.sampled_from(sorted(cli._SUBCOMMANDS)))
def test_record_template_matches_the_standard_encoder(recs, command):
    recs.sort(key=VerificationRecord.sort_key)
    summary = {}
    for rec in recs:
        summary.setdefault(rec.identity, {"PASS": 0, "FAIL": 0})[rec.status] += 1
    report = {
        "version": qgenocchi.__version__,
        "config": cli.RunConfig(command).to_dict(),
        "records": recs,
        "summary": summary,
    }
    as_dicts = {**report, "records": [rec.to_dict() for rec in recs]}
    expected = json.dumps(as_dicts, sort_keys=True, indent=2) + "\n"
    assert cli.render_report(report, "json") == expected


@pytest.mark.parametrize(
    "rec",
    [
        VerificationRecord("a", {1: 2}),
        VerificationRecord("a", {"n": 1.5}),
        VerificationRecord("a", {"n": True}),
        VerificationRecord("a", {"n": 1}, details={"v": 2.0}),
        VerificationRecord(("a",), {"n": 1}),
        VerificationRecord("a", {"n": 1}, convention=CONVENTIONS[0]),
    ],
)
def test_record_template_refuses_what_no_report_holds(rec):
    with pytest.raises(TypeError):
        cli._record_json(rec, witness_str)


def test_json_report_builds_no_record_dicts(capsys, monkeypatch):
    calls = Counter()
    to_dict = VerificationRecord.to_dict
    monkeypatch.setattr(
        VerificationRecord, "to_dict", lambda rec: calls.update(["to_dict"]) or to_dict(rec)
    )
    code, out, _ = run_cli(capsys, ["verify", "--nmax", "2", "--kmax", "2"])
    assert code == 0 and json.loads(out)["records"]
    assert calls["to_dict"] == 0
    # The CSV rows are written from the records too.
    code, out, _ = run_cli(capsys, ["verify", "--nmax", "2", "--kmax", "2", "--format", "csv"])
    assert code == 0
    assert calls["to_dict"] == 0 < len(out.splitlines()) - 1


# The CSV row writer as it was when each row came from `to_dict()`: an
# independent oracle for the writer that reads the records themselves.
_CSV_ORACLE_CELLS = {
    "identity": lambda row: row["identity"],
    "index": lambda row: row["params"]["n"],
    "params": lambda row: ";".join(f"{k}={v}" for k, v in sorted(row["params"].items())),
    "value": lambda row: row["details"]["value"],
    "value_at_q": lambda row: row["details"]["value_at_q"],
    "limit": lambda row: row["details"]["limit"],
    "classical": lambda row: row["details"]["classical"],
    "convention": lambda row: row["convention"] or "",
    "status": lambda row: row["status"],
    "witness": lambda row: row.get("witness", ""),
}


def _csv_oracle(recs, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in map(VerificationRecord.to_dict, recs):
        writer.writerow([_CSV_ORACLE_CELLS[c](row) for c in columns])
    return buf.getvalue()


# (subcommand, --q) -> the CSV columns of its report.
CSV_COLUMNS = {
    ("numbers", None): ("identity", "index", "value"),
    ("qtable", None): ("identity", "params", "value"),
    ("qtable", Fraction(1, 3)): ("identity", "params", "value", "value_at_q"),
    ("verify", None): ("identity", "params", "convention", "status", "witness"),
    ("limits", None): ("identity", "params", "limit", "classical", "status"),
}
csv_records = st.builds(
    VerificationRecord,
    identity=st.text(max_size=6),
    params=st.fixed_dictionaries({"n": st.integers()}, optional={"k": st.integers()}),
    convention=st.sampled_from([None, "q", "q2"]),
    status=st.sampled_from(["PASS", "FAIL"]),
    witness=report_witnesses,
    # Every details key that some column set reads.
    details=st.fixed_dictionaries(
        dict.fromkeys(("value", "value_at_q", "limit", "classical"), st.text(max_size=6))
    ),
)


@given(st.lists(csv_records, max_size=4), st.sampled_from(list(CSV_COLUMNS)))
def test_csv_rows_match_the_record_dict_writer(recs, run):
    command, q_eval = run
    report = {"config": cli.RunConfig(command, q_eval=q_eval).to_dict(), "records": recs}
    assert cli.render_report(report, "csv") == _csv_oracle(recs, CSV_COLUMNS[run])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["numbers", "--nmax=--"], "--nmax"),
        (["limits", "--out=--"], "--out"),
        (["verify", "--nmax", "1", "--kmax", "1", "--convention=--"], "--convention"),
        (["numbers", "--nmax", "2", "--format=--"], "--format"),
    ],
)
def test_flag_given_a_bare_double_dash_exits_two(run_module, argv, flag):
    done = run_module(argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    message = f"qgenocchi: error: argument {flag}: expected one argument"
    assert done.stderr.splitlines()[-1] == message


# (argv, extra env, exit code): a message, or argparse's usage, for stderr.
STDERR_CODES = [
    (["--version"], {"QGL_MAX_DEGREE": "abc"}, 2),
    (["limits", "--nmax", "5", "--kmax", "5"], {"QGL_MAX_DEGREE": "5"}, 4),
    (["numbers", "--nmax", "2", "--out", "{tmp}/missing/r.json"], {}, 3),
    (["numbers", "--kmax", "2"], {}, 2),
]


@pytest.mark.parametrize("argv, env, code", STDERR_CODES)
def test_closed_stderr_keeps_the_exit_code_and_stdout_empty(run_module, tmp_path, argv, env, code):
    done = run_module([word.format(tmp=tmp_path) for word in argv], close_stderr=True, **env)
    assert (done.returncode, done.stdout) == (code, "")


@pytest.mark.parametrize("argv, env, code", STDERR_CODES)
def test_dead_stderr_keeps_the_exit_code_and_stdout_empty(tmp_path, argv, env, code):
    # fd 2 open read-only: sys.stderr exists, and every write to it fails.
    src = str(Path(qgenocchi.__file__).resolve().parents[1])
    with open(os.devnull) as read_only:
        done = subprocess.run(
            [sys.executable, "-m", "qgenocchi", *(word.format(tmp=tmp_path) for word in argv)],
            stdout=subprocess.PIPE,
            stderr=read_only,
            text=True,
            env={**os.environ, "PYTHONPATH": src, **env},
        )
    assert (done.returncode, done.stdout) == (code, "")


def test_closed_stderr_leaves_a_report_as_it_is(run_module):
    done = run_module(["numbers", "--nmax", "2"], close_stderr=True)
    assert (done.returncode, done.stdout) == (0, run_module(["numbers", "--nmax", "2"]).stdout)


@pytest.mark.parametrize("argv", ["numbers --kmax 2", "limits --nmax 0 --kmax 1"])
def test_in_process_refusal_with_stderr_none_keeps_stdout_empty(monkeypatch, argv):
    # An argparse refusal and a range-check refusal: with sys.stderr None
    # argparse would print its usage to sys.stdout.
    monkeypatch.setattr(sys, "stderr", None)
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc, cli_state_restored():
        main(argv.split())
    assert (exc.value.code, out.getvalue(), sys.stderr) == (2, "", None)


def test_in_process_determinism(capsys):
    _, first, _ = run_cli(capsys, ["verify", "--nmax", "3", "--kmax", "3"])
    _, second, _ = run_cli(capsys, ["verify", "--nmax", "3", "--kmax", "3"])
    assert first == second


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def _pyproject() -> dict:
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parent.parent
    return pyprojecttoml.read_configuration(root / "pyproject.toml", expand=True)["project"]


def test_pyproject_reads_package_version():
    assert _pyproject()["version"] == "0.1.0" == qgenocchi.__version__


def test_pyproject_script_is_the_process_entry():
    assert _pyproject()["scripts"] == {"qgenocchi": "qgenocchi.cli:run"}


def _exit_code(entry, argv) -> int:
    try:
        return entry(argv)
    except SystemExit as exc:  # argparse: --version, --help, refused flags
        return exc.code


# (argv, QGL_MAX_DEGREE, exit code): each code the process entry passes on.
ENTRY_CODES = [
    ("numbers --nmax 2", "", 0),
    ("--version", "", 0),
    ("numbers --kmax 1", "", 2),
    ("verify --nmax 4 --kmax 4", "30", 4),
]

# A child that registers an atexit hook, then enters through cli.<argv[1]>.
ENTRY_PROBE = """
import atexit, sys
from qgenocchi import cli
atexit.register(print, "atexit hook ran", file=sys.stderr)
sys.exit(getattr(cli, sys.argv[1])(sys.argv[2:]))
"""


def _entry_child(entry, argv, cap="", stdout=subprocess.PIPE):
    """ENTRY_PROBE through cli.<entry>, with stdout buffered as it is by default."""
    src = str(Path(qgenocchi.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE, entry, *argv.split()],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**env, "PYTHONPATH": src, "QGL_MAX_DEGREE": cap},
    )


@pytest.mark.parametrize("argv, cap, code", ENTRY_CODES)
def test_run_ends_the_process_before_atexit_hooks(argv, cap, code):
    # Through `run` the hook never runs; through `main` and sys.exit it runs
    # last.  Both children exit with the code and print the same report.
    via_run, via_main = _entry_child("run", argv, cap), _entry_child("main", argv, cap)
    assert via_run.returncode == via_main.returncode == code
    assert "atexit hook ran" not in via_run.stderr
    assert (via_run.stdout, via_run.stderr + "atexit hook ran\n") == (
        via_main.stdout,
        via_main.stderr,
    )


def test_run_exits_as_the_interpreter_does_when_a_flush_fails():
    # A pipe with no reader: `--version` fits in the stdout buffer, so only
    # the flush in `run` meets EPIPE.  `run` then ends through sys.exit,
    # atexit hook and the interpreter's report of the failure included.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        via_run = _entry_child("run", "--version", stdout=write_end)
        via_main = _entry_child("main", "--version", stdout=write_end)
    finally:
        os.close(write_end)
    assert "atexit hook ran" in via_run.stderr
    assert (via_run.returncode, via_run.stderr) == (via_main.returncode, via_main.stderr)


@pytest.mark.parametrize("argv, cap, code", ENTRY_CODES)
def test_main_returns_the_code_in_process(capsys, monkeypatch, argv, cap, code):
    monkeypatch.setenv("QGL_MAX_DEGREE", cap)
    with cli_state_restored():
        assert _exit_code(main, argv.split()) == code


@pytest.mark.parametrize(
    "argv",
    [
        "--version",
        "--help",
        "numbers --kmax 1",
        "verify --nmax 2 --kmax 2",
        "numbers --nmax 2 --out /no-such-dir/r.json",
        "QGL_MAX_DEGREE=abc --version",
        "--version >&-",
        "numbers --nmax 3 >&-",
        "verify --nmax 2 --kmax 2 >&-",
        "QGL_MAX_DEGREE=abc --version 2>&-",
        "numbers --nmax 2 --out /no-such-dir/r.json 2>&-",
    ],
)
def test_module_entry_matches_in_process_main(run_module, capsys, monkeypatch, argv):
    # A NAME=value word sets the environment of both runs; `>&-` (`2>&-`)
    # starts the child with fd 1 (fd 2) closed, which leaves sys.stdout
    # (sys.stderr) None, as it is set here.
    monkeypatch.setenv("COLUMNS", "80")  # one --help width in both processes
    words = argv.split()
    env = dict(word.split("=", 1) for word in words if "=" in word)
    args = [word for word in words if "=" not in word and word not in (">&-", "2>&-")]
    closed = {name: word in words for name, word in (("stdout", ">&-"), ("stderr", "2>&-"))}
    done = run_module(args, close_stdout=closed["stdout"], close_stderr=closed["stderr"], **env)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    for name in (name for name, shut in closed.items() if shut):
        monkeypatch.setattr(sys, name, None)
    with cli_state_restored():
        code = _exit_code(main, args)
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


def test_parser_defaults():
    args = build_parser().parse_args(["verify"])
    assert (args.n_max, args.k_max) == (8, 8)
    assert args.conventions == CONVENTIONS  # --convention all
    assert args.format == "json"
    assert args.q_eval is None and args.out_path is None


# The grid flags each subcommand's builder reads; it refuses the others.
GRID_FLAGS = {
    "numbers": ("--nmax",),
    "qtable": ("--nmax", "--kmax", "--q"),
    "verify": ("--nmax", "--kmax", "--convention"),
    "limits": ("--nmax", "--kmax"),
}
# A non-default value of each flag.
OTHER_VALUE = {"--nmax": "3", "--kmax": "3", "--q": "1/4", "--convention": "q"}
REFUSED = [
    ("numbers", "--kmax"),
    ("numbers", "--q"),
    ("numbers", "--convention"),
    ("qtable", "--convention"),
    ("verify", "--q"),
    ("limits", "--q"),
    ("limits", "--convention"),
]


@pytest.mark.parametrize("command, flag", REFUSED)
def test_flag_the_subcommand_does_not_read_exits_two(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--nmax", "1", flag, OTHER_VALUE[flag]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("qgenocchi: error: unrecognized arguments")


@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, read in GRID_FLAGS.items() for flag in read]
)
def test_each_flag_read_changes_the_records(capsys, command, flag):
    base = {f: "2" for f in GRID_FLAGS[command] if f in ("--nmax", "--kmax")}

    def records(values):
        code, out, _ = run_cli(capsys, [command, *chain.from_iterable(values.items())])
        assert code == 0
        return json.loads(out)["records"]

    assert records(base) != records({**base, flag: OTHER_VALUE[flag]})


@pytest.mark.parametrize("command", GRID_FLAGS)
def test_help_lists_exactly_the_flags_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert listed == {"--help", *GRID_FLAGS[command], "--format", "--out"}


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_exits_zero(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # for --out
    program, *argv = line.split()
    assert program == "qgenocchi"
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused the line
        code = exc.code
    assert code == 0, capsys.readouterr().err


def test_parser_lists_subcommands_in_order_with_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # no wrapping of the help lines
    parser = build_parser()
    text = parser.format_help()
    assert "{numbers,qtable,verify,limits}" in text
    rows = [line.split(None, 1) for line in text.splitlines() if line.startswith("    ")]
    assert rows == [
        ["numbers", "classical Bernoulli/Euler/Genocchi tables"],
        ["qtable", "q-binomial and q-power-sum tables"],
        ["verify", "run the full identity grid"],
        ["limits", "q -> 1 limit checks with pole flags"],
    ]
    for name, _ in rows:
        assert parser.parse_args([name]).command == name


def test_passing_records_build_no_difference(capsys, monkeypatch):
    # Zero sums of in-process verify 4x4, by the nearest caller that is not
    # RatFunc.__sub__.
    add, zeros = RatFunc.__add__, Counter()

    def counting_add(self, other):
        out = add(self, other)
        if out is not NotImplemented and not out:
            frame = sys._getframe(1)
            while frame.f_code.co_name == "__sub__":
                frame = frame.f_back
            zeros[frame.f_code.co_name] += 1
        return out

    monkeypatch.setattr(RatFunc, "__add__", counting_add)
    code, _, _ = run_cli(capsys, ["verify", "--nmax", "4", "--kmax", "4"])
    assert code == 0
    # check_alt_qsum decides its 32 passing cells by one cross product, so
    # not even G - G_shift at k = 1 (both sums empty) is built; the
    # shift-law table decides each entry by cross-multiplication and builds
    # a trial's lhs - rhs only on a nonzero entry.
    assert zeros["check_alt_qsum"] == 0
    assert zeros["shift_law_record"] == 0


def test_verify_kernel_operation_counts(capsys, monkeypatch):
    # With every cache empty, in-process verify 4x4 makes 241 integer
    # pseudo-divisions and 327 RatFunc additions.  Trial divisions by
    # pseudo-division, sums added term by term as Polys, and passing
    # alt_qsum cells and shift-law entries decided by canonical sums made
    # 800 and 646.
    counts = Counter()
    pseudo_divmod, add = poly._pseudo_divmod, RatFunc.__add__
    monkeypatch.setattr(
        poly, "_pseudo_divmod", lambda u, v: counts.update(["divmod"]) or pseudo_divmod(u, v)
    )
    monkeypatch.setattr(RatFunc, "__add__", lambda a, b: counts.update(["add"]) or add(a, b))
    code, _, _ = run_cli(capsys, ["verify", "--nmax", "4", "--kmax", "4"])
    assert code == 0
    assert 0 < counts["divmod"] <= 241
    assert 0 < counts["add"] <= 327


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_bytes_locked(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_DIGESTS[command]


# Flag values for the fuzz test below, as (accepted, refused).  Every grid
# stays at most 4 x 4, so no drawn run is long.
FUZZ_VALUES = {
    "--nmax": (["1", "2", "3", "4", " 2", "+3"], ["0", "-1", "", "x", "2.0", "1e1"]),
    "--kmax": (["1", "2", "3", "4"], ["0", "-2", "three"]),
    "--q": (
        ["1/3", "1/4", "0.5", "3/7", "1e-3", "1e-90", "1/" + "7" * 95, " 1/2"],
        ["0", "1", "3/2", "-1/2", "1/0", "nan", "inf", "1/2/3", "", "1e-5000", "9" * 101],
    ),
    "--convention": (["q", "q2", "all"], ["Q", ""]),
    "--format": (["json", "csv"], ["xml"]),
    "QGL_MAX_DEGREE": ([None, "", "1", "2", "12", "10000"], ["0", "-1", "abc", "1.5"]),
}


@st.composite
def fuzz_runs(draw):
    def value(name):
        accepted, refused = FUZZ_VALUES[name]
        return draw(st.sampled_from(refused if draw(st.integers(0, 5)) == 5 else accepted))

    command = draw(st.sampled_from(sorted(GRID_FLAGS)))
    # The grid bounds always (their defaults are 8), then some of --q,
    # --convention and --format: mostly the subcommand's own, now and then
    # one it refuses.
    grid = [flag for flag in ("--nmax", "--kmax") if flag in GRID_FLAGS[command]]
    own = [flag for flag in (*GRID_FLAGS[command], "--format") if flag not in grid]
    other = [flag for flag in ("--q", "--convention") if flag not in own]
    extra = draw(st.lists(st.sampled_from(own * 6 + other), max_size=2, unique=True))
    argv = [command]
    for flag in grid + extra:
        # Now and then `--flag=--`, a flag that argparse reads without a value.
        argv += [f"{flag}=--"] if draw(st.integers(0, 9)) == 9 else [flag, value(flag)]
    # --out, relative to a fresh directory: none, a new file, a file in a
    # missing directory, or the directory itself.
    out = draw(st.sampled_from([None, None, None, "report.out", "missing/report.out", "."]))
    return argv, out, value("QGL_MAX_DEGREE")


def _hard_failure(text: str) -> bool:
    if text.startswith("{"):
        rows = json.loads(text)["records"]
        records = [VerificationRecord(r["identity"], {}, status=r["status"]) for r in rows]
        return exit_code_for({"records": records}) == 1
    rows = list(csv.DictReader(io.StringIO(text)))
    return any(r["identity"] in HARD_IDENTITIES and r.get("status") == "FAIL" for r in rows)


@settings(max_examples=150)
@given(run=fuzz_runs())
def test_fuzzed_argv_exits_with_a_documented_code(tmp_path_factory, run):
    argv, out_name, cap = run
    if out_name is not None:
        out_path = tmp_path_factory.mktemp("fuzz") / out_name
        argv = [*argv, "--out", str(out_path)]
    env = {} if cap is None else {"QGL_MAX_DEGREE": cap}
    out, err = io.StringIO(), io.StringIO()
    with (
        cli_state_restored(),
        patch.dict(os.environ, env),
        redirect_stdout(out),
        redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the flags
            code = exc.code
    assert code in {0, 1, 2, 3, 4}, (argv, cap, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        report = out.getvalue() if out_name is None else out_path.read_text(encoding="utf-8")
        # Exit 1 exactly when a hard identity FAILs.
        assert (code == 1) == _hard_failure(report), (argv, cap)
    else:
        assert out.getvalue() == "" and err.getvalue(), (argv, cap)


# Flags and values for the fast-path test: each flag in full and abbreviated,
# help and version, and each flag's (accepted, refused) values.  Of the
# dash-led --out values argparse reads "-" and "-3" as values and the others
# as flags.  Any flag may also meet an empty word, digits int() takes, or an
# int past the int-to-str digit limit.
FAST_PATH_FLAGS = [
    *OTHER_VALUE, "--format", "--out", "--nm", "--k", "--conv", "--form", "--o",
    "-h", "--help", "--version",
]
FAST_PATH_OWN = {
    **{flag: FUZZ_VALUES[flag] for flag in (*OTHER_VALUE, "--format")},
    "--out": (["report.out", " -r"], ["-", "-3", "--", "-x", "-1/2"]),
}
FAST_PATH_VALUES = sorted(
    set(chain(*chain(*FAST_PATH_OWN.values()))) | {"", "\u0663", "4_0", "9" * 5000}
)


@st.composite
def fast_path_argv(draw):
    """A line the fast path reads, and at most one change to it: another
    command, flag or value, a --flag=value word, a repeated flag or a
    dropped word."""
    command = draw(st.sampled_from(sorted(GRID_FLAGS)))
    own = [*GRID_FLAGS[command], "--format", "--out"]
    flags = draw(st.lists(st.sampled_from(own), max_size=len(own), unique=True))
    words = [command]
    for flag in flags:
        words += [flag, draw(st.sampled_from(FAST_PATH_OWN[flag][0]))]
    change = draw(st.integers(0, 6))
    at = 1 + 2 * draw(st.integers(0, max(len(flags) - 1, 0)))  # a flag's index
    if change == 1:
        words[0] = draw(st.sampled_from(["no-such-command", "--version", "-h", *GRID_FLAGS]))
    elif change == 2 and flags:
        words[at] = draw(st.sampled_from(FAST_PATH_FLAGS))
    elif change == 3 and flags:
        refused = FAST_PATH_OWN[words[at]][1]
        words[at + 1] = draw(st.sampled_from(refused if draw(st.booleans()) else FAST_PATH_VALUES))
    elif change == 4 and flags:
        words[at : at + 2] = [f"{words[at]}={words[at + 1]}"]
    elif change == 5 and flags:
        words += [words[at], draw(st.sampled_from(FAST_PATH_OWN[words[at]][0]))]
    elif change == 6:
        del words[draw(st.integers(0, len(words) - 1))]
    return words


@settings(max_examples=400)
@given(argv=fast_path_argv())
@example(argv=["verify", "--nmax", "2", "--kmax", "2"])
@example(argv=["numbers", "--nmax", str(NUMBERS_MAX_N + 1)])
@example(argv=["numbers", "--kmax", "2"])
@example(argv=["qtable", "--format", "xml"])
@example(argv=["limits", "--out", "--"])
def test_fast_path_config_is_the_argparse_config(argv):
    # The fast path accepts a line only when argparse accepts it too, and
    # then gives the same RunConfig.  (A line it leaves alone is argparse's.)
    fast = cli._fast_config(argv)
    if fast is None:
        return
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parser = build_parser()
            slow = config_from_args(parser.parse_args(argv), parser)
        except SystemExit:  # --help, --version or a refusal
            slow = None
    assert fast == slow


def test_every_pinned_report_line_takes_the_fast_path():
    for command in REPORT_DIGESTS:
        assert cli._fast_config(command.split()) is not None, command
