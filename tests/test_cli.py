import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qgenocchi
from qgenocchi import DegreeLimitError, RatFunc, VerificationRecord, cli
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
    for chosen, other in (("q", "q2"), ("q2", "q")):
        argv = ["verify", "--nmax", "2", "--kmax", "2", "--convention", chosen]
        _, out, _ = run_cli(capsys, argv)
        report = json.loads(out)
        conventions = {r["convention"] for r in report["records"]}
        assert other not in conventions
        assert chosen in conventions
        assert report["config"]["conventions"] == [chosen]


def test_verify_hard_failures_gate_exit_code():
    fail_hard = {"records": [{"identity": "alt_qsum", "status": "FAIL"}]}
    fail_soft = {"records": [{"identity": "closed_form_g", "status": "FAIL"}]}
    all_pass = {"records": [{"identity": "alt_qsum", "status": "PASS"}]}
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
    partial_sum = cli.partial_sum
    monkeypatch.setattr(cli, "partial_sum", lambda terms, k: partial_sum(terms, k) + 1)
    rec = shift_law_record()
    assert rec.status == "FAIL"
    assert rec.details["failures"] == str(SHIFT_LAW_TRIALS) == "200"
    assert rec.witness == RatFunc(1)


def _shift_law_by_trials():
    """failures and first witness of the 200 seeded trials, each built from
    cli's own draws (the same RNG stream) and run through the three maps as
    cli names them."""
    rng = random.Random(cli.SHIFT_LAW_SEED)
    failures, witness = 0, None
    for _ in range(SHIFT_LAW_TRIALS):
        terms = tuple(cli.ExpTerm(cli._coefficient(*raw), b) for b, raw in cli._draw_terms(rng))
        k = rng.randint(0, SHIFT_LAW_MAX_SHIFT)
        lhs = cli.fermionic_sum(cli.shift_terms(terms, k))
        rhs = cli.fermionic_sum(terms) - cli.partial_sum(terms, k)
        if lhs != rhs:
            failures += 1
            witness = witness or lhs - rhs
    return failures, witness


def test_shift_law_linear_fault_matches_trial_replay(monkeypatch):
    # One summand too many: the maps stay linear, so the defect table must
    # report exactly what running every trial through them reports.
    partial_sum = cli.partial_sum
    monkeypatch.setattr(cli, "partial_sum", lambda terms, k: partial_sum(terms, k + 1))
    failures, witness = _shift_law_by_trials()
    assert failures > 0
    rec = shift_law_record()
    assert rec.status == "FAIL"
    assert rec.details["failures"] == str(failures)
    assert rec.witness == witness


def test_shift_law_runs_maps_once_per_table_key(monkeypatch):
    # Keys: the empty list at each k, the unit term at each (beta2, k).
    calls = []
    fermionic_sum = cli.fermionic_sum
    monkeypatch.setattr(cli, "fermionic_sum", lambda terms: calls.append(1) or fermionic_sum(terms))
    assert shift_law_record().passed
    keys = (SHIFT_LAW_MAX_SHIFT + 1) * (1 + 13)
    assert 0 < len(calls) <= 2 * keys == 2 * (7 + 13 * 7)


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


def test_in_process_determinism(capsys):
    _, first, _ = run_cli(capsys, ["verify", "--nmax", "3", "--kmax", "3"])
    _, second, _ = run_cli(capsys, ["verify", "--nmax", "3", "--kmax", "3"])
    assert first == second


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_pyproject_reads_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parent.parent
    config = pyprojecttoml.read_configuration(root / "pyproject.toml", expand=True)
    assert config["project"]["version"] == "0.1.0" == qgenocchi.__version__


def test_parser_defaults():
    args = build_parser().parse_args(["verify"])
    assert (args.nmax, args.kmax) == (8, 8)
    assert args.convention == "all"
    assert args.format == "json"
    assert args.q is None and args.out is None


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


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_bytes_locked(capsys, command):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_DIGESTS[command]
