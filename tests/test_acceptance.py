"""End-to-end acceptance gate.

Each test covers one release criterion on its full stated grid, prints a
single PASS/FAIL line, and then asserts.  All comparisons are exact; there
are no tolerances anywhere in this module.
"""

import json
import random
from fractions import Fraction

from qgenocchi.classical import (
    alt_power_sum,
    alt_power_sum_via_euler,
    alt_sum_formula_check,
    faulhaber_sum,
    genocchi_numbers,
    genocchi_relations_check,
    power_sum,
)
from qgenocchi.cli import shift_law_record
from qgenocchi.engine import (
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
from qgenocchi.poly import Poly
from qgenocchi.qcore import (
    garrett_hummel_check,
    q_binomial_limit_check,
    q_power_sum_limit_check,
    warnaar_check,
)
from qgenocchi.ratfunc import RatFunc, evaluate_at_q

Q_SAMPLE = Fraction(1, 4)


def report(name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_classical_tables():
    table = genocchi_numbers(16)
    ok = table[1] == 1 and table[3] == table[5] == table[7] == 0
    records = [genocchi_relations_check(m) for m in range(1, 16)]
    ok = ok and all(rec.passed for rec in records)
    report("criterion 1: Genocchi anchors and three-way relation m<=15", ok)


def test_criterion_2_faulhaber_grid():
    ok = all(
        faulhaber_sum(n, k) == power_sum(n, k - 1)
        for n in range(1, 11)
        for k in range(1, 51)
    )
    report("criterion 2: Bernoulli power-sum closed form n<=10 k<=50", ok)


def test_criterion_3_alternating_sums():
    ok = all(
        alt_power_sum_via_euler(k, n) == alt_power_sum(k, n)
        for k in range(1, 11)
        for n in range(2, 51)
    )
    complete = 0
    for k in range(1, 11):
        for n in range(2, 51):
            for transposed in (False, True):
                rec = alt_sum_formula_check(k, n, transposed=transposed)
                if rec.passed or (rec.witness is not None and rec.witness != 0):
                    complete += 1
    ok = ok and complete == 10 * 49 * 2
    report(
        "criterion 3: alternating power sums k<=10 n<=50 and literal-formula report",
        ok,
        f"{complete} formula cells",
    )


def test_criterion_4_square_sum_identities():
    ok = all(warnaar_check(n).passed for n in range(1, 31))
    ok = ok and all(garrett_hummel_check(n).passed for n in range(1, 26))
    report("criterion 4: telescoped square-sum identities n<=30 and n<=25", ok)


def test_criterion_5_limits():
    ok = all(
        q_power_sum_limit_check(m, n).passed
        for m in range(1, 8)
        for n in range(1, 21)
    )
    ok = ok and all(
        q_binomial_limit_check(n, k).passed
        for n in range(0, 13)
        for k in range(0, n + 1)
    )
    report("criterion 5: q->1 limits of power-sum and binomial tables", ok)


def _random_terms(rng: random.Random) -> tuple[ExpTerm, ...]:
    terms = []
    for _ in range(rng.randint(1, 4)):
        num = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]) + 1
        den = Poly.monomial(rng.randint(0, 3)) + rng.randint(1, 4)
        terms.append(ExpTerm(RatFunc(num, den), rng.randint(-6, 6)))
    return tuple(terms)


def test_criterion_6_shift_law():
    rng = random.Random(97)
    ok = True
    for _ in range(200):
        terms = _random_terms(rng)
        k = rng.randint(0, 6)
        lhs = fermionic_sum(shift_terms(terms, k))
        rhs = fermionic_sum(terms) - partial_sum(terms, k)
        if lhs != rhs:
            ok = False
            break
    ok = ok and shift_law_record().passed
    report("criterion 6: regularized shift law on 200 random term lists", ok)


def test_criterion_7_telescoping_identity():
    ok = all(
        check_alt_qsum(n, k, conv).passed
        for conv in CONVENTIONS
        for n in range(1, 9)
        for k in range(1, 9)
    )
    mixed = check_alt_qsum(2, 3, Convention.Q2, lhs_convention=Convention.Q)
    witness_ok = (
        not mixed.passed
        and mixed.witness is not None
        and evaluate_at_q(mixed.witness, Q_SAMPLE) != 0
    )
    report(
        "criterion 7: main identity on [1,8]^2 per convention; mixed run fails",
        ok and witness_ok,
    )


def test_criterion_8_closed_form_reports():
    counts = {}
    ok = True
    for conv in CONVENTIONS:
        for check in (check_closed_form_g, check_closed_form_g_shift):
            passed = failed = 0
            for n in range(1, 7):
                for k in range(1, 7):
                    rec = check(n, k, conv)
                    if rec.passed:
                        passed += 1
                    else:
                        failed += 1
                        if (
                            rec.witness is None
                            or evaluate_at_q(rec.witness, Q_SAMPLE) == 0
                        ):
                            ok = False
            counts[f"{check.__name__[6:]}/{conv.value}"] = (passed, failed)
    extra = "; ".join(f"{k}: {p} pass, {f} fail" for k, (p, f) in sorted(counts.items()))
    report("criterion 8: closed-form comparison grids with exact witnesses", ok, extra)


def test_criterion_9_classical_limit_reports():
    ok = True
    seen = set()
    for conv in CONVENTIONS:
        for n in range(1, 7):
            for k in range(1, 7):
                for rec in classical_limit_check(n, k, conv):
                    seen.add(rec.identity)
                    if set(rec.details) != {"limit", "classical"}:
                        ok = False
                    pole = rec.details["limit"].startswith("POLE(")
                    if not pole and rec.witness is None and not rec.passed:
                        ok = False
    ok = ok and seen == {"classical_limit_g", "classical_limit_g_shift"}
    report("criterion 9: q->1 comparison report with exact values or pole flags", ok)


def test_criterion_10_cli_determinism_and_exit_codes(run_module, tmp_path):
    argv = ["verify", "--nmax", "6", "--kmax", "6"]
    first = run_module(argv)
    second = run_module(argv)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    report_obj = json.loads(first.stdout)
    ok = ok and report_obj["summary"]["alt_qsum"]["FAIL"] == 0
    bad = run_module(["verify", "--nmax", "0"])
    ok = ok and bad.returncode == 2
    blocked = run_module(["numbers", "--out", "/no-such-dir/r.json"])
    ok = ok and blocked.returncode == 3
    written = run_module(["numbers", "--nmax", "4", "--out", str(tmp_path / "r.json")])
    ok = ok and written.returncode == 0 and (tmp_path / "r.json").exists()
    report("criterion 10: CLI byte-identical reruns and exit-code contract", ok)
