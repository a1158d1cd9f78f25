"""The CLI's start-up path, the lazy package namespace, and the five
immutable value types the CLI carries."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

import qgenocchi
from qgenocchi import (
    Convention,
    ExpTerm,
    PoleReport,
    QGenocchiValue,
    RatFunc,
    VerificationRecord,
)
from qgenocchi.cli import RunConfig

# Modules the start-up path must not load: `dataclasses` pulls in `inspect`,
# which pulls in `ast`, `dis` and `tokenize`; only `--format csv` needs `csv`.
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}

PROBE = """
import sys
before = set(sys.modules)
import qgenocchi.cli
try:
    qgenocchi.cli.main(["--version"])
except SystemExit:
    pass
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _startup_modules(*flags: str) -> set[str]:
    """Modules `import qgenocchi.cli` plus `main(["--version"])` loads in a
    fresh interpreter started with `flags`."""
    src = str(Path(qgenocchi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *flags, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == qgenocchi.__version__
    loaded = set(lines[-1].split())
    assert "qgenocchi.cli" in loaded
    return loaded


def test_version_path_imports_no_heavy_module():
    assert not _startup_modules() & HEAVY_MODULES


def test_version_path_without_site_imports_no_random():
    # Site start-up can load `random` or `json` itself (a `.pth` file
    # importing `tempfile` loads `random`), which hides them from the probe
    # above; under -S every module the package pulls in shows.  Only a
    # nonzero shift-law table entry needs `random`, and only a report string
    # that needs escaping `json`.
    assert not _startup_modules("-S") & (HEAVY_MODULES | {"random", "json"})


# `main(sys.argv[1:])` in a fresh interpreter with stdout to the null device:
# its exit code, then every module loaded.
MAIN_PROBE = """
import os, sys
import qgenocchi.cli
sys.stdout = open(os.devnull, "w")
try:
    code = qgenocchi.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout = sys.__stdout__
print(code, " ".join(sorted(sys.modules)))
"""

# What `import argparse` and its first parser load.
ARGPARSE_MODULES = {"argparse", "gettext", "locale", "textwrap"}


def _main_without_site(*argv: str) -> tuple[str, set[str]]:
    src = str(Path(qgenocchi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", MAIN_PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    code, *loaded = done.stdout.split()
    assert "qgenocchi.cli" in loaded
    return code, set(loaded)


def test_report_run_without_site_imports_no_json_csv_or_random():
    # A pinned report has no string that needs escaping, so writing it loads
    # no `json`; a passing shift-law table draws no `random`.
    code, loaded = _main_without_site("verify", "--nmax", "2", "--kmax", "2")
    assert code == "0"
    assert not loaded & {"json", "csv", "random"}


@pytest.mark.parametrize("argv", ["--version", "verify --nmax 2 --kmax 2"])
def test_well_formed_line_loads_no_argparse(argv):
    code, loaded = _main_without_site(*argv.split())
    assert code == "0"
    assert not loaded & ARGPARSE_MODULES


def test_help_still_loads_argparse():
    code, loaded = _main_without_site("--help")
    assert code == "0"
    assert "argparse" in loaded


def test_version_loads_no_fractions_and_no_package_module():
    # The package root defines Convention, so `--version` needs no other module.
    code, loaded = _main_without_site("--version")
    assert code == "0"
    assert not loaded & {"fractions", "decimal"}
    assert {m for m in loaded if m.startswith("qgenocchi")} == {"qgenocchi", "qgenocchi.cli"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ("numbers --nmax 2", {"engine", "qcore", "series"}),
        ("limits --nmax 2 --kmax 2", {"engine", "series"}),
        ("qtable --nmax 2 --kmax 2", {"engine", "series"}),
        ("verify --nmax 2 --kmax 2", {"series"}),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, unloaded):
    code, loaded = _main_without_site(*argv.split())
    assert code == "0"
    assert not loaded & {f"qgenocchi.{m}" for m in unloaded}


# The package's 54 exported names, by the module that defines each: "" is
# the package root (engine binds both names too), and `poly_gcd` is `poly.gcd`.
EXPORTS = {
    "": ["CONVENTIONS", "Convention"],
    "classical": [
        "NumberTable", "alt_power_sum", "alt_power_sum_via_euler", "alt_sum_formula_check",
        "bernoulli_numbers", "euler_numbers", "euler_poly", "faulhaber_sum", "genocchi_numbers",
        "genocchi_poly", "genocchi_relations_check", "order_r_genocchi", "power_sum",
    ],
    "engine": [
        "ExpTerm", "QGenocchiValue", "alt_qsum", "check_alt_qsum", "check_closed_form_g",
        "check_closed_form_g_shift", "classical_limit_check", "closed_form_g",
        "closed_form_g_shift", "coefficient_terms", "fermionic_sum", "merge_terms",
        "partial_sum", "q_genocchi_number", "q_genocchi_number_shifted", "shift_terms",
    ],
    "poly": ["DegreeLimitError", "Poly", "poly_gcd"],
    "qcore": [
        "PoleReport", "garrett_hummel_check", "limit_at_one", "q_binomial",
        "q_binomial_limit_check", "q_integer", "q_power_sum", "q_power_sum_limit_check",
        "warnaar_check",
    ],
    "ratfunc": ["PoleError", "RatFunc", "evaluate_at_q", "monomial_q"],
    "records": ["FAIL", "PASS", "VerificationRecord", "record_from_difference"],
    "series": ["Series", "exp_t", "exp_xt"],
}
ALL = sorted(chain.from_iterable(EXPORTS.values()))


def test_package_exports_the_same_names():
    assert len(ALL) == 54
    assert qgenocchi.__all__ == ALL


def test_each_export_is_the_defining_modules_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"qgenocchi.{module}" if module else "qgenocchi")
        for name in names:
            assert getattr(qgenocchi, name) is getattr(source, "gcd" if name == "poly_gcd" else name)
    assert qgenocchi.engine.Convention is qgenocchi.Convention
    assert qgenocchi.engine.CONVENTIONS is qgenocchi.CONVENTIONS


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'max_degree'"):
        qgenocchi.max_degree
    assert not hasattr(qgenocchi, "no_such_name")


# In a fresh interpreter: the package's listed names and the exports it
# holds before any is used, the names `from qgenocchi import *` binds, and
# the exports the package holds after.
NAMESPACE_PROBE = """
import qgenocchi
print(" ".join(dir(qgenocchi)))
print(" ".join(sorted(set(vars(qgenocchi)) & set(qgenocchi.__all__))))
from qgenocchi import *
print(" ".join(sorted(k for k in dir() if not k.startswith("__") and k != "qgenocchi")))
print(" ".join(sorted(set(vars(qgenocchi)) & set(qgenocchi.__all__))))
"""


def _fresh_python(*args: str) -> str:
    src = str(Path(qgenocchi.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    ).stdout


def test_star_import_and_dir_cover_every_export_in_a_fresh_process():
    listed, held_before, bound, held_after = _fresh_python("-c", NAMESPACE_PROBE).split("\n")[:4]
    assert set(ALL) <= set(listed.split())
    assert held_before.split() == ["CONVENTIONS", "Convention"]  # nothing else loaded yet
    assert bound.split() == ALL
    assert held_after.split() == ALL  # each value is kept after its first access


def test_engine_imports_first_in_a_fresh_process():
    # engine takes Convention from the package root, which imports no module.
    out = _fresh_python("-c", "import qgenocchi.engine as e; print(e.Convention.parse('q2').base_power)")
    assert out == "2\n"


# Each value next to its repr as the former frozen dataclasses printed it.
VALUES = [
    (
        VerificationRecord("shift_law", {"trials": 1}, "q", "FAIL", Fraction(1, 2), {"seed": "7"}),
        "VerificationRecord(identity='shift_law', params={'trials': 1}, convention='q', "
        "status='FAIL', witness=Fraction(1, 2), details={'seed': '7'})",
    ),
    (PoleReport(2), "PoleReport(order=2)"),
    (ExpTerm(RatFunc(1), -2), "ExpTerm(coeff=RatFunc(Poly(['1']), Poly(['1'])), beta2=-2)"),
    (
        QGenocchiValue(3, 1, "plain", RatFunc(0)),
        "QGenocchiValue(n=3, k=1, variant='plain', value=RatFunc(Poly([]), Poly(['1'])))",
    ),
    (
        RunConfig("verify", 2, 3, (Convention.Q,), Fraction(1, 4), "json", None),
        "RunConfig(command='verify', n_max=2, k_max=3, conventions=(<Convention.Q: 'q'>,), "
        "q_eval=Fraction(1, 4), format='json', out_path=None)",
    ),
]


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_type_repr_equality_and_immutability(value, text):
    assert repr(value) == text
    cls = type(value)
    assert value == cls(*value)
    assert value != cls(*value[:-1], "other")
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_type_defaults():
    rec = VerificationRecord("warnaar", {"n": 2})
    assert (rec.convention, rec.status, rec.witness) == (None, "PASS", None)
    assert rec.passed
    assert rec.details == {}
    assert rec == VerificationRecord("warnaar", {"n": 2}, None, "PASS", None, {})
    # The default details are one shared mapping, so it must be read-only.
    assert rec.details is VerificationRecord("faulhaber", {}).details
    with pytest.raises(TypeError):
        rec.details["seed"] = "1"
    assert rec.to_dict() == {
        "identity": "warnaar",
        "params": {"n": 2},
        "convention": None,
        "status": "PASS",
    }
    assert str(PoleReport(3)) == "POLE(3)"
