"""The CLI's start-up path and the five immutable value types it carries."""

import os
import subprocess
import sys
from fractions import Fraction
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
    # nonzero shift-law table entry needs `random`, and only a written JSON
    # report `json`.
    assert not _startup_modules("-S") & (HEAVY_MODULES | {"random", "json"})


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
