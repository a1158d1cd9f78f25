"""The size of the package source, held under a committed ceiling."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CEILING = Path(__file__).with_name("src_line_ceiling.txt")


def test_source_line_count_is_the_ceiling():
    """`wc -l src/qgenocchi/*.py` in total equals the number in
    src_line_ceiling.txt.  This is a ratchet: a PR that lowers the count
    lowers the ceiling, and a PR that raises the ceiling says why in
    CHANGES.md."""
    total = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "qgenocchi").glob("*.py"))
    ceiling = int(CEILING.read_text())
    assert total <= ceiling, f"src has {total} lines, above the ceiling of {ceiling}"
    assert total == ceiling, f"src has {total} lines: lower the ceiling in {CEILING.name} to match"
