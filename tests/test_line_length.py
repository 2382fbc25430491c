"""No line of the package source is longer than 100 characters.

This keeps the line count of src/kreinosc a measure of code, not of how
densely it is packed.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kreinosc"
LIMIT = 100


def test_no_source_line_is_longer_than_the_limit():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    long_lines = [
        "%s:%d (%d)" % (path.name, number, len(line))
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long_lines == []
