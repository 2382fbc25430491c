"""The README's table of input bounds names each budget constant with its value.

A row states a budget as ``VALUE (`module.NAME`)``; when a constant
changes, this test fails until the table says the same.
"""

import re
from pathlib import Path

import pytest

from kreinosc import algebra1d, jsonio, scalars, sectors

README = Path(__file__).resolve().parent.parent / "README.md"

BUDGETS = [
    (algebra1d, "MAX_COMPOSE_WORK"),
    (sectors, "MAX_SECTOR_NODES"),
    (sectors, "MAX_DARK_WORK"),
    (sectors, "MAX_GRAM_WORK"),
    (scalars, "MAX_GAMMA_ARG"),
    (jsonio, "MAX_GRADE"),
    (jsonio, "MAX_EPS_POWER"),
]


def bounds_rows():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| input | bound | code |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            return rows
        rows.append(line)
    return rows


@pytest.mark.parametrize("module, name", BUDGETS, ids=[name for _, name in BUDGETS])
def test_the_bounds_table_names_the_budget_with_its_value(module, name):
    qualified = "%s.%s" % (module.__name__.rsplit(".", 1)[1], name)
    rows = [row for row in bounds_rows() if "`%s`" % qualified in row]
    assert len(rows) == 1, qualified
    stated = re.search(r"(\d+) \(`%s`\)" % re.escape(qualified), rows[0])
    assert stated is not None, rows[0]
    assert int(stated.group(1)) == getattr(module, name)
