"""jsonio.dark_dumps prints the dark document of json.dumps, byte for byte.

The writer fills one template per entry instead of building a dict per
entry, and renders each value object once.  The comprehension it replaced
is kept here as the oracle: every case compares the writer with
``json.dumps(oracle(report), sort_keys=True, indent=2)``, and
``dark_to_json`` (which now reads the writer's text back) with the
oracle's dict.
"""

import json
import shlex
from fractions import Fraction

import pytest

from kreinosc import DarkEntry, DarkReport, GradedScalar, cli, dark_check
from kreinosc.cli import main
from kreinosc.jsonio import dark_dumps, dark_to_json, graded_to_json

from test_golden import GOLDEN


def oracle(d) -> dict:
    """The dark document as dark_to_json built it before the writer."""
    return {
        "dark": d.is_dark,
        "max_degree": d.max_degree,
        "nodes": {"a": d.nodes_a, "b": d.nodes_b},
        "monomials": d.monomials,
        "pairs_checked": d.pairs_checked,
        "entries": [
            {
                "monomial": e.monomial,
                "node_a": e.node_a,
                "node_b": e.node_b,
                "value": None if e.value is None else e.value.text(),
                "value_exact": None if e.value is None else graded_to_json(e.value),
                "note": e.note,
            }
            for e in d.entries
        ],
    }


def assert_writes_the_oracle(report):
    expected = oracle(report)
    assert dark_dumps(report) == json.dumps(expected, sort_keys=True, indent=2)
    assert dark_to_json(report) == expected


def scanned(monkeypatch, argv) -> DarkReport:
    """The report that one dark command line prints."""
    reports = []

    def scan(*args):
        reports.append(dark_check(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "dark_check", scan)
    assert main(argv) == 0
    (report,) = reports
    return report


DARK_CASES = [case for case in GOLDEN if case.startswith("dark ")]


@pytest.mark.parametrize("case", DARK_CASES)
def test_every_golden_dark_report(case, monkeypatch, capsys):
    report = scanned(monkeypatch, shlex.split(case))
    assert capsys.readouterr().out == dark_dumps(report) + "\n"
    assert_writes_the_oracle(report)


def report(*entries, is_dark=False) -> DarkReport:
    return DarkReport(
        is_dark=is_dark,
        max_degree=3,
        nodes_a=5,
        nodes_b=7,
        monomials=85,
        pairs_checked=12,
        entries=tuple(entries),
    )


SQRT2 = GradedScalar.sqrt2()
MIXED = GradedScalar(
    {
        (0, 0): Fraction(22, 7),
        (1, 0): Fraction(-3, 7),
        (0, 1): 5,
        (1, 3): Fraction(1, 2),
        (0, -1): -2,
        (1, -3): Fraction(-9, 4),
        (0, 5): Fraction(7, 3),
    }
)
NEGATIVE = GradedScalar({(1, 1): Fraction(-5, 2), (0, -5): -1})
BIG = GradedScalar({(0, 2): Fraction(2**80 + 1, 3**40), (1, 2): -(2**70)})

HAND_BUILT = {
    "no entries, dark": report(is_dark=True),
    "no entries, not dark": report(),
    "divergent and gamma-pole": report(
        DarkEntry("b++", 0, 1, None, "divergent"),
        DarkEntry("b-+ b++", 2, 0, None, "gamma-pole"),
        DarkEntry("1", 4, 6, SQRT2),
        DarkEntry("b--", 1, 1, None, "divergent"),
    ),
    "multi-term values": report(
        DarkEntry("1", 0, 0, MIXED),
        DarkEntry("b++", 0, 1, NEGATIVE),
        DarkEntry("b+- b++", 3, 2, BIG),
        DarkEntry("b++ b+-", 3, 2, MIXED),  # one value object on two entries
        DarkEntry("b-- b--", 1, 4, GradedScalar(MIXED.terms())),  # an equal, other object
        DarkEntry("b-+", 2, 2, SQRT2 * GradedScalar.pi() * GradedScalar.sqrt_pi()),
        DarkEntry("b+-", 2, 3, GradedScalar.rational(Fraction(-1, 3))),
    ),
    "a zero value": report(DarkEntry("1", 0, 0, GradedScalar.zero())),
    "escaped text": report(
        DarkEntry('b"+ \\ b--\n\t\x00 é € 😀', 0, 0, SQRT2, 'note "quoted" \\ é'),
        DarkEntry("\ud800", 1, 1, None, "\x7f"),
    ),
}


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_hand_built_reports(name):
    assert_writes_the_oracle(HAND_BUILT[name])


def test_each_distinct_value_object_is_rendered_once(monkeypatch, capsys):
    rendered = []
    text = GradedScalar.text
    monkeypatch.setattr(GradedScalar, "text", lambda v: rendered.append(v) or text(v))
    reports = []

    def scan(*args):
        reports.append(dark_check(*args))
        rendered.clear()  # count the printing only, not the closure or the scan
        return reports[-1]

    monkeypatch.setattr(cli, "dark_check", scan)
    assert main(shlex.split("dark --a vacuum --b vacuum --depth 3 --degree 4")) == 0
    capsys.readouterr()
    (scanned_report,) = reports
    values = [e.value for e in scanned_report.entries if e.value is not None]
    distinct = {id(v) for v in values}
    assert sorted(map(id, rendered)) == sorted(distinct)
    # the scan shares value objects between words, so the memo saves renders
    assert (len(values), len(distinct)) == (1106, 461)
