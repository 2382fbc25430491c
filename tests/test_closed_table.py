"""The closed forms of H and Q in algebra2d._CLOSED are stated once.

``eigencheck_2d`` reads the images of H and Q from that table, and the
identity audit's ``hamiltonian-closed-action`` and ``charge-closed-action``
verdicts check the same rows against the differential forms: a wrong
diagonal or lowering coefficient fails exactly the verdict that restates
it, and the eigencheck runs on the wrong row too.
"""

from fractions import Fraction

import pytest

from kreinosc import algebra2d
from kreinosc.algebra1d import _eigenvalue
from kreinosc.algebra2d import apply_2d, build_op_2d, closed_form, eigencheck_2d
from kreinosc.sectors import identity_audit, preset_sector

HALF = Fraction(1, 2)

ROW_CHANGES = [
    # (operator, changed column and value, the verdict that must fail)
    ("H", {"diagonal": lambda lam, mu: lam + mu}, "hamiltonian-closed-action"),
    ("H", {"lowering": lambda lam, mu: -lam * mu}, "hamiltonian-closed-action"),
    ("Q", {"diagonal": lambda lam, mu: lam - mu}, "charge-closed-action"),
]

# the two claims the audit reports as failing, with their corrected forms
CORRECTED = {"hamiltonian-bilinear-form", "charge-bilinear-form"}


def failing(verdicts):
    return {v.identity_id for v in verdicts if not v.holds}


def test_closed_form_triples():
    assert closed_form("H", 1, 2) == ((4, 1, 2), (-4, 0, 1))
    assert closed_form("H", 0, "1/2") == ((HALF * 3, 0, HALF), (0, -1, -HALF))
    assert closed_form("Q", "1/2", 3) == ((HALF * 5, HALF, 3),)


@pytest.mark.parametrize("name, change, fails", ROW_CHANGES)
def test_a_wrong_coefficient_fails_the_verdict_that_restates_it(monkeypatch, name, change, fails):
    op = build_op_2d(name)
    states = [n.state for n in preset_sector("vacuum", 3).nodes]
    assert all(eigencheck_2d(op, s) == _eigenvalue(apply_2d, op, s) for s in states)
    monkeypatch.setitem(algebra2d._CLOSED, name, algebra2d._CLOSED[name]._replace(**change))
    assert failing(identity_audit()) == {fails} | CORRECTED
    assert any(eigencheck_2d(op, s) != _eigenvalue(apply_2d, op, s) for s in states)
