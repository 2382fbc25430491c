"""The closed forms of the six planar operators in algebra2d._CLOSED are stated once.

``eigencheck_2d`` reads the images of H and Q from that table, closure and
the dark scan the images of the ladder generators, and the identity
audit's ``hamiltonian-closed-action``, ``charge-closed-action`` and
``ladder-closed-action`` verdicts check the same rows against the
differential forms: a wrong coefficient fails exactly the verdict that
restates it, and the lab builds its images from the wrong row too.
"""

from fractions import Fraction

import pytest

from kreinosc import algebra2d
from kreinosc.algebra1d import _eigenvalue
from kreinosc.algebra2d import (
    apply_2d,
    build_op_2d,
    closed_form,
    eigencheck_2d,
    ladder_closed_form,
    ladder_image,
    psi0,
)
from kreinosc.errors import DomainError
from kreinosc.sectors import identity_audit, preset_sector

HALF = Fraction(1, 2)


def changed(name, i, f):
    """_CLOSED[name] with the coefficient of its term i replaced by f(lam, ls, mu, ms)."""
    row = list(algebra2d._CLOSED[name])
    row[i] = row[i][:2] + (f,)
    return tuple(row)


ROW_CHANGES = [
    # (operator, its row with one coefficient changed, the verdict that must fail)
    ("H", changed("H", 0, lambda lam, ls, mu, ms: lam + mu), "hamiltonian-closed-action"),
    ("H", changed("H", 1, lambda lam, ls, mu, ms: -lam * mu), "hamiltonian-closed-action"),
    ("Q", changed("Q", 0, lambda lam, ls, mu, ms: lam - mu), "charge-closed-action"),
    ("b_pp", changed("b_pp", 0, lambda lam, ls, mu, ms: lam), "ladder-closed-action"),
    ("b_mp", changed("b_mp", 0, lambda lam, ls, mu, ms: 2 * mu), "ladder-closed-action"),
]

# the two claims the audit reports as failing, with their corrected forms
CORRECTED = {"hamiltonian-bilinear-form", "charge-bilinear-form"}


def failing(verdicts):
    return {v.identity_id for v in verdicts if not v.holds}


def test_closed_form_triples():
    assert closed_form("H", 1, 2) == ((4, 1, 2), (-4, 0, 1))
    assert closed_form("H", 0, "1/2") == ((HALF * 3, 0, HALF), (0, -1, -HALF))
    assert closed_form("Q", "1/2", 3) == ((HALF * 5, HALF, 3),)
    # the ladder rows are read the same way, zero coefficients kept
    assert closed_form("b_pp", 0, 0) == ((0, -1, 0), (1, 0, 1)) == ladder_closed_form("b_pp", 0, 0)
    assert closed_form("b_pm", 2, 3) == ((-3, 2, 2), (1, 3, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: closed_form("Z", 0, 0), "no closed form for the 2d operator 'Z'"),
        (lambda: closed_form("b++", 0, 0), "no closed form for the 2d operator 'b++'"),
        (lambda: ladder_closed_form("H", 0, 0), "unknown ladder operator 'H'"),
        (lambda: ladder_image("H", psi0()), "unknown ladder operator 'H'"),
    ],
)
def test_a_name_outside_the_table_is_a_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message and err.value.code == "domain"


@pytest.mark.parametrize("name, change, fails", ROW_CHANGES)
def test_a_wrong_coefficient_fails_the_verdict_that_restates_it(monkeypatch, name, change, fails):
    op = build_op_2d(name)
    states = [n.state for n in preset_sector("vacuum", 3).nodes]
    assert all(eigencheck_2d(op, s) == _eigenvalue(apply_2d, op, s) for s in states)
    monkeypatch.setitem(algebra2d._CLOSED, name, change)
    assert failing(identity_audit()) == {fails} | CORRECTED
    if name in algebra2d._LADDER:  # closure raises states by the wrong row
        assert any(ladder_image(name, s) != apply_2d(op, s) for s in states)
    else:
        assert any(eigencheck_2d(op, s) != _eigenvalue(apply_2d, op, s) for s in states)
