"""Count and rational parameters of the library are checked, not coerced.

A count (a scan degree, a rung, a bridge depth) is an int and not a bool:
a float or a text is refused rather than truncated or parsed, as a sector
depth is (test_sector_inputs.py).  A rational is a Fraction, an int or
rational text, and a bool is not read as 0 or 1.  Both refusals are coded
``domain`` errors.
"""

import pytest

from kreinosc import DomainError
from kreinosc.algebra1d import build_op_1d, ladder_state_1d, solve_vacuum_1d
from kreinosc.algebra2d import omega
from kreinosc.algebra1d import DiffOp1D
from kreinosc.algebra2d import DiffOp2D
from kreinosc.radial import bridge_audit
from kreinosc.scalars import GradedScalar, gamma_exact
from kreinosc.sectors import dark_check, preset_sector

VACUUM = preset_sector("vacuum", 1)

COUNTS = [
    ("max_degree", lambda n: dark_check(VACUUM, VACUUM, n)),
    ("n", lambda n: ladder_state_1d(1, n)),
    ("n_max", lambda n: bridge_audit(n)),
]


@pytest.mark.parametrize("name, call", COUNTS, ids=[name for name, _ in COUNTS])
@pytest.mark.parametrize("value", [2.5, "2", True])
def test_a_count_that_is_no_int_is_refused(name, call, value):
    with pytest.raises(DomainError) as exc:
        call(value)
    assert exc.value.code == "domain"
    assert str(exc.value) == "%s must be an integer, got %r" % (name, value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: omega(True, 0),
        lambda: gamma_exact(True),
        lambda: solve_vacuum_1d(True),
        lambda: build_op_1d("a_plus", True),
        lambda: GradedScalar.rational(True),
    ],
    ids=["omega", "gamma_exact", "solve_vacuum_1d", "build_op_1d", "GradedScalar.rational"],
)
def test_a_bool_is_no_rational(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.code == "domain"
    assert str(exc.value) == "expected a rational, got True"


# A derivative order in an operator key, or asked of an operator, is a count
# too: 1.7 or True is not D, "2" is not D^2.
ORDERS = [
    ("1.7", lambda: DiffOp1D({(0, 1.7): 1}), 1.7),
    ("True", lambda: DiffOp1D({(0, True): 1}), True),
    ("text", lambda: DiffOp1D({(0, "2"): 1}), "2"),
    ("planar", lambda: DiffOp2D({(0, 0, 1.5, 0): 1}), 1.5),
    ("coefficient", lambda: build_op_1d("H1").coefficient(0, 2.9), 2.9),
]


@pytest.mark.parametrize("call, value", [o[1:] for o in ORDERS], ids=[o[0] for o in ORDERS])
def test_a_derivative_order_that_is_no_int_is_refused(call, value):
    with pytest.raises(DomainError) as exc:
        call()
    assert exc.value.code == "domain"
    assert str(exc.value) == "derivative order must be an integer, got %r" % (value,)


def test_int_derivative_orders_still_read():
    assert DiffOp1D({(0, 2): 1}).text() == "1*D^2"
    assert build_op_1d("H1").coefficient(0, 2) == GradedScalar.rational("-1/2")
