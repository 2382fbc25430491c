"""The statements no other test runs: operands the arithmetic refuses and two
domain errors.

A product or sum with an operand of a foreign type returns NotImplemented,
so Python raises TypeError.  A zero line state has no least exponent, and
the evaluator refuses a node that is not an expression node even when the
rest of the expression names an operator.
"""

import pytest

from kreinosc import DiffOp1D, DiffOp2D, EpsScalar, LabError, LaurentValue, State1D
from kreinosc.opexpr import NameLeaf, Sum, eval_expr

FOREIGN = [
    (lambda: DiffOp1D.identity() * 2, "line-operator-times-int"),
    (lambda: DiffOp2D.identity() * 2, "planar-operator-times-int"),
    (lambda: EpsScalar.one() * "x", "eps-times-text"),
    (lambda: LaurentValue.zero() + 1, "laurent-plus-int"),
]


@pytest.mark.parametrize("call", [c for c, _ in FOREIGN], ids=[i for _, i in FOREIGN])
def test_a_foreign_operand_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_the_zero_line_state_has_no_least_exponent():
    with pytest.raises(LabError) as err:
        State1D().min_exponent()
    assert err.value.code == "domain"
    assert "zero state has no exponents" in str(err.value)


def test_the_evaluator_refuses_a_foreign_node_in_a_sum():
    with pytest.raises(LabError) as err:
        eval_expr(Sum(((1, NameLeaf("H")), (1, object()))))
    assert err.value.code == "domain"
    assert "not an expression node" in str(err.value)
