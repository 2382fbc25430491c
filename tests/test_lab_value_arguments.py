"""A state or operator argument of another type is a coded domain error.

The planar entry points send their lab-value parameters through the one
helper ``scalars._as_instance``, so a wrong type fails with ``domain`` and
a message naming the parameter, never with a bare AttributeError or an
unhashable-type TypeError.
"""

import pytest

from kreinosc.algebra1d import ladder_state_1d
from kreinosc.algebra2d import (
    apply_2d,
    build_op_2d,
    eigencheck_2d,
    ladder_image,
    omega,
    psi0,
    states_proportional,
)
from kreinosc.errors import DomainError
from kreinosc.sectors import classify_limit, generate_sector

H = build_op_2d("H")
BAD = [None, [], "x", 1.5, {}, ladder_state_1d(1, 0)[0]]
IDS = ["None", "list", "str", "float", "dict", "State1D"]

# (call with the bad value in one parameter, the parameter's name, its type)
CASES = [
    (lambda x: ladder_image("b_pp", x), "s", "State2D"),
    (lambda x: generate_sector(x, ("b_pp",), 2), "seed", "State2D"),
    (lambda x: states_proportional(x, psi0()), "a", "State2D"),
    (lambda x: states_proportional(psi0(), x), "b", "State2D"),
    (lambda x: eigencheck_2d(H, x), "s", "State2D"),
    (lambda x: eigencheck_2d(x, psi0()), "op", "DiffOp2D"),
    (lambda x: apply_2d(x, psi0()), "op", "DiffOp2D"),
    (lambda x: apply_2d(H, x), "s", "State2D"),
    (lambda x: classify_limit(x), "s", "State2D"),
]
CASE_IDS = [
    "ladder_image-s", "generate_sector-seed", "states_proportional-a",
    "states_proportional-b", "eigencheck_2d-s", "eigencheck_2d-op", "apply_2d-op",
    "apply_2d-s", "classify_limit-s",
]


@pytest.mark.parametrize("bad", BAD, ids=IDS)
@pytest.mark.parametrize("call, name, kind", CASES, ids=CASE_IDS)
def test_a_lab_value_of_another_type_is_a_domain_error_naming_it(call, name, kind, bad):
    with pytest.raises(DomainError) as err:
        call(bad)
    assert err.value.code == "domain"
    assert str(err.value).startswith("%s must be a %s, got " % (name, kind))


def test_well_typed_calls_are_unchanged():
    s = omega(1, 2)
    assert ladder_image("b_mp", s) == omega(1, 1, 0, 0).scaled(2)
    assert states_proportional(s.scaled(3), s) is not None
    assert eigencheck_2d(H, s) is None
    assert eigencheck_2d(H, psi0()) == 1
    assert apply_2d(H, psi0()) == psi0()
    assert classify_limit(omega(0, 0, lam_slope=1)) == "ordinary"
    assert len(generate_sector(psi0(), ("b_pp",), 2).nodes) == 3
