"""An ill-typed second lab value is refused with a coded error naming it.

Each of the eight ill-typed values of the first-argument probe goes, as
the second argument, to every public function whose second parameter is
a state, an operator or a lattice.  Each call runs under a three-second
alarm and must fail with ``domain`` and a message naming that parameter:
a falsy value such as ``None`` or ``[]`` is not reported as a zero state.
"""

import signal

import pytest
from test_public_argument_probe import BAD, BAD_IDS, LATTICE, LINE, LINE_OP, PLANE, PLANE_OP
from test_public_argument_probe import TIME_LIMIT_S, _raise_timeout

import kreinosc
from kreinosc import LabError

# function -> (valid first argument, name of the second parameter, its type)
CASES = {
    "apply_1d": (LINE_OP, "s", "State1D"),
    "eigencheck_1d": (LINE_OP, "s", "State1D"),
    "compose_1d": (LINE_OP, "g", "DiffOp1D"),
    "commutator_1d": (LINE_OP, "g", "DiffOp1D"),
    "inner_1d": (LINE, "g", "State1D"),
    "apply_2d": (PLANE_OP, "s", "State2D"),
    "eigencheck_2d": (PLANE_OP, "s", "State2D"),
    "compose_2d": (PLANE_OP, "g", "DiffOp2D"),
    "commutator_2d": (PLANE_OP, "g", "DiffOp2D"),
    "inner_2d": (PLANE, "g", "State2D"),
    "renorm_inner": (PLANE, "g", "State2D"),
    "states_proportional": (PLANE, "b", "State2D"),
    "dark_check": (LATTICE, "b", "SectorLattice"),
}


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_an_ill_typed_second_argument_is_a_domain_error_naming_it(name, bad):
    first, param, kind = CASES[name]
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        with pytest.raises(LabError) as err:
            getattr(kreinosc, name)(first, bad)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert err.value.code == "domain"
    assert str(err.value).startswith("%s must be a %s, got " % (param, kind))
