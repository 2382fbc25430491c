"""Every public function refuses an ill-typed first argument with a coded error.

The probe sends each of eight values of the wrong type, as the first
argument, to every function of ``kreinosc.__all__`` that takes one, with
valid values for its other parameters.  Each call must return or raise a
``LabError`` within three seconds: no uncoded exception escapes and no call
hangs.  The alarm runs in this process; the probe starts no thread or process.
"""

import inspect
import math
import signal

import pytest

import kreinosc
from kreinosc import LabError, build_op_1d, build_op_2d, preset_sector, psi0, solve_vacuum_1d

BAD = [None, [], "x", True, 1.5, {}, ("a",), math.nan]
BAD_IDS = ["None", "list", "str", "bool", "float", "dict", "tuple", "nan"]

FUNCTIONS = [
    name
    for name in kreinosc.__all__
    if inspect.isfunction(getattr(kreinosc, name))
    and inspect.signature(getattr(kreinosc, name)).parameters
]

LINE, LINE_OP = solve_vacuum_1d(1), build_op_1d("H1")
PLANE, PLANE_OP = psi0(), build_op_2d("H")
LATTICE = preset_sector("vacuum", 1)

# the valid arguments after the first, for each function with a second
# required parameter (or one whose default the probe replaces)
REST = {
    "gamma_laurent": (1,),
    "apply_1d": (LINE,),
    "commutator_1d": (LINE_OP,),
    "compose_1d": (LINE_OP,),
    "eigencheck_1d": (LINE,),
    "inner_1d": (LINE,),
    "ladder_state_1d": (0,),
    "apply_2d": (PLANE,),
    "commutator_2d": (PLANE_OP,),
    "compose_2d": (PLANE_OP,),
    "eigencheck_2d": (PLANE,),
    "inner_2d": (PLANE,),
    "ladder_closed_form": (0, 0),
    "omega": (0,),
    "renorm_inner": (PLANE,),
    "states_proportional": (PLANE,),
    "radial_reduce": (0,),
    "dark_check": (LATTICE, 1),
    "eps_conj_sector": (1,),
    "eps_sector": (1,),
    "generate_sector": (("b_pp",), 1),
    "gram": (0,),
    "lattice_export": ("json",),
    "preset_sector": (1,),
}

TIME_LIMIT_S = 3


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout("call did not finish within %d s" % TIME_LIMIT_S)


def test_the_table_gives_every_required_parameter():
    assert len(FUNCTIONS) == 42
    assert set(REST) <= set(FUNCTIONS)
    for name in FUNCTIONS:
        params = list(inspect.signature(getattr(kreinosc, name)).parameters.values())[1:]
        required = [p for p in params if p.default is inspect.Parameter.empty]
        assert len(REST.get(name, ())) >= len(required), name


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_an_ill_typed_first_argument_returns_or_fails_coded(name, bad):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        getattr(kreinosc, name)(bad, *REST.get(name, ()))
    except LabError as exc:
        assert exc.code != LabError.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
