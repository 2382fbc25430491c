"""Every public method of every exported class runs on a sample value.

The probe finds the public methods of each class in ``kreinosc.__all__`` by
introspection and calls each on a sample with well-typed arguments, so a
method that no other test reaches cannot crash unnoticed.  The operands of
``LaurentValue``'s methods are checked as well: an ill-typed one is refused
with a ``domain`` error that names the parameter.  So are ``EpsScalar.coeff``'s
power and a bool factor of an ``EpsScalar`` product.
"""

import inspect
from fractions import Fraction

import pytest

import kreinosc
from kreinosc import (
    DomainError,
    EpsScalar,
    GradedScalar,
    LaurentValue,
    Monomial2D,
    OpSyntaxError,
    build_op_1d,
    build_op_2d,
    preset_sector,
    psi0,
    solve_vacuum_1d,
)

LATTICE = preset_sector("vacuum", 1)
GS = GradedScalar({(0, 0): 1, (1, 1): Fraction(-2, 3)})
EPS = EpsScalar.affine(-1, GS)

SAMPLES = {
    "EpsScalar": EPS,
    "GradedScalar": GS,
    "LaurentValue": LaurentValue.exact(GradedScalar.sqrt_pi()),
    "DiffOp1D": build_op_1d("H1"),
    "State1D": solve_vacuum_1d(1),
    "DiffOp2D": build_op_2d("H"),
    "Monomial2D": Monomial2D(1, 0, 2, 0),
    "State2D": psi0(),
    "Edge": LATTICE.edges[0],
    "Node": LATTICE.nodes[0],
    "SectorLattice": LATTICE,
    "OpSyntaxError": OpSyntaxError("sample", 0),
}

# the arguments of each method that takes any
ARGS = {
    "EpsScalar.affine": (1, GS),
    "EpsScalar.coeff": (1,),
    "EpsScalar.of": (GS,),
    "EpsScalar.scaled": (Fraction(1, 2),),
    "EpsScalar.try_div": (EpsScalar.of(2),),
    "GradedScalar.coefficient": (1, 1),
    "GradedScalar.monomial": (3, 1, -2),
    "GradedScalar.rational": (Fraction(1, 3),),
    "GradedScalar.scaled": (2,),
    "GradedScalar.try_div": (GradedScalar.sqrt2(),),
    "LaurentValue.exact": (GS,),
    "LaurentValue.shifted": (Fraction(1),),
    "LaurentValue.times_eps_poly": (EPS,),
    "LaurentValue.times_scalar": (GS,),
    "DiffOp1D.coefficient": (0, 2),
    "DiffOp1D.scaled": (GS,),
    "State1D.power": (Fraction(1, 2), 3, "v"),
    "State1D.scaled": (Fraction(-1, 2),),
    "State1D.with_label": ("w",),
    "DiffOp2D.scaled": (GS,),
    "State2D.scaled": (EPS,),
    "State2D.with_renorm": (Fraction(1, 2),),
    "add_note": ("a note",),
    "with_traceback": (None,),
}

CLASSES = [getattr(kreinosc, n) for n in kreinosc.__all__ if inspect.isclass(getattr(kreinosc, n))]
METHODS = [
    (cls, name)
    for cls in CLASSES
    for name in sorted(dir(cls))
    if not name.startswith("_") and callable(getattr(cls, name))
]


def sample(cls):
    if cls.__name__ not in SAMPLES and issubclass(cls, BaseException):
        return cls("sample")
    return SAMPLES[cls.__name__]


@pytest.mark.parametrize(
    "cls, name", METHODS, ids=["%s.%s" % (c.__name__, n) for c, n in METHODS]
)
def test_public_method_runs(cls, name):
    key = "%s.%s" % (cls.__name__, name)
    args = ARGS.get(key, ARGS.get(name, ()))
    getattr(sample(cls), name)(*args)


def test_every_argument_entry_names_a_method():
    known = {"%s.%s" % (c.__name__, n) for c, n in METHODS} | {n for _, n in METHODS}
    assert set(ARGS) <= known


@pytest.mark.parametrize("value", [GS, EPS, SAMPLES["State1D"], SAMPLES["DiffOp2D"]])
def test_scaled_by_one_and_zero(value):
    assert value.scaled(1) == value
    assert value.scaled(0).is_zero()


def test_graded_scaled_is_the_rational_product():
    assert GradedScalar.rational(1).scaled(2) == GradedScalar.rational(2)
    assert GS.scaled(Fraction(3, 2)) == GS * Fraction(3, 2)
    assert EPS.scaled(GS) == EPS * GS
    with pytest.raises(DomainError):
        GS.scaled(True)


LAURENT = SAMPLES["LaurentValue"]
BAD = [1, Fraction(1, 2), None, "x", 1.5]

OPERANDS = [
    (LaurentValue.exact, "finite", BAD + [EPS]),
    (LAURENT.times_scalar, "g", BAD + [EPS]),
    (LAURENT.times_eps_poly, "c", BAD + [GS]),
]
CALLS = [(f, name, bad) for f, name, bads in OPERANDS for bad in bads]
CALL_IDS = ["%s-%s" % (f.__name__, type(b).__name__) for f, _, b in CALLS]


@pytest.mark.parametrize("method, name, bad", CALLS, ids=CALL_IDS)
def test_laurent_operand_refused(method, name, bad):
    with pytest.raises(DomainError, match="^%s must be a " % name) as info:
        method(bad)
    assert info.value.code == "domain"


@pytest.mark.parametrize("bad", [[], 1.5, "x", True, False, None, Fraction(1)], ids=repr)
def test_eps_coeff_refuses_a_power_that_is_not_an_int(bad):
    with pytest.raises(DomainError, match="^power must be an integer") as info:
        EPS.coeff(bad)
    assert info.value.code == "domain"


def test_eps_coeff_reads_int_powers():
    assert (EPS.coeff(0), EPS.coeff(1), EPS.coeff(2), EPS.coeff(2**70)) == (-1, GS, 0, 0)


@pytest.mark.parametrize("flag", [True, False])
def test_eps_product_with_a_bool_is_refused_like_the_graded_one(flag):
    for product in (lambda: EpsScalar.one() * flag, lambda: flag * EpsScalar.one(),
                    lambda: EPS * flag, lambda: GS * flag):
        with pytest.raises(DomainError, match="^expected a rational, got %s$" % flag) as info:
            product()
        assert info.value.code == "domain"
    assert EPS * 0 == 0 and EPS * 1 == EPS and 2 * EPS == EPS + EPS
