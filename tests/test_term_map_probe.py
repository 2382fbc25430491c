"""Every term-map constructor refuses a malformed input with a coded error.

The probe sends ill-typed keys, coefficients and term lists to the
constructors of the two scalar rings and of the line and planar states and
operators.  Each call must raise a ``domain`` error within three seconds:
no uncoded exception escapes, no wrong value is built and no call hangs.
The alarm runs in this process; the probe starts no thread or process.
"""

import signal
from fractions import Fraction

import pytest

from kreinosc import (
    DiffOp1D,
    DiffOp2D,
    DomainError,
    EpsScalar,
    GradedScalar,
    Monomial2D,
    State1D,
    State2D,
)

# (constructor, argument, id); each call must raise DomainError
CASES = [
    (GradedScalar, {"x": 1}, "graded-str-key"),
    (GradedScalar, {None: 1}, "graded-none-key"),
    (GradedScalar, {(0,): 1}, "graded-short-key"),
    (GradedScalar, {(0, 0, 0): 1}, "graded-long-key"),
    (GradedScalar, {(1.5, 0): 1}, "graded-float-grade"),
    (GradedScalar, {(0, 0): None}, "graded-none-coeff"),
    (GradedScalar, {(0, 0): 1.5}, "graded-float-coeff"),
    (GradedScalar, [1, 2], "graded-int-terms"),
    (GradedScalar, 5, "graded-non-iterable"),
    (GradedScalar, "ab", "graded-str-terms"),
    (EpsScalar, {3: 1}, "eps-dict"),
    (EpsScalar, {0: 5, 1: 7}, "eps-dense-dict"),
    (EpsScalar, "12", "eps-str"),
    (EpsScalar, b"12", "eps-bytes"),
    (EpsScalar, 5, "eps-int"),
    (EpsScalar, None, "eps-none"),
    (EpsScalar, [None], "eps-none-coeff"),
    (EpsScalar, ["x"], "eps-str-coeff"),
    (EpsScalar, (1.5,), "eps-float-coeff"),
    (State1D, [1, 2], "line-int-terms"),
    (State1D, [(1, 2, 3)], "line-long-term"),
    (State1D, {None: 1}, "line-none-key"),
    (State1D, {"x": 1}, "line-str-key"),
    (State1D, {(1, 2): 1}, "line-tuple-key"),
    (State1D, {1: None}, "line-none-coeff"),
    (State1D, 5, "line-non-iterable"),
    (State2D, {None: 1}, "plane-none-key"),
    (State2D, {(0, 0, 0): 1}, "plane-short-key"),
    (State2D, {(0, 0, 0, 0, 0): 1}, "plane-long-key"),
    (State2D, {("a", 0, 0, 0): 1}, "plane-str-exponent"),
    (State2D, {(0, 2, 0, 0): 1}, "plane-slope-2"),
    (State2D, {(0, 0, 0, 0): "x"}, "plane-str-coeff"),
    (State2D, [1], "plane-int-terms"),
    (State2D, [(Monomial2D("a", 0, 0, 0), 1)], "monomial-str-exponent"),
    (State2D, [(Monomial2D(None, 0, 0, 0), 1)], "monomial-none-exponent"),
    (State2D, [(Monomial2D(0, 2, 0, 0), 1)], "monomial-slope-2"),
    (State2D, [(Monomial2D(0, 0, 0, 0.5), 1)], "monomial-float-slope"),
    (State2D, [(Monomial2D(0, True, 0, 0), 1)], "monomial-bool-slope"),
    (DiffOp1D, {5: 1}, "line-op-int-key"),
    (DiffOp1D, {None: 1}, "line-op-none-key"),
    (DiffOp1D, {(0,): 1}, "line-op-short-key"),
    (DiffOp1D, {(0, -1): 1}, "line-op-negative-order"),
    (DiffOp1D, {(0, 1.5): 1}, "line-op-float-order"),
    (DiffOp1D, {(0, 0): None}, "line-op-none-coeff"),
    (DiffOp1D, [1, 2], "line-op-int-terms"),
    (DiffOp2D, {None: 1}, "plane-op-none-key"),
    (DiffOp2D, {(0, 0, 0): 1}, "plane-op-short-key"),
    (DiffOp2D, {(0, 0, 0, 0): "x"}, "plane-op-str-coeff"),
    (DiffOp2D, {(0, 0, 0, 0): EpsScalar((0, 1))}, "plane-op-eps-coeff"),
    (DiffOp2D, 5, "plane-op-non-iterable"),
]

TIME_LIMIT_S = 3


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout("call did not finish within %d s" % TIME_LIMIT_S)


@pytest.mark.parametrize("cls, arg", [c[:2] for c in CASES], ids=[c[2] for c in CASES])
def test_a_malformed_input_raises_domain(cls, arg):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        with pytest.raises(DomainError) as info:
            cls(arg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert info.value.code == "domain"


@pytest.mark.parametrize("cls", [GradedScalar, State1D, State2D, DiffOp1D, DiffOp2D])
def test_a_malformed_term_names_the_class(cls):
    with pytest.raises(DomainError, match="malformed %s term" % cls.__name__):
        cls([1])


@pytest.mark.parametrize("arg", [{3: 1}, "12", 5], ids=["dict", "str", "int"])
def test_eps_coeffs_refusal_names_coeffs(arg):
    with pytest.raises(DomainError, match="coeffs"):
        EpsScalar(arg)


def test_eps_sequences_build_the_same_value():
    want = EpsScalar.affine(1, 2)
    assert want.text() == "1+2*e"
    assert EpsScalar([1, 2]) == EpsScalar(c for c in (1, 2)) == want
    assert EpsScalar() == EpsScalar([]) == EpsScalar.zero()


def test_coded_key_errors_keep_their_messages():
    with pytest.raises(DomainError, match="^eps slopes are restricted to 0 or 1, got 2$"):
        State2D({(0, 2, 0, 0): 1})
    with pytest.raises(DomainError, match="^derivative order must be non-negative$"):
        DiffOp1D({(0, -1): 1})
    with pytest.raises(DomainError, match="^expected a rational, got 'a'$"):
        State2D([(Monomial2D(Fraction(0), 0, "a", 0), 1)])
