"""Grades of graded scalars and eps slopes of planar states are counts.

A grade j or k of q * 2^(j/2) * pi^(k/2), and an eps slope of a planar
monomial, is an int and not a bool, as the counts of test_count_inputs.py
are: a float, a text or a bool is refused with a coded ``domain`` error
rather than truncated, parsed or read as 0 or 1.
"""

import pytest

from kreinosc import DomainError
from kreinosc.algebra2d import State2D, omega
from kreinosc.scalars import GradedScalar

SLOPE_CALLS = [
    ("omega-lam", lambda s: omega(1, 0, lam_slope=s)),
    ("omega-mu", lambda s: omega(0, 1, mu_slope=s)),
    ("State2D", lambda s: State2D({(0, s, 0, 0): 1})),
]

GRADE_CALLS = [
    ("monomial-j", "grade j", lambda g: GradedScalar.monomial(1, g, 0)),
    ("monomial-k", "grade k", lambda g: GradedScalar.monomial(1, 0, g)),
    ("GradedScalar", "grade j", lambda g: GradedScalar({(g, 0): 1})),
    ("coefficient-j", "grade j", lambda g: GradedScalar.sqrt2().coefficient(g, 0)),
    ("coefficient-k", "grade k", lambda g: GradedScalar.pi().coefficient(0, g)),
]


@pytest.mark.parametrize("call", [c for _, c in SLOPE_CALLS], ids=[i for i, _ in SLOPE_CALLS])
@pytest.mark.parametrize("value", [1.7, "1", True])
def test_an_eps_slope_that_is_no_int_is_refused(call, value):
    with pytest.raises(DomainError) as exc:
        call(value)
    assert exc.value.code == "domain"
    assert str(exc.value) == "eps slope must be an integer, got %r" % (value,)


@pytest.mark.parametrize("call", [c for _, c in SLOPE_CALLS], ids=[i for i, _ in SLOPE_CALLS])
def test_an_int_slope_outside_zero_and_one_is_refused(call):
    with pytest.raises(DomainError, match="restricted to 0 or 1, got 2"):
        call(2)


@pytest.mark.parametrize(
    "name, call", [c[1:] for c in GRADE_CALLS], ids=[c[0] for c in GRADE_CALLS]
)
@pytest.mark.parametrize("value", [2.5, "1", True])
def test_a_grade_that_is_no_int_is_refused(name, call, value):
    with pytest.raises(DomainError) as exc:
        call(value)
    assert exc.value.code == "domain"
    assert str(exc.value) == "%s must be an integer, got %r" % (name, value)


def test_int_grades_and_slopes_still_build():
    assert GradedScalar.monomial(3, 2, 1) == GradedScalar.monomial(6, 0, 1)
    assert GradedScalar.monomial(1, 3, 0).coefficient(1, 0) == 2
    assert omega(1, 0, lam_slope=1).has_slopes()
    assert not omega(1, 0, lam_slope=0).has_slopes()
