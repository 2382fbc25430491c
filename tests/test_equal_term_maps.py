"""Equal term maps decide their ratio with no product.

``_ratio`` returns the coefficients at the lowest key as soon as the two
term dicts are equal, where it used to cross-multiply at every key to find
that out.  Closure meets this case when a ladder image lands on a raw
node that it equals, whose deformed lead (like -1+e) leaves it non-monic.
The pair must be the one the cross-multiplication loop returns: the same
objects, so the same values and stored layout, and so the same quotient
once ``states_proportional`` divides it.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from kreinosc.algebra1d import State1D, _quotient, _ratio
from kreinosc.algebra2d import State2D, states_proportional
from kreinosc.cli import _load_sector_source
from kreinosc.scalars import EpsScalar, GradedScalar


def _cross_multiplied(a, b):
    """The loop _ratio runs on term maps that are not equal."""
    if a._terms.keys() != b._terms.keys():
        return None
    k0 = min(a._terms)
    num, den = a._terms[k0], b._terms[k0]
    for key, c in a._terms.items():
        if c * den != b._terms[key] * num:
            return None
    return num, den


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
_graded = st.lists(
    st.builds(GradedScalar.monomial, _rationals, st.integers(0, 1), st.integers(-3, 3)),
    min_size=1,
    max_size=3,
).map(sum).filter(bool)
_eps = st.lists(_graded, min_size=1, max_size=3).map(EpsScalar).filter(bool)
_halves = st.integers(-4, 6).map(lambda k: Fraction(k, 2))
_line = st.lists(st.tuples(_halves, _graded), min_size=1, max_size=4).map(State1D).filter(bool)
_planar_keys = st.tuples(_halves, st.integers(0, 1), _halves, st.integers(0, 1))
_planar = (
    st.lists(st.tuples(_planar_keys, _eps), min_size=1, max_size=3).map(State2D).filter(bool)
)


def _twin(s):
    """A second map of s's class with an equal term dict, built in reverse order."""
    return type(s)(list(reversed(list(s._terms.items()))))


def _layout(v) -> list:
    """The stored terms in order, coefficients' own terms included."""
    return [(k, _layout(c) if hasattr(c, "_terms") else c) for k, c in v._terms.items()]


def _check_equal_maps(a):
    b = _twin(a)
    assert a._terms == b._terms and a._terms is not b._terms
    got, want = _ratio(a, b), _cross_multiplied(a, b)
    assert got is not None and got[0] is want[0] and got[1] is want[1]
    assert [_layout(x) for x in got] == [_layout(x) for x in want]


@settings(max_examples=50, deadline=None)
@given(_line)
def test_a_line_twin_gives_the_cross_multiplied_pair(a):
    _check_equal_maps(a)
    q = _quotient(a, _twin(a))
    assert q == 1 and _layout(q) == _layout(GradedScalar.one())


@settings(max_examples=50, deadline=None)
@given(_planar)
def test_a_planar_twin_gives_the_cross_multiplied_pair(a):
    _check_equal_maps(a)
    got = states_proportional(a, _twin(a))
    assert got == (EpsScalar.one(), EpsScalar.one())
    assert [_layout(x) for x in got] == [_layout(EpsScalar.one())] * 2


@settings(max_examples=50, deadline=None)
@given(_planar, _eps)
def test_a_scaled_planar_state_still_cross_multiplies(a, c):
    b = State2D([(k, v * c) for k, v in a._terms.items()])
    assert _ratio(b, a) == _cross_multiplied(b, a)
    assert [_layout(x) for x in _ratio(b, a)] == [_layout(x) for x in _cross_multiplied(b, a)]


def test_closing_an_eps_sector_makes_fewer_eps_products(monkeypatch):
    calls = {"products": 0}
    mul = EpsScalar.__mul__

    def counted_mul(x, y):
        calls["products"] += 1
        return mul(x, y)

    monkeypatch.setattr(EpsScalar, "__mul__", counted_mul)
    _load_sector_source("eps:-1", 6)
    # 484 with the cross-multiplication of equal maps and the product at the monic
    # top key; tests/test_monomial_division.py pins the 335 try_div calls beside it
    assert calls == {"products": 349}
