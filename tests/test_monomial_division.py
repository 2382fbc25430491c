"""A one-term graded value divided by a one-term graded value.

``GradedScalar.try_div`` writes q1/q2 * 2^((j1-j2)/2) * pi^((k1-k2)/2)
down directly instead of running the long division in powers of sqrt(pi)
over Q(sqrt(2)).  Sector closure inverts each node's lead this way, so
closing a sector divides nothing in Q(sqrt(2)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from kreinosc import scalars
from kreinosc.cli import _load_sector_source
from kreinosc.scalars import GradedScalar, _long_div, _sqrt2_field_div

RATIONALS = (Fraction(-3), Fraction(-2, 3), Fraction(1, 2), Fraction(5, 7), Fraction(4))
MONOMIALS = [
    GradedScalar.monomial(q, j, k) for q, j, k in product(RATIONALS, (0, 1), range(-3, 4))
]


def _long_quotient(x: GradedScalar, y: GradedScalar) -> GradedScalar:
    """x/y by the general path of try_div: long division in powers of sqrt(pi)."""
    quot = _long_div(x._in_y(), y._in_y(), _sqrt2_field_div, laurent=True)
    return x._like(
        {(j, k): q for k, c in quot.items() for (j, _), q in sorted(c._terms.items())}
    )


def test_a_monomial_quotient_is_the_long_division():
    for x in MONOMIALS:
        for y in MONOMIALS:
            q = x.try_div(y)
            expected = _long_quotient(x, y)
            assert q == expected
            assert list(q._terms.items()) == list(expected._terms.items())
            assert q * y == x


def test_closing_sectors_divides_nothing_in_the_sqrt2_field(monkeypatch):
    calls = {"quotients": 0, "monomial": 0, "field": 0}
    try_div = GradedScalar.try_div

    def counted_try_div(x, y):
        calls["quotients"] += 1
        calls["monomial"] += len(x._terms) == 1 and len(y._terms) == 1
        return try_div(x, y)

    def counted_field_div(x, y):
        calls["field"] += 1
        return _sqrt2_field_div(x, y)

    monkeypatch.setattr(GradedScalar, "try_div", counted_try_div)
    monkeypatch.setattr(scalars, "_sqrt2_field_div", counted_field_div)
    for spec, depth in (("half-zbar", 10), ("vacuum", 10), ("half-z", 8), ("eps:-1", 6)):
        _load_sector_source(spec, depth)
    # the long division made 335 field divisions here
    assert calls == {"quotients": 335, "monomial": 335, "field": 0}
