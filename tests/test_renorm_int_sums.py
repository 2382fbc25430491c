"""renorm_inner's int sums, its argument check, and the work they save.

``renorm_inner`` keeps its pole and finite sums as an int numerator and
denominator per unit 2^(j/2)*pi^(k/2): one-term factors multiply on the
int forms that each state's pairing index and each cached moment carry,
and anything else is formed in the ring and added term by term.  Each
state below forces one case of that sum; the value, the order of its
stored terms and every error must be those of the double-loop reference.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from test_pairing import outcome

from kreinosc import algebra2d, scalars
from kreinosc.algebra1d import ladder_state_1d
from kreinosc.algebra2d import State2D, _matched, inner_2d, omega, psi0, renorm_inner
from kreinosc.cli import _load_sector_source
from kreinosc.errors import DomainError, LabError
from kreinosc.scalars import EpsScalar, GradedScalar

from _oracles import reference_renorm_inner

HALF = Fraction(1, 2)
R2 = GradedScalar.sqrt2()
EPS = EpsScalar((0, 1))  # eps: no eps^0 term


def _assert_matches_reference(f, g) -> object:
    """renorm_inner(f, g), cold and with both indices warm, against the reference."""
    expected = outcome(reference_renorm_inner, f, g)
    assert outcome(renorm_inner, f, g) == expected
    assert outcome(renorm_inner, f, g) == expected
    return expected


def test_a_unit_that_cancels_mid_sum_comes_back_last():
    # units pi, pi^(3/2)/2, -pi (cancels the first), 2*pi
    f = State2D({(0, 0, 0, 0): 1, (HALF, 0, HALF, 0): 1, (1, 0, 1, 0): -1, (2, 0, 2, 0): 1})
    g = omega(0, 0)
    assert _assert_matches_reference(f, g) == [((0, 3), HALF), ((0, 2), Fraction(2))]
    _assert_matches_reference(g, f)


def test_mixed_denominators_sum_over_their_lcm():
    f = State2D({(0, 0, 0, 0): Fraction(1, 3), (1, 0, 1, 0): Fraction(-1, 5),
                 (2, 0, 2, 0): Fraction(1, 6), (3, 0, 3, 0): Fraction(7, 10)})
    g = State2D({(0, 0, 0, 0): Fraction(2, 7)})
    # 2/7 * (1/3 - 1/5 + 2 * 1/6 + 6 * 7/10) pi, over denominators 21, 35, 21 and 35
    assert _assert_matches_reference(f, g) == [((0, 2), Fraction(4, 3))]
    _assert_matches_reference(g, f)


def test_a_sum_coefficient_among_one_term_ones():
    f = State2D({(0, 0, 0, 0): 1 + R2, (HALF, 0, HALF, 0): R2, (1, 0, 1, 0): Fraction(1, 2)})
    # (1 + 2^(1/2)) * (2^(1/2) - 1) = 1: a product of two sums with one term
    g = State2D({(0, 0, 0, 0): R2 - 1, (HALF, 0, HALF, 0): 3, (1, 0, 1, 0): R2})
    for lhs, rhs in ((f, g), (g, f), (f, f), (g, g)):
        _assert_matches_reference(lhs, rhs)


def test_two_root2_factors_fold_into_the_numerator():
    f = State2D({(0, 0, 0, 0): R2, (1, 0, 1, 0): 3 * R2})
    g = State2D({(0, 0, 0, 0): -R2})
    assert _assert_matches_reference(f, g) == [((0, 2), Fraction(-8))]


@pytest.fixture
def root2_moments(monkeypatch):
    """Moments of 2^(1/2)*pi*gamma, in the lab and in the reference alike."""
    pi = GradedScalar({(1, 2): 1})
    monkeypatch.setattr(scalars, "GS_PI", pi)
    monkeypatch.setattr(algebra2d, "GS_PI", pi)
    algebra2d._moment.cache_clear()
    yield
    algebra2d._moment.cache_clear()


def test_three_root2_factors_fold_one_pair(root2_moments):
    f = State2D({(0, 0, 0, 0): R2, (1, 0, 1, 0): 1, (HALF, 0, HALF, 0): R2 * Fraction(1, 3)})
    g = State2D({(0, 0, 0, 0): R2, (1, 0, 1, 0): Fraction(1, 4)})
    assert algebra2d._moment(0, 0)[1] == (1, 2, 1, 1)
    assert _assert_matches_reference(f, g) == [
        ((1, 2), Fraction(5, 2)),  # 2*2^(1/2)*pi (three root-2 factors) + 2^(1/2)*pi/2
        ((0, 2), Fraction(5, 2)),  # pi/2 + 2*pi, two root-2 factors each
        ((1, 3), Fraction(1, 3)),  # three root-2 factors and a half-odd moment
        ((0, 3), Fraction(1, 8)),
    ]
    _assert_matches_reference(g, f)


def test_shifts_of_one_half_and_one():
    pole = State2D({(-1, 1, 0, 0): 1, (-2, 1, -1, 0): Fraction(1, 3)}, HALF)
    regular = State2D({(0, 1, 1, 0): 2, (-1, 1, 0, 0): Fraction(1, 5)}, HALF)
    states = [pole, regular, pole.with_renorm(0), regular.with_renorm(0)]
    shifts = Counter()
    for f in states:
        for g in states:
            shifts[f.renorm_power + g.renorm_power] += 1
            _assert_matches_reference(f, g)
    assert set(shifts) == {0, HALF, 1}
    # the pole total pi/5 + 2*pi/3 - pi/15, shifted to eps^0; the regular pair drops out
    assert renorm_inner(pole, regular).text() == "4/5*pi"


def test_a_pole_moment_without_an_eps0_product_adds_its_eps1_part():
    f = State2D({(-1, 1, 0, 0): EPS, (0, 1, 1, 0): 1, (-2, 1, -1, 0): EPS + 2 * R2})
    g = State2D({(-1, 1, 0, 0): 1 + EPS, (0, 1, 1, 0): Fraction(1, 3) * EPS})
    for lhs, rhs in ((f, g), (g, f), (f, f), (g, g)):
        _assert_matches_reference(lhs, rhs)
    only_eps1 = State2D({(-1, 1, 0, 0): EPS})
    assert renorm_inner(only_eps1, omega(-1, 0, lam_slope=1)).text() == "1*pi"


def test_divergent_and_digamma_errors_are_the_references():
    divergent = omega(-1, 0, lam_slope=1)
    digamma = State2D({(-1, 1, 0, 0): 1, (-2, 1, -1, 0): 1})
    quarter = omega(0, 0) + omega(Fraction(1, 4), Fraction(1, 4))
    cases = [(divergent, divergent), (digamma, divergent), (divergent, digamma), (quarter, quarter)]
    codes = set()
    for f, g in cases:
        got = _assert_matches_reference(f, g)
        codes.add(got[1])
    assert codes == {"not-convergent", "domain"}


# ---------------------------------------------------------------------------
# the work saved


def _one_term_pairs() -> list:
    """Pairs of sector nodes whose eps^0 coefficients are all one term, warm."""
    states = [
        n.state
        for spec in ("half-zbar", "half-z", "eps:-1", "vacuum")
        for n in _load_sector_source(spec, 2).nodes
    ]
    states = [s for s in states if all(len(c.coeff(0)._terms) == 1 for c in s._terms.values())]
    pairs = []
    for f in states:
        for g in states:
            try:
                renorm_inner(f, g)
            except LabError:
                continue
            if _matched(f, g):
                pairs.append((f, g))
    return pairs


def _counted(calls: Counter, name: str, original):
    def counted(*args):
        calls[name] += 1
        return original(*args)

    return counted


def test_a_warm_one_term_pairing_does_no_fraction_or_ring_arithmetic(monkeypatch):
    pairs = _one_term_pairs()
    assert len(pairs) > 80
    # half-odd exponents too: their exponent sums are ints in the index
    assert any(lam.denominator == 2 for f, _ in pairs for lam, _, _, _ in f._terms)
    assert all(type(e[1]) is int for f, _ in pairs for e in f._pairing()[0])
    assert {f.renorm_power + g.renorm_power for f, g in pairs} == {0, 1}
    calls = Counter()
    for cls, names in (
        (Fraction, ("__add__", "__radd__", "__mul__", "__rmul__")),
        (GradedScalar, ("__add__", "__mul__")),
    ):
        for name in names:
            label = cls.__name__ + "." + name
            monkeypatch.setattr(cls, name, _counted(calls, label, getattr(cls, name)))
    for f, g in pairs:
        renorm_inner(f, g)
    assert calls == Counter()


def test_every_int_form_rebuilds_its_coefficient():
    forms = 0
    for spec in ("half-zbar", "eps:-1", "eps-conj:-2", "omega:1/2,3"):
        for n in _load_sector_source(spec, 2).nodes:
            for _, _, _, c, x in n.state._pairing()[0]:
                c0 = c.coeff(0)
                if x is None:
                    assert len(c0._terms) > 1
                    continue
                j, k, num, den = x
                assert GradedScalar.monomial(Fraction(num, den), j, k) == c0
                forms += 1
    assert forms > 50
    for twice in range(-4, 8):
        for slopes in (0, 1, 2):
            try:
                val, x = algebra2d._moment(twice, slopes)
            except LabError:
                continue
            j, k, num, den = x
            part = val.pole if val.finite is None else val.finite
            assert GradedScalar.monomial(Fraction(num, den), j, k) == part


# ---------------------------------------------------------------------------
# the argument check


@pytest.mark.parametrize("bad", [None, [], "x", 1.5, {}, ladder_state_1d(1, 0)[0]],
                         ids=["None", "list", "str", "float", "dict", "State1D"])
@pytest.mark.parametrize("pairing", [inner_2d, renorm_inner])
def test_a_pairing_refuses_a_non_state_naming_the_parameter(pairing, bad):
    for args, name in (((bad, psi0()), "f"), ((psi0(), bad), "g"), ((bad, bad), "f")):
        with pytest.raises(DomainError) as err:
            pairing(*args)
        assert err.value.code == "domain"
        assert str(err.value).startswith("%s must be a State2D, got " % name)
