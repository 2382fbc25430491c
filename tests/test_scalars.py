"""Exact scalar field, regulator polynomials, Laurent data, gamma."""

import functools
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinosc import (
    DiffOp1D,
    DiffOp2D,
    DomainError,
    EpsScalar,
    GradedScalar,
    IndeterminateSign,
    LaurentValue,
    NotConvergent,
    PoleError,
    State1D,
    State2D,
    dark_check,
    gamma_exact,
    gamma_laurent,
    gamma_numeric,
    gram,
    preset_sector,
    quotient_report,
    scalar_sign,
)
from kreinosc.scalars import _PI_HI, _PI_LO
from kreinosc.scalars import SIGN_BITS, _pi_interval, _put

from _oracles import EPS, eps_to_sympy, gs_to_sympy

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)

_term = st.tuples(
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=-3, max_value=3),
    rationals,
)


def _assemble(ts):
    total = GradedScalar.zero()
    for j, k, q in ts:
        total = total + GradedScalar.monomial(q, j, k)
    return total


graded = st.lists(_term, max_size=4).map(_assemble)
graded_small = st.lists(_term, max_size=2).map(_assemble)

def _assemble_eps(cs):
    total = EpsScalar.zero()
    power = EpsScalar.one()
    e = EpsScalar.affine(0, 1)
    for c in cs:
        total = total + EpsScalar.of(c) * power
        power = power * e
    return total


eps_polys = st.lists(graded_small, max_size=3).map(_assemble_eps)


# -- canonical form ----------------------------------------------------------


def test_even_root_powers_fold_into_rationals():
    assert GradedScalar.monomial(1, 2, 0) == GradedScalar.rational(2)
    assert GradedScalar.monomial(1, 3, 0) == GradedScalar.monomial(2, 1, 0)
    assert GradedScalar.monomial(Fraction(1, 2), -2, 0) == GradedScalar.rational(
        Fraction(1, 4)
    )


def test_zero_coefficient_vanishes():
    assert GradedScalar.monomial(0, 1, 1) == GradedScalar.zero()
    assert not GradedScalar.zero()
    assert GradedScalar.one()


def test_stored_root_exponent_is_reduced():
    v = GradedScalar.monomial(Fraction(3, 4), 5, -3)
    for (j, _k), _q in v.terms():
        assert j in (0, 1)


def test_text_forms():
    assert GradedScalar.monomial(-2, 0, 3).text() == "-2*pi^(3/2)"
    assert GradedScalar.pi().text() == "1*pi"
    assert GradedScalar.sqrt2().text() == "1*2^(1/2)"
    assert GradedScalar.monomial(1, 0, 4).text() == "1*pi^(2)"
    mix = (
        GradedScalar.sqrt2()
        - GradedScalar.pi()
        + GradedScalar.monomial(Fraction(3, 4), 1, 3)
    )
    assert mix.text() == "1*2^(1/2) - 1*pi + 3/4*2^(1/2)*pi^(3/2)"
    assert GradedScalar.zero().text() == "0"


def test_accessors():
    mix = GradedScalar.sqrt2() - GradedScalar.pi()
    assert mix.coefficient(1, 0) == 1
    assert mix.coefficient(0, 2) == -1
    assert mix.coefficient(0, 0) == 0
    assert GradedScalar.rational(Fraction(-7, 3)).as_fraction() == Fraction(-7, 3)
    assert mix.as_fraction() is None


# -- ring laws, cross-checked against sympy ----------------------------------


@given(graded, graded, graded)
def test_addition_is_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + GradedScalar.zero() == a
    assert a - a == GradedScalar.zero()


@given(graded, graded, graded)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a * GradedScalar.one() == a


@settings(max_examples=30, deadline=None)
@given(graded_small, graded_small)
def test_product_matches_sympy(a, b):
    want = sp.expand(gs_to_sympy(a) * gs_to_sympy(b))
    got = gs_to_sympy(a * b)
    assert sp.simplify(got - want) == 0


@settings(deadline=None)
@given(graded)
def test_float_matches_sympy(a):
    want = float(sp.N(gs_to_sympy(a), 30))
    assert math.isclose(float(a), want, rel_tol=1e-12, abs_tol=1e-12)


@given(graded, graded)
def test_exact_division_inverts_multiplication(a, b):
    if not b:
        return
    q = (a * b).try_div(b)
    assert q is not None and q == a


def test_division_failure_returns_none():
    assert GradedScalar.pi().try_div(GradedScalar.one() + GradedScalar.pi()) is None
    with pytest.raises(DomainError):
        GradedScalar.pi().try_div(GradedScalar.zero())


def test_laurent_division_crosses_grades():
    # pi / sqrt(pi) = sqrt(pi), sqrt(2) / 2 = 2^(-1/2)
    q = GradedScalar.pi().try_div(GradedScalar.sqrt_pi())
    assert q == GradedScalar.sqrt_pi()
    q = GradedScalar.sqrt2().try_div(GradedScalar.rational(2))
    assert q == GradedScalar.monomial(1, -1, 0)
    # and through a mixed divisor over the sqrt(2) coefficient field
    d = GradedScalar.one() + GradedScalar.sqrt2()
    a = GradedScalar.pi() - GradedScalar.sqrt_pi()
    assert (a * d).try_div(d) == a


# -- certified sign ----------------------------------------------------------


def test_sign_exact_cases():
    assert scalar_sign(GradedScalar.zero()) == 0
    assert scalar_sign(GradedScalar.sqrt_pi()) == 1
    assert scalar_sign(GradedScalar.monomial(-3, 1, 1)) == -1
    tiny = GradedScalar.monomial(Fraction(1, 10**300), 0, 1)
    assert scalar_sign(tiny) == 1  # same-sign shortcut, no intervals involved


def test_sign_mixed_cases():
    pi = GradedScalar.pi()
    assert scalar_sign(pi - GradedScalar.rational(Fraction(355, 113))) == -1
    assert scalar_sign(GradedScalar.rational(Fraction(355, 113)) - pi) == 1
    assert scalar_sign(GradedScalar.sqrt2() * pi - GradedScalar.rational(4)) == 1
    assert scalar_sign(GradedScalar.rational(2) - GradedScalar.sqrt2()) == 1


def test_sign_indeterminate_when_value_hides_below_pi_resolution():
    # a rational strictly inside the stored enclosure of pi cannot be
    # separated from it, and the sign query must refuse to guess
    q = _PI_LO + (_PI_HI - _PI_LO) / 3
    with pytest.raises(IndeterminateSign):
        scalar_sign(GradedScalar.pi() - GradedScalar.rational(q))


@given(graded)
def test_sign_agrees_with_float_when_clearly_nonzero(a):
    x = float(a)
    if abs(x) < 1e-6:
        return
    assert scalar_sign(a) == (1 if x > 0 else -1)


# -- regulator polynomials ---------------------------------------------------


def test_eps_basics():
    e = EpsScalar.affine(0, 1)
    assert EpsScalar.affine(2, -1).text() == "2-e"
    assert EpsScalar.affine(-1, 1).text() == "-1+e"
    assert (e * e).text() == "e^2"
    assert EpsScalar.zero().text() == "0"
    assert EpsScalar.one().text() == "1"
    two_minus = EpsScalar.affine(2, -1)
    assert two_minus.degree() == 1
    assert two_minus.coeff(0) == GradedScalar.rational(2)
    assert two_minus.coeff(1) == GradedScalar.rational(-1)
    assert two_minus.coeff(5) == GradedScalar.zero()
    assert two_minus.eval0() == GradedScalar.rational(2)
    assert two_minus.as_fraction() is None
    assert EpsScalar.of(Fraction(5, 2)).as_fraction() == Fraction(5, 2)
    assert two_minus.is_affine_rational()
    assert not (e * e).is_affine_rational()
    assert not EpsScalar.of(GradedScalar.sqrt2()).is_affine_rational()


@given(eps_polys, eps_polys, eps_polys)
def test_eps_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == EpsScalar.zero()


@settings(max_examples=30, deadline=None)
@given(eps_polys, eps_polys)
def test_eps_product_matches_sympy(a, b):
    want = sp.expand(eps_to_sympy(a) * eps_to_sympy(b))
    assert sp.simplify(eps_to_sympy(a * b) - want) == 0


@given(eps_polys, eps_polys)
def test_eps_division_inverts_multiplication(a, b):
    if b == EpsScalar.zero():
        return
    q = (a * b).try_div(b)
    assert q is not None and q == a


def test_eps_division_failure():
    e = EpsScalar.affine(0, 1)
    assert e.try_div(EpsScalar.affine(1, 1)) is None


def test_eps_division_fails_where_a_coefficient_does_not_divide():
    # the leading coefficients pi and 1 + sqrt(pi) have no exact quotient
    num = EpsScalar.of(GradedScalar.pi())
    den = EpsScalar.of(GradedScalar.one() + GradedScalar.sqrt_pi())
    assert num.try_div(den) is None


def test_shared_long_division_edges():
    e = EpsScalar.affine(0, 1)
    # a polynomial quotient may not shift below eps^0 ...
    assert EpsScalar.one().try_div(e) is None
    assert (e * e).try_div(e) == e
    # ... a Laurent quotient in sqrt(pi) may
    inv = GradedScalar.one().try_div(GradedScalar.sqrt_pi())
    assert inv == GradedScalar.monomial(1, 0, -1) and inv.text() == "1*pi^(-1/2)"
    # the coefficients divide in the field Q(sqrt 2)
    r2 = GradedScalar.sqrt2()
    assert GradedScalar.one().try_div(1 + r2) == r2 - 1


def test_quotient_float_keeps_its_last_bit():
    # __float__ sums in dict order, and a quotient lists j = 0 before j = 1
    # at each power of sqrt(pi); the other order ends one ulp away
    a = GradedScalar({(0, 0): -2, (0, 3): 1, (1, -3): 1})
    b = GradedScalar({(0, 1): 4, (1, 1): 10})
    c = GradedScalar({(1, 2): Fraction(-5, 2), (1, 0): 3})
    assert float((a * b * c + a).try_div(b)) == -26.119583465202542


def test_eps_sort_key_is_dense():
    e = EpsScalar.affine(0, 1)
    one, zero = GradedScalar.one(), GradedScalar.zero()
    gap = 1 + e * e
    assert gap.sort_key() == (one.sort_key(), zero.sort_key(), one.sort_key())
    assert sorted([1 + e, gap], key=EpsScalar.sort_key) == [gap, 1 + e]
    assert EpsScalar.zero().sort_key() == (zero.sort_key(),)


def test_scalar_classes_keep_what_the_bench_tracer_patches():
    # bench/tracer.py wraps these through each class's own __dict__ (and
    # the __radd__/__rmul__ aliases by identity), and reads coeffs()
    for cls in (GradedScalar, EpsScalar):
        for name in ("__add__", "__mul__", "try_div"):
            assert name in cls.__dict__, (cls.__name__, name)
        assert cls.__dict__["__radd__"] is cls.__dict__["__add__"]
        assert cls.__dict__["__rmul__"] is cls.__dict__["__mul__"]
    e = EpsScalar.affine(0, 1)
    one, zero = GradedScalar.one(), GradedScalar.zero()
    assert (1 + e * e).coeffs() == (one, zero, one)
    assert EpsScalar.zero().coeffs() == ()


def test_eps_trailing_zero_is_trimmed():
    e = EpsScalar.affine(0, 1)
    v = (EpsScalar.one() + e) - e
    assert v.degree() == 0 and v == EpsScalar.one()


# -- Laurent data ------------------------------------------------------------


def test_laurent_constructors_and_predicates():
    z = LaurentValue.zero()
    assert z.is_zero() and z.is_exact()
    v = LaurentValue.exact(GradedScalar.pi())
    assert v.is_exact() and not v.is_zero()
    assert v.finite_num == pytest.approx(math.pi)


def test_laurent_addition_propagates_unavailable_constants():
    a = gamma_laurent(Fraction(-1), Fraction(1))  # pole, finite unavailable
    b = LaurentValue.exact(GradedScalar.one())
    s = a + b
    assert s.finite is None
    assert s.finite_num == pytest.approx(a.finite_num + 1.0)
    assert s.pole == a.pole


def test_laurent_scalar_and_eps_products():
    v = LaurentValue(GradedScalar.pi(), GradedScalar.one(), 1.0)
    w = v.times_scalar(GradedScalar.rational(2))
    assert w.pole == GradedScalar.monomial(2, 0, 2)
    assert w.finite == GradedScalar.rational(2)
    # (c0 + c1 e)(p/e + f) = c0 p/e + (c0 f + c1 p)
    u = v.times_eps_poly(EpsScalar.affine(2, 3))
    assert u.pole == GradedScalar.monomial(2, 0, 2)
    assert u.finite == GradedScalar.rational(2) + GradedScalar.monomial(3, 0, 2)


def test_laurent_eps_product_keeps_exactness_when_constant_kills_pole():
    # unavailable constant times a pure-eps polynomial stays exact
    v = gamma_laurent(Fraction(-1), Fraction(1))
    assert v.finite is None
    u = v.times_eps_poly(EpsScalar.affine(0, 1))
    assert u.finite == v.pole and not u.pole


def test_laurent_shifts():
    v = LaurentValue(GradedScalar.pi(), GradedScalar.one(), 1.0)
    assert v.shifted(Fraction(0)) is v
    w = v.shifted(Fraction(1))
    assert not w.pole and w.finite == GradedScalar.pi()
    with pytest.raises(NotConvergent):
        v.shifted(Fraction(1, 2))
    ok = LaurentValue.exact(GradedScalar.one()).shifted(Fraction(1, 2))
    assert ok.is_zero()
    with pytest.raises(DomainError):
        v.shifted(Fraction(2))


def test_laurent_text():
    assert gamma_laurent(Fraction(-2), Fraction(1)).text() == "(1/2)/e + unavailable"
    assert LaurentValue.exact(GradedScalar.pi()).text() == "1*pi"


# -- gamma -------------------------------------------------------------------


def test_gamma_exact_frozen_values():
    assert gamma_exact(Fraction(1, 2)) == GradedScalar.sqrt_pi()
    assert gamma_exact(Fraction(-1, 2)) == GradedScalar.monomial(-2, 0, 1)
    assert gamma_exact(Fraction(5, 2)) == GradedScalar.monomial(Fraction(3, 4), 0, 1)
    assert gamma_exact(Fraction(1)) == GradedScalar.one()
    assert gamma_exact(Fraction(5)) == GradedScalar.rational(24)


@pytest.mark.parametrize("num", range(-11, 12, 2))
def test_gamma_exact_matches_sympy_on_half_integers(num):
    arg = Fraction(num, 2)
    got = gs_to_sympy(gamma_exact(arg))
    assert sp.simplify(got - sp.gamma(sp.Rational(num, 2))) == 0


@pytest.mark.parametrize("num", range(1, 7))
def test_gamma_exact_matches_sympy_on_integers(num):
    assert gamma_exact(Fraction(num)).as_fraction() == math.factorial(num - 1)


def test_gamma_domain_errors():
    with pytest.raises(PoleError):
        gamma_exact(Fraction(0))
    with pytest.raises(PoleError):
        gamma_exact(Fraction(-3))
    with pytest.raises(DomainError):
        gamma_exact(Fraction(1, 3))
    with pytest.raises(PoleError):
        gamma_numeric(Fraction(-4))
    assert gamma_numeric(Fraction(1, 3)) == pytest.approx(math.gamma(1 / 3))
    assert gamma_numeric(Fraction(5, 2)) == pytest.approx(math.gamma(2.5))


def test_gamma_numeric_out_of_float_range_is_a_domain_error():
    assert gamma_numeric(171) == math.gamma(171.0)
    for arg in (172, 200, Fraction(10**400), Fraction(1, 10**400)):
        with pytest.raises(DomainError, match="out of float range"):
            gamma_numeric(arg)


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("slope", [Fraction(1), Fraction(-1), Fraction(1, 2)])
def test_gamma_laurent_poles_match_series_oracle(m, slope):
    v = gamma_laurent(Fraction(-m), slope)
    want_pole = Fraction((-1) ** m, math.factorial(m)) / slope
    assert v.pole == GradedScalar.rational(want_pole)
    assert v.finite is None
    # sympy series of gamma(-m + slope*eps) around eps = 0
    ser = sp.series(
        sp.gamma(-m + sp.Rational(slope.numerator, slope.denominator) * EPS),
        EPS,
        0,
        1,
    ).removeO()
    const = ser.coeff(EPS, 0)
    assert v.finite_num == pytest.approx(float(sp.N(const, 25)), rel=1e-12)
    pole_c = ser.coeff(EPS, -1)
    assert Fraction(str(sp.nsimplify(pole_c))) == want_pole


def test_gamma_laurent_off_pole_is_exact():
    v = gamma_laurent(Fraction(3, 2), Fraction(1))
    assert v.is_exact() and not v.pole
    assert v.finite == gamma_exact(Fraction(3, 2))
    with pytest.raises(DomainError):
        gamma_laurent(Fraction(1, 2), Fraction(0))


# -- value contracts ---------------------------------------------------------


def _value_forms(q, g, e, slope):
    """Values built two ways each, so that equal values of different types
    and equal term maps built from differently ordered terms all occur."""
    terms1 = [(Fraction(1, 2), g), (Fraction(-1), q), (Fraction(1, 2), q)]
    terms2 = [((0, slope, 1, 0), e), ((1, 0, 0, slope), q), ((0, slope, 1, 0), g)]
    ops1 = [((1, 0), g), ((0, 2), q)]
    ops2 = [((0, 1, 1, 0), g), ((1, 0, 0, 0), q)]
    return [
        q,
        GradedScalar.rational(q),
        EpsScalar.of(q),
        g,
        EpsScalar.of(g),
        e,
        State1D(terms1),
        State1D(terms1[::-1], label="reversed"),
        State2D(terms2),
        State2D(terms2[::-1]),
        State2D(terms2, renorm_power=Fraction(1, 2)),
        DiffOp1D(ops1),
        DiffOp1D(ops1[::-1]),
        DiffOp2D(ops2),
        DiffOp2D(ops2[::-1]),
    ]


@settings(max_examples=60, deadline=None)
@given(rationals, graded_small, eps_polys, st.integers(min_value=0, max_value=1))
def test_equal_values_hash_equal(q, g, e, slope):
    values = _value_forms(q, g, e, slope)
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    # a rational scalar is found under its Fraction key and the other way round
    assert {GradedScalar.rational(q): 1}.get(q) == 1
    assert {q: 1}.get(EpsScalar.of(q)) == 1


# -- product fast paths keep the general product's term order ---------------
# float() sums the terms in stored order, and sort keys use float(), so a
# product must store its terms in the order of the general term-by-term loop.


def _general_graded_product(a, b):
    out = {}
    for (j1, k1), q1 in a._terms.items():
        for (j2, k2), q2 in b._terms.items():
            j = j1 + j2
            _put(out, (j % 2, k1 + k2), q1 * q2 * Fraction(2) ** (j // 2))
    return list(out.items())


def _eps_layout(terms: dict):
    return [(p, list(c._terms.items())) for p, c in terms.items()]


@given(graded, graded)
def test_graded_product_stores_the_general_product(a, b):
    assert list((a * b)._terms.items()) == _general_graded_product(a, b)
    assert (GradedScalar.sqrt2() * GradedScalar.monomial(3, 1, 1)).text() == "6*pi^(1/2)"


@given(eps_polys, st.one_of(eps_polys, graded_small, rationals, st.integers(-3, 3)))
def test_eps_product_stores_the_general_product(a, c):
    other = EpsScalar.of(c)
    out = {}
    for i, x in a._terms.items():
        for j, y in other._terms.items():
            _put(out, i + j, x * y)
    assert _eps_layout((a * c)._terms) == _eps_layout(out)
    if not isinstance(c, EpsScalar):  # a constant on the left scales a as well
        assert _eps_layout((c * a)._terms) == _eps_layout(out)


# -- certified pi --------------------------------------------------------------

# Continued-fraction convergents p/q of pi 1.45e-50 and 8.33e-71 below it,
# closer than the 49-digit constant that used to enclose pi could resolve.
PI_CONVERGENTS = (
    (23294267674065827396789607, 7414795692066647773964845),
    (212564178171463672420858478430244273, 67661279360509603072431780067475929),
)


@pytest.mark.parametrize("p, q", PI_CONVERGENTS)
def test_sign_resolves_pi_against_its_close_convergents(p, q):
    gap = GradedScalar.pi() - GradedScalar.rational(Fraction(p, q))
    assert scalar_sign(gap) == -1
    assert scalar_sign(-gap) == 1


def test_sign_of_pi_minus_each_convergent_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(300):
        x, a = mpmath.pi, []
        p0, q0, p1, q1 = 0, 1, 1, 0
        checked = 0
        while True:
            n = int(mpmath.floor(x))
            x = 1 / (x - n)
            p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
            gap = mpmath.pi - mpmath.mpf(p1) / q1
            if abs(gap) < mpmath.mpf(10) ** -80:
                break
            want = 1 if gap > 0 else -1
            assert scalar_sign(GradedScalar.pi() - GradedScalar.rational(Fraction(p1, q1))) == want
            checked += 1
    assert checked > 70


def test_pi_enclosures_are_certified_and_tight():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(600):
        for bits in SIGN_BITS:
            lo, hi = _pi_interval(bits)
            assert mpmath.mpf(lo.numerator) / lo.denominator < mpmath.pi
            assert mpmath.pi < mpmath.mpf(hi.numerator) / hi.denominator
            assert (hi - lo) * 2**bits < 1
    assert (_PI_LO, _PI_HI) == _pi_interval(SIGN_BITS[-1])


@functools.cache
def _reports():
    lattice = preset_sector("vacuum", 1)
    return (gram(lattice, 0), quotient_report(lattice), dark_check(lattice, lattice, 1))


_attr_names = st.one_of(
    st.sampled_from(["_terms", "label", "renorm_power", "entries", "blocks", "is_dark"]),
    st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True),
)


@settings(max_examples=60, deadline=None)
@given(rationals, graded_small, eps_polys, st.integers(min_value=0, max_value=1),
       _attr_names, st.integers())
def test_values_and_reports_refuse_attribute_writes(q, g, e, slope, name, value):
    # the six term-map classes, and the frozen report dataclasses
    targets = _value_forms(q, g, e, slope)[1:] + list(_reports())
    for obj in targets:
        before = repr(obj)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert repr(obj) == before
