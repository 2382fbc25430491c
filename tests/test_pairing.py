"""The planar pairing against its plain double loop, and its error paths.

``inner_2d`` and ``renorm_inner`` match term pairs by charge, multiply
coefficients modulo eps^2 and read pi * gamma from a per-process cache.
The reference in ``_oracles`` does none of that.  The two must agree on
every value down to the stored order of the exact terms and the bits of
the float mirror, and raise the same errors with the same messages.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kreinosc import (
    DomainError,
    EpsScalar,
    GradedScalar,
    LabError,
    LaurentValue,
    NotConvergent,
    PoleError,
    State2D,
    inner_2d,
    omega,
    quotient_report,
    renorm_inner,
)
from kreinosc import algebra2d
from kreinosc.cli import _load_sector_source
from kreinosc.sectors import eps_sector

from _oracles import reference_inner_2d, reference_renorm_inner

HALF = Fraction(1, 2)


def layout(v):
    """A graded value's terms in stored order (float() and text follow it)."""
    return None if v is None else list(v._terms.items())


def outcome(pairing, f, g):
    """Everything a caller can observe of one pairing call."""
    try:
        v = pairing(f, g)
    except LabError as exc:
        return (type(exc).__name__, exc.code, str(exc))
    if isinstance(v, LaurentValue):
        return (layout(v.pole), layout(v.finite), v.finite_num.hex())
    return layout(v)


def assert_same(f, g):
    assert outcome(inner_2d, f, g) == outcome(reference_inner_2d, f, g)
    assert outcome(renorm_inner, f, g) == outcome(reference_renorm_inner, f, g)


# ---------------------------------------------------------------------------
# error paths


def test_cancelling_residues_leave_the_digamma_term():
    f = State2D({(-1, 1, 0, 0): 1, (-2, 1, -1, 0): 1})
    g = omega(-1, 0, lam_slope=1)
    assert repr(inner_2d(f, g)) == "LaurentValue<unavailable>"
    with pytest.raises(DomainError) as err:
        renorm_inner(f, g)
    assert str(err.value) == (
        "constant term involves digamma values excluded from exact mode"
    )


def test_half_shift_with_a_pole_does_not_converge():
    tagged = omega(-1, 0, lam_slope=1).with_renorm(HALF)
    untagged = omega(-1, 0, lam_slope=1)
    for f, g in ((tagged, untagged), (untagged, tagged)):
        for pairing in (inner_2d, renorm_inner):
            with pytest.raises(NotConvergent) as err:
                pairing(f, g)
            assert str(err.value) == "eps^(1/2) shift leaves a divergent eps^(-1/2) term"


def test_untagged_pole_names_the_remaining_coefficient():
    s = omega(-1, 0, lam_slope=1)
    with pytest.raises(NotConvergent) as err:
        renorm_inner(s, s)
    assert str(err.value) == "renormalized limit diverges: pole coefficient 1*pi remains"


def test_unregulated_pole_message():
    for pairing in (inner_2d, renorm_inner):
        with pytest.raises(PoleError) as err:
            pairing(omega(-1, 0), omega(-1, 0))
        assert str(err.value) == (
            "radial moment hits a gamma pole at 0 with no eps regulator; "
            "deform the exponents"
        )


def test_non_half_integer_argument_is_reported_ahead_of_a_pole():
    # the pole pair (charge 1, base 0) comes first in either order
    f = omega(-1, 0) + omega(Fraction(1, 3), Fraction(1, 3))
    g = omega(-1, 0) + omega(Fraction(-2, 3), Fraction(-2, 3))
    for lhs, rhs in ((f, g), (g, f)):
        for pairing in (inner_2d, renorm_inner):
            with pytest.raises(DomainError) as err:
                pairing(lhs, rhs)
            assert str(err.value) == (
                "gamma argument 2/3 is not a half-integer; exact mode covers "
                "half-integers only (use gamma_numeric for floats)"
            )


def test_errors_are_raised_again_after_caching():
    # a failed moment is not cached, and a cached one does not hide a
    # domain error met later in the same pairing
    s = omega(-1, 0)
    for _ in range(2):
        with pytest.raises(PoleError):
            inner_2d(s, s)
    unit = omega(0, 0)
    inner_2d(unit, unit)
    bad = unit + omega(Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(DomainError):
        inner_2d(bad, bad)


# ---------------------------------------------------------------------------
# orders and branches that the sectors below do not reach


def test_eps1_products_are_summed_in_the_product_loops_order():
    # a pole moment with c0 != 0: only the float mirror reads c1, and
    # these two coefficients give it different bits in either order
    a0 = GradedScalar({(0, -2): Fraction(-9, 4), (0, -1): Fraction(7, 4)})
    a1 = GradedScalar({(0, 0): Fraction(7, 4), (1, 0): Fraction(-1, 3)})
    b0 = GradedScalar({(1, -3): Fraction(-4, 3), (1, -1): Fraction(-4, 5), (0, 3): Fraction(5, 6)})
    b1 = GradedScalar({(0, -3): -2, (0, 0): 1, (1, 2): Fraction(-8, 3)})
    assert float(a0 * b1 + a1 * b0) != float(a1 * b0 + a0 * b1)
    f = State2D({(-1, 1, 0, 0): EpsScalar([a0, a1])})
    g = State2D({(-1, 1, 0, 0): EpsScalar([b0, b1])})
    assert_same(f, g)
    assert_same(g, f)


def test_eps0_products_keep_the_operand_order():
    # a regular moment: the finite part is pi * (a0 * b0), whose stored
    # terms come out in another order as b0 * a0
    a0 = GradedScalar({(0, 0): 1, (0, 1): 2})
    b0 = GradedScalar({(0, 0): 3, (0, 2): 5})
    assert list((a0 * b0)._terms) != list((b0 * a0)._terms)
    f = State2D({(0, 0, 0, 0): EpsScalar([a0])})
    g = State2D({(0, 0, 0, 0): EpsScalar([b0])})
    assert_same(f, g)
    assert renorm_inner(f, g)._terms == (GradedScalar.pi() * (a0 * b0))._terms


def test_a_residue_times_an_eps_coefficient_is_finite():
    # c0 = 0 at a pole moment: the residue meets c1 and leaves a finite value
    f = State2D({(-1, 1, 0, 0): EpsScalar.affine(0, 1)})
    g = omega(-1, 0, lam_slope=1)
    assert renorm_inner(f, g).text() == "1*pi"
    assert_same(f, g)
    assert_same(f.with_renorm(HALF), g.with_renorm(HALF))


# ---------------------------------------------------------------------------
# against the double loop


SECTORS = [("eps:-1", 4), ("eps-conj:-2", 4), ("half-zbar", 4), ("omega:-1,2", 3),
           ("omega:1/2,3", 3)]


@pytest.mark.parametrize("spec, depth", SECTORS)
def test_every_node_pair_matches_the_double_loop(spec, depth):
    states = [n.state for n in _load_sector_source(spec, depth).nodes]
    for f in states:
        for g in states:
            assert_same(f, g)


_exps = st.sampled_from([Fraction(k, 2) for k in range(-4, 2)] + [Fraction(1, 3)])
_graded = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    ),
    min_size=1,
    max_size=2,
).map(lambda ts: sum((GradedScalar.monomial(q, j, k) for j, k, q in ts), GradedScalar.zero()))
# summed in drawn order, so eps^1 may be stored ahead of eps^0
_eps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), _graded), min_size=1, max_size=3
).map(lambda ts: sum((EpsScalar([0] * p + [c]) for p, c in ts), EpsScalar.zero()))
_terms = st.lists(
    st.tuples(_exps, st.integers(0, 1), _exps, st.integers(0, 1), _eps), min_size=1, max_size=3
)
_states = st.builds(
    lambda ts, r: State2D({(lam, ls, mu, ms): c for lam, ls, mu, ms, c in ts}, r),
    _terms,
    st.sampled_from([Fraction(0), HALF]),
)


@settings(max_examples=200, deadline=None)
@given(_states, _states)
def test_drawn_states_match_the_double_loop(f, g):
    assert_same(f, g)
    assert_same(g, f)


# ---------------------------------------------------------------------------
# the moment cache


def test_one_gamma_evaluation_per_distinct_moment(monkeypatch):
    calls = Counter()
    gamma_exact, gamma_laurent = algebra2d.gamma_exact, algebra2d.gamma_laurent

    def counted_exact(base):
        calls[(base, 0)] += 1
        return gamma_exact(base)

    def counted_laurent(base, slope):
        calls[(base, slope)] += 1
        return gamma_laurent(base, slope)

    monkeypatch.setattr(algebra2d, "gamma_exact", counted_exact)
    monkeypatch.setattr(algebra2d, "gamma_laurent", counted_laurent)
    lattice = eps_sector(-1, 4)
    algebra2d._moment.cache_clear()
    quotient_report(lattice)
    states = [n.state for n in lattice.nodes]
    moments = {
        ((lf + mf + lg + mg) / 2 + 1, Fraction(sf + tf + sg + tg, 2))
        for f in states
        for g in states
        for (lf, sf, mf, tf) in f._terms
        for (lg, sg, mg, tg) in g._terms
        if (mf - lf, tf - sf) == (mg - lg, tg - sg)
    }
    assert set(calls) == moments
    assert set(calls.values()) == {1}
    pairs = sum(len(f._terms) * len(g._terms) for f in states for g in states)
    assert len(calls) < pairs
