"""Plane algebra: doubled derivatives, ladders, pairing, renormalization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kreinosc import (
    DiffOp2D,
    DomainError,
    EpsScalar,
    GradedScalar,
    LaurentValue,
    Monomial2D,
    NotConvergent,
    PoleError,
    State2D,
    apply_2d,
    build_op_2d,
    commutator_2d,
    compose_2d,
    eigencheck_2d,
    inner_2d,
    ladder_closed_form,
    localization_2d,
    omega,
    psi0,
    renorm_inner,
    states_proportional,
)

from _oracles import (
    eps_to_sympy,
    gs_to_sympy,
    op2d_apply_sympy,
    quad_inner2d,
    states2d_equal,
)

HALF = Fraction(1, 2)
GENERATORS = ("b_pp", "b_pm", "b_mp", "b_mm")


def gs(q) -> GradedScalar:
    return GradedScalar.rational(Fraction(q))


def mono(lam, mu, ls=0, ms=0) -> Monomial2D:
    return Monomial2D(Fraction(lam), ls, Fraction(mu), ms)


# ---------------------------------------------------------------------------
# operators


def test_builtin_operator_texts():
    assert build_op_2d("H").text() == "1/2*zbar^(1)*z^(1) - 1/2*dzbar*dz"
    assert build_op_2d("Q").text() == "1/2*z^(1)*dz - 1/2*zbar^(1)*dzbar"
    assert build_op_2d("b_pp").text() == "1/2*z^(1) - 1/2*dzbar"
    assert build_op_2d("Z").text() == "1*z^(1)"
    assert build_op_2d("DZBAR").text() == "1*dzbar"


def test_build_op_rejects_unknown_name():
    with pytest.raises(DomainError):
        build_op_2d("b_qq")


def test_doubled_derivative_convention():
    # each formal derivative acts as twice the ordinary one, so dz kills
    # the weight with a full zbar factor rather than half of one
    dz = build_op_2d("DZ")
    assert apply_2d(dz, psi0()).text() == "-1*zbar^(1)*z^(0)"
    assert apply_2d(dz, omega(0, 1)).text() == "2*zbar^(0)*z^(0) - 1*zbar^(1)*z^(1)"


def test_canonical_commutators():
    b = {name: build_op_2d(name) for name in GENERATORS}
    assert commutator_2d(b["b_mp"], b["b_pp"]).text() == "1"
    assert commutator_2d(b["b_mm"], b["b_pm"]).text() == "1"
    assert commutator_2d(b["b_mp"], b["b_pm"]).is_zero()
    assert commutator_2d(b["b_mm"], b["b_pp"]).is_zero()
    assert commutator_2d(b["b_pp"], b["b_pm"]).is_zero()
    assert commutator_2d(b["b_mp"], b["b_mm"]).is_zero()


def test_symmetry_algebra():
    H, Q = build_op_2d("H"), build_op_2d("Q")
    assert commutator_2d(Q, H).is_zero()
    for name, h_sign, q_sign in (
        ("b_pp", 1, 1),
        ("b_pm", 1, -1),
        ("b_mp", -1, -1),
        ("b_mm", -1, 1),
    ):
        ladder = build_op_2d(name)
        assert commutator_2d(H, ladder).terms() == ladder.scaled(gs(h_sign)).terms()
        assert commutator_2d(Q, ladder).terms() == ladder.scaled(gs(q_sign)).terms()


def test_scaling_by_a_non_rational_is_a_coded_domain_error():
    # the operator, like the planar state and the line operator, refuses a
    # float or an eps-dependent factor with a DomainError, not a TypeError
    op = build_op_2d("H")
    for bad in (0.5, EpsScalar.affine(0, 1)):
        with pytest.raises(DomainError) as err:
            op.scaled(bad)
        assert err.value.code == "domain"
    with pytest.raises(DomainError):
        omega(0, 0).scaled(0.5)
    assert op.scaled(Fraction(1, 2)).scaled(2) == op
    assert op.scaled(0).is_zero()


# ---------------------------------------------------------------------------
# application against the symbolic oracle


_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_exps = st.integers(min_value=-3, max_value=3).map(lambda k: Fraction(k, 2))
_slopes = st.integers(min_value=0, max_value=1)
_monos = st.builds(mono, _exps, _exps, _slopes, _slopes)
_states = st.lists(st.tuples(_monos, _coeffs), min_size=1, max_size=2).map(
    lambda pairs: State2D(tuple((m, EpsScalar.of(c)) for m, c in pairs))
)
_named = st.sampled_from(["H", "Q", "b_pp", "b_pm", "b_mp", "b_mm"]).map(build_op_2d)


def test_apply_fixed_cases_match_oracle():
    cases = [
        (build_op_2d("H"), omega(-HALF, 0)),
        (build_op_2d("b_pp"), omega(0, 0)),
        (build_op_2d("b_mm"), omega(-HALF, 0)),
        (build_op_2d("Q"), omega(-1, 0, lam_slope=1)),
        (build_op_2d("H"), omega(2, 3)),
    ]
    for op, state in cases:
        assert states2d_equal(apply_2d(op, state), op2d_apply_sympy(op, state))


@settings(max_examples=30, deadline=None)
@given(_named, _states)
def test_apply_matches_oracle(op, state):
    assert states2d_equal(apply_2d(op, state), op2d_apply_sympy(op, state))


@settings(max_examples=20, deadline=None)
@given(_named, _named, _states)
def test_compose_is_sequential_application(f, g, state):
    assert (
        apply_2d(compose_2d(f, g), state).terms()
        == apply_2d(f, apply_2d(g, state)).terms()
    )


@settings(max_examples=20, deadline=None)
@given(_named, _named, _states)
def test_commutator_is_application_difference(f, g, state):
    direct = op2d_apply_sympy(f, apply_2d(g, state)) - op2d_apply_sympy(
        g, apply_2d(f, state)
    )
    assert states2d_equal(apply_2d(commutator_2d(f, g), state), direct)


def test_slope_values_are_restricted():
    with pytest.raises(DomainError):
        omega(0, 0, mu_slope=2)
    with pytest.raises(DomainError):
        State2D(((Monomial2D(Fraction(0), -1, Fraction(0), 0), EpsScalar.one()),))


# ---------------------------------------------------------------------------
# closed-form ladder actions


def test_ladder_closed_form_matches_application():
    grid = [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(-HALF),
        Fraction(3, 2),
        Fraction(-5, 2),
    ]
    for name in GENERATORS:
        op = build_op_2d(name)
        for lam in grid:
            for mu in grid:
                predicted = State2D(
                    tuple(
                        (mono(l2, m2), EpsScalar.of(c))
                        for c, l2, m2 in ladder_closed_form(name, lam, mu)
                    )
                )
                assert apply_2d(op, omega(lam, mu)).terms() == predicted.terms()


def test_ladder_closed_form_keeps_structural_zeros():
    # the lowering branch is listed even when its coefficient vanishes
    assert ladder_closed_form("b_mm", 0, 0) == ((Fraction(0), Fraction(-1), Fraction(0)),)
    assert ladder_closed_form("b_pp", 0, 0) == (
        (Fraction(0), Fraction(-1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
    )


# ---------------------------------------------------------------------------
# eigenvalues


def test_energy_and_charge_closed_forms():
    H, Q = build_op_2d("H"), build_op_2d("Q")
    for lam, mu in [(0, 0), (1, 0), (0, 1), (-HALF, 0), (0, -HALF), (-1, 0), (-Fraction(3, 2), 0)]:
        s = omega(lam, mu)
        assert eigencheck_2d(H, s) == 1 + lam + mu
        assert eigencheck_2d(Q, s) == mu - lam


def test_monomials_off_the_axes_are_not_energy_eigenstates():
    # the second derivative couples zbar^lam z^mu down to (lam-1, mu-1)
    s = omega(2, 3)
    assert eigencheck_2d(build_op_2d("H"), s) is None
    assert eigencheck_2d(build_op_2d("Q"), s) == 1


def test_deformed_eigenvalues_are_eps_affine():
    s = omega(-1, 0, lam_slope=1)
    assert eigencheck_2d(build_op_2d("H"), s).text() == "e"
    assert eigencheck_2d(build_op_2d("Q"), s).text() == "1-e"


def test_eigenvalues_stay_in_the_coefficient_ring():
    energy = eigencheck_2d(build_op_2d("H"), omega(1, 0))
    assert isinstance(energy, EpsScalar)
    assert energy == 2 and hash(energy) == hash(2)
    # the vacuum is annihilated by the lowering b-+: the ring's zero
    zero = eigencheck_2d(build_op_2d("b_mp"), psi0())
    assert isinstance(zero, EpsScalar) and zero.is_zero()


def test_eigencheck_survives_scaling():
    s = omega(0, 1).scaled(EpsScalar.of(Fraction(-7, 3)))
    assert eigencheck_2d(build_op_2d("H"), s) == 2


# ---------------------------------------------------------------------------
# the pairing


def test_inner_frozen_values():
    assert inner_2d(psi0(), psi0()).text() == "1*pi"
    assert inner_2d(omega(1, 1), psi0()).text() == "1*pi"
    for n, text in ((1, "-2*pi^(3/2)"), (2, "4/3*pi^(3/2)"), (3, "-8/15*pi^(3/2)")):
        s = omega(-HALF - n, 0)
        assert inner_2d(s, s).text() == text


def test_charge_superselection():
    pairs = [
        (psi0(), omega(0, 1)),
        (omega(1, 0), omega(0, 1)),
        (omega(-HALF, 0), omega(-Fraction(3, 2), 0)),
        (omega(-HALF, 0), omega(0, -HALF)),
    ]
    for f, g in pairs:
        assert inner_2d(f, g).is_zero()


@settings(max_examples=40, deadline=None)
@given(_states, _states)
def test_inner_is_symmetric(f, g):
    if f.has_slopes() or g.has_slopes():
        return
    try:
        lhs = inner_2d(f, g)
    except (DomainError, PoleError) as err:
        with pytest.raises(type(err)):
            inner_2d(g, f)
        return
    assert lhs == inner_2d(g, f)


def test_inner_is_bilinear():
    f = State2D(((mono(0, 1), EpsScalar.of(2)), (mono(1, 0), EpsScalar.of(-1))))
    g = State2D(((mono(0, 1), EpsScalar.of(3)),))
    h = State2D(((mono(1, 2), EpsScalar.of(1)),))
    combined = State2D(f.terms() + g.terms())
    assert inner_2d(combined, h) == inner_2d(f, h) + inner_2d(g, h)
    scaled = f.scaled(EpsScalar.of(Fraction(5, 3)))
    assert inner_2d(scaled, h) == inner_2d(f, h).times_scalar(gs(Fraction(5, 3)))


def test_slope_free_pole_is_refused():
    with pytest.raises(PoleError):
        inner_2d(omega(-1, 0), omega(-1, 0))


def test_deformed_pole_returns_laurent_data():
    s = omega(-1, 0, lam_slope=1)
    value = inner_2d(s, s)
    assert isinstance(value, LaurentValue)
    assert value.pole.text() == "1*pi"
    assert value.finite is None  # gamma itself sits on the pole
    assert value.text() == "(1*pi)/e + unavailable"


# ---------------------------------------------------------------------------
# renormalized pairing


def test_renorm_tag_validation():
    with pytest.raises(DomainError):
        psi0().with_renorm(1)
    assert psi0().with_renorm(HALF).renorm_power == HALF
    assert psi0().with_renorm(0).renorm_power == 0


def test_renorm_norms_of_the_deformed_family():
    # <sqrt(eps) O(-n+eps,0)> = pi (-1)^(n-1) / (n-1)!
    expected = ["1*pi", "-1*pi", "1/2*pi", "-1/6*pi", "1/24*pi", "-1/120*pi"]
    for n, text in zip(range(1, 7), expected):
        s = omega(-n, 0, lam_slope=1).with_renorm(HALF)
        assert renorm_inner(s, s).text() == text


def test_renorm_agrees_with_inner_on_convergent_states():
    # inner_2d reports full Laurent data; renorm_inner extracts the limit
    for s in (psi0(), omega(-HALF, 0)):
        full = inner_2d(s, s)
        assert full.pole.is_zero()
        assert renorm_inner(s, s).terms() == full.finite.terms()


def test_renorm_rejects_untagged_divergence():
    s = omega(-1, 0, lam_slope=1)
    with pytest.raises(NotConvergent):
        renorm_inner(s, s)
    with pytest.raises(PoleError):
        renorm_inner(omega(-1, 0), omega(-1, 0))


# ---------------------------------------------------------------------------
# state utilities


def test_charges_and_slopes():
    assert psi0().charges() == {(Fraction(0), 0)}
    deformed = omega(-1, 0, lam_slope=1)
    assert deformed.charges() == {(Fraction(1), -1)}
    assert deformed.has_slopes()
    assert not psi0().has_slopes()


def test_limit_eps0_drops_slopes():
    s = omega(-1, 0, lam_slope=1)
    assert s.limit_eps0().text() == "1*zbar^(-1)*z^(0)"
    t = omega(0, 2).scaled(EpsScalar.affine(1, -1))
    assert t.limit_eps0().text() == "1*zbar^(0)*z^(2)"


def test_states_proportional():
    a = omega(1, 0)
    b = omega(1, 0).scaled(EpsScalar.of(Fraction(-3, 2)))
    ratio = states_proportional(a, b)
    assert ratio is not None
    ca, cb = ratio
    assert a.scaled(cb).terms() == b.scaled(ca).terms()
    assert states_proportional(a, omega(0, 1)) is None
    with pytest.raises(DomainError):
        states_proportional(a, State2D.zero())


# ---------------------------------------------------------------------------
# localization


def test_localization_classes():
    loc, div = localization_2d(psi0())
    assert not loc and div.kind == "none"
    loc, div = localization_2d(omega(-HALF, 0))
    assert not loc and div.kind == "none"
    loc, div = localization_2d(omega(-1, 0))
    assert loc and div.kind == "log"
    loc, div = localization_2d(omega(0, -2))
    assert loc and div.kind == "power" and div.order == 2
    loc, div = localization_2d(omega(-Fraction(3, 2), 0))
    assert loc and div.kind == "power" and div.order == 1


def test_localization_along_the_deformed_family():
    for n in range(1, 5):
        loc, _ = localization_2d(omega(-n, 0))
        assert loc


# ---------------------------------------------------------------------------
# quadrature cross-checks


def test_inner_matches_quadrature_on_convergent_pairs():
    pairs = [
        (psi0(), psi0()),
        (omega(1, 1), psi0()),
        (omega(0, 1), omega(0, 1)),
        (omega(-HALF, 0), omega(-HALF, 0)),
        (omega(1, 0), omega(0, 1)),  # superselected zero
    ]
    for f, g in pairs:
        value = inner_2d(f, g)
        assert value.pole.is_zero()
        exact = complex(float(gs_to_sympy(value.finite)), 0.0)
        approx = quad_inner2d(f, g)
        assert abs(approx - exact) <= 1e-10 * max(1.0, abs(exact))
