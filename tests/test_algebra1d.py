"""Line algebra: operators, ladders, the regularized pairing, localization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kreinosc import (
    DepthExceeded,
    DiffOp1D,
    DomainError,
    GradedScalar,
    MissingParameter,
    PoleError,
    State1D,
    apply_1d,
    build_op_1d,
    commutator_1d,
    compose_1d,
    eigencheck_1d,
    inner_1d,
    ladder_state_1d,
    localization_1d,
    solve_vacuum_1d,
)
from kreinosc.algebra1d import DEFAULT_DEPTH_LIMIT, DEPTH_LIMIT_ENV, depth_limit, ladder_states_1d

from _oracles import (
    gs_to_sympy,
    op1d_apply_sympy,
    quad_inner1d,
    state1d_to_sympy,
    states1d_equal,
)

HALF = Fraction(1, 2)


def gs(q) -> GradedScalar:
    return GradedScalar.rational(Fraction(q))


def lincomb(*pairs) -> State1D:
    return State1D(tuple((Fraction(e), gs(c)) for e, c in pairs))


# ---------------------------------------------------------------------------
# operator construction


def test_builtin_operator_texts():
    assert build_op_1d("X").text() == "1*x^(1)"
    assert build_op_1d("D").text() == "1*D"
    assert build_op_1d("H1").text() == "1*x^(-2) + 1/2*x^(2) - 1/2*D^2"
    assert (
        build_op_1d("A_plus").text()
        == "-1*x^(-2) - 1/2 + 1/2*x^(2) - 1*x^(1)*D + 1/2*D^2"
    )
    assert (
        build_op_1d("A_minus").text()
        == "-1*x^(-2) + 1/2 + 1/2*x^(2) + 1*x^(1)*D + 1/2*D^2"
    )


def test_alpha_ladder_texts():
    ap = build_op_1d("a_plus", alpha=1)
    am = build_op_1d("a_minus", alpha=1)
    assert ap.text() == "1/2*2^(1/2)*x^(-1) + 1/2*2^(1/2)*x^(1) - 1/2*2^(1/2)*D"
    assert am.text() == "1/2*2^(1/2)*x^(-1) + 1/2*2^(1/2)*x^(1) + 1/2*2^(1/2)*D"


def test_build_op_rejects_unknown_name():
    with pytest.raises(DomainError):
        build_op_1d("B_plus")


def test_alpha_ladders_require_alpha():
    with pytest.raises(MissingParameter):
        build_op_1d("a_plus")
    with pytest.raises(MissingParameter):
        build_op_1d("a_minus")
    # alpha-free names must not silently accept one either
    build_op_1d("a_plus", alpha=Fraction(-3, 2))  # any rational is fine


def test_identity_op():
    s = lincomb((-1, 2), (HALF, 3))
    assert apply_1d(DiffOp1D.identity(), s).terms() == s.terms()


# ---------------------------------------------------------------------------
# application against an independent symbolic oracle


def test_apply_fixed_cases_match_oracle():
    Ap = build_op_1d("A_plus")
    cases = [
        (Ap, State1D.power(-1), "1*x^(-1) + 2*x^(1)"),
        (Ap, State1D.power(2), "-5*x^(2) + 2*x^(4)"),
        (build_op_1d("H1"), State1D.power(-1), "-1/2*x^(-1)"),
    ]
    for op, state, text in cases:
        out = apply_1d(op, state)
        assert out.text() == text
        assert states1d_equal(out, op1d_apply_sympy(op, state))


def test_lowering_the_first_rung():
    rung1, _ = ladder_state_1d(1, 1)
    down = apply_1d(build_op_1d("A_minus"), rung1)
    assert down.text() == "-2*x^(-1)"


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_exps = st.integers(min_value=-4, max_value=6).map(lambda k: Fraction(k, 2))
_states = st.lists(st.tuples(_exps, _coeffs), min_size=1, max_size=3).map(
    lambda pairs: State1D(tuple((e, gs(c)) for e, c in pairs))
)
_named = st.sampled_from(["H1", "A_plus", "A_minus", "X", "D"]).map(build_op_1d)


@settings(max_examples=30, deadline=None)
@given(_named, _states)
def test_apply_matches_oracle(op, state):
    out = apply_1d(op, state)
    assert states1d_equal(out, op1d_apply_sympy(op, state))


@settings(max_examples=20, deadline=None)
@given(_named, _named, _states)
def test_compose_is_sequential_application(f, g, state):
    assert (
        apply_1d(compose_1d(f, g), state).terms()
        == apply_1d(f, apply_1d(g, state)).terms()
    )


@settings(max_examples=20, deadline=None)
@given(_named, _named, _states)
def test_commutator_is_application_difference(f, g, state):
    direct = op1d_apply_sympy(f, apply_1d(g, state)) - op1d_apply_sympy(
        g, apply_1d(f, state)
    )
    assert states1d_equal(apply_1d(commutator_1d(f, g), state), direct)


def test_canonical_commutators():
    X, D = build_op_1d("X"), build_op_1d("D")
    assert commutator_1d(D, X).text() == "1"
    assert commutator_1d(X, D).text() == "-1"
    H = build_op_1d("H1")
    Ap, Am = build_op_1d("A_plus"), build_op_1d("A_minus")
    assert commutator_1d(H, Ap).terms() == Ap.scaled(gs(2)).terms()
    assert commutator_1d(H, Am).terms() == Am.scaled(gs(-2)).terms()


# ---------------------------------------------------------------------------
# vacua and ladders


@given(st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_vacuum_is_monic_power_and_annihilated(alpha):
    vac = solve_vacuum_1d(alpha)
    assert vac.terms() == ((-Fraction(alpha), GradedScalar.one()),)
    lowered = apply_1d(build_op_1d("a_minus", alpha=alpha), vac)
    assert lowered.is_zero()


def test_vacuum_label():
    assert solve_vacuum_1d(1).label == "vacuum(alpha=1)"


def test_ladder_energies_alpha_plus():
    # E_n = -1/2 + 2n on the singular branch
    for n in range(11):
        state, energy = ladder_state_1d(1, n)
        assert energy == Fraction(-1, 2) + 2 * n
        assert eigencheck_1d(build_op_1d("H1"), state) == energy


def test_ladder_energies_alpha_minus_two():
    # E_n = 5/2 + 2n on the regular branch
    for n in range(11):
        state, energy = ladder_state_1d(-2, n)
        assert energy == Fraction(5, 2) + 2 * n
        assert eigencheck_1d(build_op_1d("H1"), state) == energy


def test_ladder_state_texts():
    assert ladder_state_1d(1, 1)[0].text() == "1*x^(-1) + 2*x^(1)"
    assert ladder_state_1d(1, 2)[0].text() == "-1*x^(-1) - 4*x^(1) + 4*x^(3)"
    assert ladder_state_1d(-2, 2)[0].text() == "35*x^(2) - 28*x^(4) + 4*x^(6)"


def test_ladder_states_share_one_raise_with_ladder_state(monkeypatch):
    rungs = ladder_states_1d(1, 5)
    assert [energy for _, energy in rungs] == [Fraction(-1, 2) + 2 * n for n in range(5)]
    for n, (state, energy) in enumerate(rungs):
        assert (state, energy) == ladder_state_1d(1, n)
        assert state.label == "ladder(alpha=1,n=%d)" % n
    assert ladder_states_1d(3, 0) == ladder_states_1d(3, -2) == []
    monkeypatch.setenv(DEPTH_LIMIT_ENV, "3")
    assert len(ladder_states_1d(-2, 4)) == 4
    with pytest.raises(DepthExceeded, match="ladder index 4 exceeds depth limit 3"):
        ladder_states_1d(-2, 100)
    with pytest.raises(DomainError):
        ladder_states_1d(2, 100)


def test_ladder_rejects_other_alpha():
    for alpha in (0, 2, Fraction(1, 2)):
        with pytest.raises(DomainError):
            ladder_state_1d(alpha, 1)


def test_ladder_by_repeated_raising():
    Ap = build_op_1d("A_plus")
    state = solve_vacuum_1d(1)
    for n in range(1, 6):
        state = apply_1d(Ap, state)
        rung, _ = ladder_state_1d(1, n)
        assert state.terms() == rung.terms()


def test_eigencheck_negatives_and_scaling():
    H = build_op_1d("H1")
    assert eigencheck_1d(H, solve_vacuum_1d(3)) is None
    assert eigencheck_1d(H, State1D.power(0)) is None
    rung1, _ = ladder_state_1d(1, 1)
    scaled = rung1.scaled(gs(Fraction(-7, 3)))
    assert eigencheck_1d(H, scaled) == Fraction(3, 2)


def test_eigenvalues_stay_in_the_coefficient_ring():
    rung1, _ = ladder_state_1d(1, 1)
    energy = eigencheck_1d(build_op_1d("H1"), rung1)
    assert isinstance(energy, GradedScalar)
    assert energy == Fraction(3, 2) and hash(energy) == hash(Fraction(3, 2))
    assert energy.text() == "3/2"
    # a zero image gives the ring's zero
    zero = eigencheck_1d(build_op_1d("a_minus", 1), solve_vacuum_1d(1))
    assert isinstance(zero, GradedScalar) and zero.is_zero()


def test_depth_limit_default_and_override(monkeypatch):
    assert depth_limit() == DEFAULT_DEPTH_LIMIT == 64
    monkeypatch.setenv(DEPTH_LIMIT_ENV, "3")
    assert depth_limit() == 3
    ladder_state_1d(1, 3)
    with pytest.raises(DepthExceeded):
        ladder_state_1d(1, 4)


# ---------------------------------------------------------------------------
# factorization of H1 through the alpha ladders


def test_factorization_defect_off_the_special_branches():
    # a+ a- = H1 + (alpha - 1/2) + (alpha^2 + alpha - 2)/2 * x^-2,
    # so the extra x^-2 term vanishes exactly at alpha = 1 and alpha = -2
    H = build_op_1d("H1")
    for alpha in (Fraction(0), Fraction(3), Fraction(-1, 2), Fraction(1), Fraction(-2)):
        prod = compose_1d(
            build_op_1d("a_plus", alpha=alpha), build_op_1d("a_minus", alpha=alpha)
        )
        defect = Fraction(alpha * alpha + alpha - 2, 2)
        expected = DiffOp1D(
            H.terms()
            + (((Fraction(0), 0), gs(alpha - HALF)),)
            + (((Fraction(-2), 0), gs(defect)),)
        )
        assert prod.terms() == expected.terms()
        if alpha in (1, -2):
            assert expected.coefficient(Fraction(-2), 0) == GradedScalar.one()


# ---------------------------------------------------------------------------
# regularized inner product


def test_inner_frozen_values():
    vac1 = solve_vacuum_1d(1)
    assert inner_1d(vac1, vac1).text() == "-1*pi^(1/2)"
    vac_reg = solve_vacuum_1d(-2)
    assert inner_1d(vac_reg, vac_reg).text() == "3/8*pi^(1/2)"
    rung1, _ = ladder_state_1d(1, 1)
    assert inner_1d(vac1, rung1).is_zero()
    assert inner_1d(rung1, rung1).text() == "2*pi^(1/2)"


def test_inner_hamiltonian_symmetry_spot():
    H = build_op_1d("H1")
    f, _ = ladder_state_1d(1, 2)
    g, _ = ladder_state_1d(1, 3)
    assert inner_1d(apply_1d(H, f), g).terms() == inner_1d(f, apply_1d(H, g)).terms()


@settings(max_examples=40, deadline=None)
@given(_states, _states)
def test_inner_is_symmetric(f, g):
    # mixed half-integer exponent sums fall outside the gamma table and
    # poles can appear; either failure must be mirrored under swapping
    try:
        lhs = inner_1d(f, g)
    except (DomainError, PoleError) as err:
        with pytest.raises(type(err)):
            inner_1d(g, f)
        return
    assert lhs.terms() == inner_1d(g, f).terms()


@settings(max_examples=40, deadline=None)
@given(_states, _coeffs)
def test_inner_is_homogeneous(f, c):
    try:
        base = inner_1d(f, f)
    except (DomainError, PoleError):
        return
    scaled = inner_1d(f.scaled(gs(c)), f)
    assert scaled.terms() == (base * gs(c)).terms()


def test_inner_is_additive():
    f = lincomb((-1, 1), (1, 2))
    g = lincomb((0, 3), (2, -1))
    h = lincomb((1, -2), (3, 5))
    combined = State1D(f.terms() + g.terms())
    assert (
        inner_1d(combined, h).terms()
        == (inner_1d(f, h) + inner_1d(g, h)).terms()
    )


def test_inner_gamma_poles():
    with pytest.raises(PoleError):
        inner_1d(State1D.power(0), State1D.power(-1))
    with pytest.raises(PoleError):
        inner_1d(State1D.power(Fraction(-3, 2)), State1D.power(Fraction(-3, 2)))


def test_inner_matches_quadrature_on_convergent_pairs():
    # convergent means the combined exponent stays above -1 at the origin
    pairs = [
        (State1D.power(0), State1D.power(0)),
        (State1D.power(1), State1D.power(2)),
        (State1D.power(Fraction(1, 2)), State1D.power(Fraction(-1, 2))),
        (lincomb((0, 1), (2, -3)), lincomb((1, 2), (3, 1))),
        (solve_vacuum_1d(-2), solve_vacuum_1d(-2)),
    ]
    for f, g in pairs:
        exact = float(gs_to_sympy(inner_1d(f, g)))
        approx = quad_inner1d(f, g)
        assert approx == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# localization at the origin


def test_localization_classes():
    loc, div = localization_1d(solve_vacuum_1d(1))
    assert loc and div.kind == "power" and div.order == 1
    loc, div = localization_1d(State1D.power(Fraction(-1, 2)))
    assert loc and div.kind == "log" and div.order is None
    loc, div = localization_1d(State1D.power(Fraction(-5, 2)))
    assert loc and div.kind == "power" and div.order == 4
    loc, div = localization_1d(State1D.power(2))
    assert not loc and div.kind == "none"


def test_localization_along_the_ladders():
    for n in range(9):
        state, _ = ladder_state_1d(1, n)
        loc, div = localization_1d(state)
        assert loc and div.kind == "power" and div.order == 1
    for n in range(9):
        state, _ = ladder_state_1d(-2, n)
        loc, div = localization_1d(state)
        assert not loc and div.kind == "none"


def test_localization_rejects_zero_state():
    with pytest.raises(DomainError):
        localization_1d(State1D.zero())
