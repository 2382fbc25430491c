"""Codec round trips and the report serializers."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kreinosc import (
    DomainError,
    EpsScalar,
    GradedScalar,
    Monomial2D,
    State1D,
    State2D,
    build_op_1d,
    build_op_2d,
    inner_2d,
    omega,
    solve_vacuum_1d,
)
from kreinosc.jsonio import (
    EXACT_UNAVAILABLE,
    MAX_EPS_POWER,
    audit_to_json,
    dark_to_json,
    eps_from_json,
    eps_to_json,
    frac_from_text,
    frac_text,
    graded_from_json,
    graded_to_json,
    gram_to_json,
    laurent_to_json,
    op1d_to_json,
    op2d_to_json,
    quotient_to_json,
    state1d_from_json,
    state1d_to_json,
    state2d_from_json,
    state2d_to_json,
    state_from_json,
)
from kreinosc.sectors import (
    dark_check,
    eps_sector,
    gram,
    identity_audit,
    preset_sector,
    quotient_report,
)

_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_graded = st.lists(
    st.tuples(_fracs, st.integers(0, 1), st.integers(-3, 4)), max_size=3
).map(
    lambda terms: sum(
        (GradedScalar.monomial(q, j, k) for q, j, k in terms),
        GradedScalar.zero(),
    )
)
def _eps_poly(coeffs):
    e = EpsScalar.affine(0, 1)
    out = EpsScalar.zero()
    power = EpsScalar.one()
    for c in coeffs:
        out = out + EpsScalar.of(c) * power
        power = power * e
    return out


_eps = st.lists(_graded, min_size=1, max_size=3).map(_eps_poly)


# ---------------------------------------------------------------------------
# scalar codecs


def test_fraction_text_round_trip():
    for q in (Fraction(0), Fraction(-3, 2), Fraction(7), Fraction(22, 7)):
        assert frac_from_text(frac_text(q)) == q
    with pytest.raises(DomainError):
        frac_from_text("3/0")
    with pytest.raises(DomainError):
        frac_from_text("pi")


@given(_graded)
def test_graded_round_trip(g):
    doc = json.loads(json.dumps(graded_to_json(g)))
    assert graded_from_json(doc).terms() == g.terms()


@given(_eps)
def test_eps_round_trip(e):
    doc = json.loads(json.dumps(eps_to_json(e)))
    assert eps_from_json(doc) == e


def test_eps_terms_add_at_their_powers():
    def term(power, q, k=0):
        return {"power": power, "coeff": [{"j": 0, "k": k, "q": q}]}

    doc = [term(3, "2"), term(0, "1/2"), term(3, "-2"), term(1, "1", 1), term(0, "1/2")]
    # the two power-3 terms cancel, the two constant ones add
    assert eps_from_json(doc) == EpsScalar.affine(1, GradedScalar.sqrt_pi())
    assert eps_from_json(doc).degree() == 1
    assert eps_from_json([term(4, "1"), term(4, "-1")]).is_zero()
    assert eps_from_json([]).is_zero()
    top = eps_from_json([term(40, "3")])
    assert top.degree() == 40 and top.coeff(40) == 3 and not top.coeff(39)


def test_scalar_codec_rejections():
    with pytest.raises(DomainError):
        graded_from_json({"j": 0})
    with pytest.raises(DomainError):
        graded_from_json([{"j": 0, "k": 0}])
    with pytest.raises(DomainError):
        graded_from_json([{"j": "x", "k": 0, "q": "1"}])
    with pytest.raises(DomainError):
        eps_from_json("e")
    with pytest.raises(DomainError):
        eps_from_json([{"power": -1, "coeff": []}])
    with pytest.raises(DomainError):
        eps_from_json([{"power": "x", "coeff": []}])
    one = [{"j": 0, "k": 0, "q": "1"}]
    assert eps_from_json([{"power": MAX_EPS_POWER, "coeff": one}]).degree() == MAX_EPS_POWER
    with pytest.raises(DomainError, match="exceeds the bound"):
        eps_from_json([{"power": MAX_EPS_POWER + 1, "coeff": one}])


# ---------------------------------------------------------------------------
# state codecs


def test_state1d_round_trip_with_label():
    s = solve_vacuum_1d(1)
    doc = json.loads(json.dumps(state1d_to_json(s)))
    assert doc["space"] == "1d"
    assert doc["label"] == "vacuum(alpha=1)"
    back = state1d_from_json(doc)
    assert back.terms() == s.terms()
    assert back.label == s.label


_exps1 = st.integers(-4, 6).map(lambda k: Fraction(k, 2))
_state1 = st.lists(st.tuples(_exps1, _fracs), min_size=1, max_size=3).map(
    lambda pairs: State1D(
        tuple((e, GradedScalar.rational(c)) for e, c in pairs)
    )
)


@given(_state1)
def test_state1d_round_trip(s):
    back = state1d_from_json(json.loads(json.dumps(state1d_to_json(s))))
    assert back.terms() == s.terms()


_slopes = st.integers(0, 1)
_monos = st.builds(
    lambda l, ls, m, ms: Monomial2D(l, ls, m, ms), _exps1, _slopes, _exps1, _slopes
)
_state2 = st.builds(
    lambda pairs, renorm: State2D(
        tuple((m, EpsScalar.of(c)) for m, c in pairs), renorm_power=renorm
    ),
    st.lists(st.tuples(_monos, _fracs), min_size=1, max_size=3),
    st.sampled_from([Fraction(0), Fraction(1, 2)]),
)


@given(_state2)
def test_state2d_round_trip(s):
    back = state2d_from_json(json.loads(json.dumps(state2d_to_json(s))))
    assert back.terms() == s.terms()
    assert back.renorm_power == s.renorm_power


def test_state_dispatch():
    one = state_from_json(state1d_to_json(State1D.power(2)))
    assert one.terms() == State1D.power(2).terms()
    two = state_from_json(state2d_to_json(omega(-1, 0, lam_slope=1)))
    assert two.terms() == omega(-1, 0, lam_slope=1).terms()
    with pytest.raises(DomainError):
        state_from_json({"space": "3d", "terms": []})
    with pytest.raises(DomainError):
        state_from_json(["not", "a", "state"])


def test_state_codec_rejections():
    with pytest.raises(DomainError):
        state1d_from_json({"space": "1d"})
    bad_slope = {
        "space": "2d",
        "renorm": "0",
        "terms": [
            {
                "lam": "0",
                "lam_slope": 3,
                "mu": "0",
                "mu_slope": 0,
                "coeff": [{"power": 0, "coeff": [{"j": 0, "k": 0, "q": "1"}]}],
            }
        ],
    }
    with pytest.raises(DomainError):
        state2d_from_json(bad_slope)
    bad_slope["terms"][0]["lam_slope"] = "x"
    with pytest.raises(DomainError):
        state2d_from_json(bad_slope)
    with pytest.raises(DomainError):
        state2d_from_json({"space": "2d", "renorm": "1", "terms": []})


# ---------------------------------------------------------------------------
# operator and value serializers


def test_op_serializers_are_exact():
    doc = op1d_to_json(build_op_1d("H1"))
    assert doc["space"] == "1d"
    assert doc["terms"][0] == {
        "exp": "-2",
        "dorder": 0,
        "coeff": [{"j": 0, "k": 0, "q": "1"}],
    }
    doc2 = op2d_to_json(build_op_2d("b_pp"))
    assert doc2["space"] == "2d"
    assert all({"zbar", "z", "dzbar", "dz", "coeff"} <= set(t) for t in doc2["terms"])


def test_laurent_serialization_marks_missing_exact_part():
    s = omega(-1, 0, lam_slope=1)
    doc = laurent_to_json(inner_2d(s, s))
    assert doc["pole"] == [{"j": 0, "k": 2, "q": "1"}]
    assert doc["finite"] == EXACT_UNAVAILABLE
    assert isinstance(doc["finite_numeric"], float)
    convergent = laurent_to_json(inner_2d(omega(0, 0), omega(0, 0)))
    assert convergent["pole"] == []
    assert convergent["finite"] == [{"j": 0, "k": 2, "q": "1"}]


# ---------------------------------------------------------------------------
# report serializers


def test_gram_report_shape():
    doc = gram_to_json(gram(preset_sector("half-zbar", 1), Fraction(1, 2)))
    assert doc["charge_text"] == "1/2"
    assert doc["nodes"] == [1, 3]
    assert doc["signature"] == {"plus": 2, "minus": 0, "zero": 0}
    assert doc["entries"] == [["1/2*pi^(3/2)", "0"], ["0", "1*pi^(3/2)"]]
    assert doc["renormalized"] is False
    json.dumps(doc)  # must be serializable as-is


def test_quotient_report_shape():
    doc = quotient_to_json(quotient_report(eps_sector(-1, 1)))
    assert doc["dim_total"] == 4
    assert doc["dim_null"] >= 1
    assert all("charge_text" in block for block in doc["blocks"])
    json.dumps(doc)


def test_audit_report_shape():
    doc = audit_to_json(identity_audit())
    assert doc["passed"] == 15
    assert doc["failed"] == 2
    assert doc["failed_ids"] == ["hamiltonian-bilinear-form", "charge-bilinear-form"]
    assert len(doc["identities"]) == 17
    first = doc["identities"][0]
    assert set(first) == {
        "identity_id",
        "lhs",
        "rhs",
        "status",
        "residual",
        "corrected_form",
    }
    json.dumps(doc)


def test_dark_report_shape():
    report = dark_check(preset_sector("half-zbar", 1), preset_sector("half-z", 1), 1)
    doc = dark_to_json(report)
    assert doc["dark"] is False
    assert doc["max_degree"] == 1
    assert doc["nodes"] == {"a": 4, "b": 4}
    assert doc["entries"][0]["monomial"] == "1"
    assert doc["entries"][0]["value"] == "1/2*pi"
    assert doc["entries"][0]["value_exact"] == [{"j": 0, "k": 2, "q": "1/2"}]
    json.dumps(doc)
