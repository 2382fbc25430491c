"""The line algebra's forms and couplings are data in algebra1d.

build_op_1d reads _FORMS_1D and _FIRST_ORDER and builds every named line
operator with the terms, key types and stored order written out below.
_COUPLINGS is the one statement of the two couplings at which the ladder
family closes: a wrong constant fails exactly the audit relation that
restates it, and the rung energies follow the table.
"""

from fractions import Fraction

import pytest

from kreinosc import algebra1d, sectors
from kreinosc.algebra1d import build_op_1d, ladder_states_1d
from kreinosc.errors import DomainError, MissingParameter
from kreinosc.scalars import GradedScalar
from kreinosc.sectors import identity_audit

F = Fraction
R = GradedScalar.rational
HALF_ROOT2 = GradedScalar.monomial(F(1, 2), 1, 0)  # 2^(-1/2) = 2^(1/2) / 2

# the stored terms of each operator, in stored order
FORMS = {
    "H1": [((F(0), 2), R(F(-1, 2))), ((F(2), 0), R(F(1, 2))), ((F(-2), 0), R(1))],
    "A_plus": [
        ((F(0), 2), R(F(1, 2))),
        ((F(1), 1), R(-1)),
        ((F(2), 0), R(F(1, 2))),
        ((F(-2), 0), R(-1)),
        ((F(0), 0), R(F(-1, 2))),
    ],
    "A_minus": [
        ((F(0), 2), R(F(1, 2))),
        ((F(1), 1), R(1)),
        ((F(2), 0), R(F(1, 2))),
        ((F(-2), 0), R(-1)),
        ((F(0), 0), R(F(1, 2))),
    ],
    "X": [((F(1), 0), R(1))],
    "D": [((F(0), 1), R(1))],
}


def first_order(sign, alpha):
    terms = [((F(0), 1), HALF_ROOT2 * sign), ((F(1), 0), HALF_ROOT2)]
    if alpha:
        terms.append(((F(-1), 0), HALF_ROOT2 * F(alpha)))
    return terms


CASES = [(name, None, terms) for name, terms in FORMS.items()] + [
    (name, alpha, first_order(sign, alpha))
    for name, sign in (("a_plus", -1), ("a_minus", 1))
    for alpha in (1, -2, 0, F(3, 2))
]

# the two claims the audit reports as failing, with their corrected forms
CORRECTED = {"hamiltonian-bilinear-form", "charge-bilinear-form"}


def failing(verdicts):
    return {v.identity_id for v in verdicts if not v.holds}


@pytest.mark.parametrize("name, alpha, terms", CASES)
def test_each_operator_has_its_written_out_terms(name, alpha, terms):
    op = build_op_1d(name, alpha)
    assert list(op._terms.items()) == terms
    assert [tuple(map(type, key)) for key in op._terms] == [(Fraction, int)] * len(terms)
    assert op.terms() == tuple(sorted(terms, key=lambda t: (t[0][1], t[0][0])))


def test_refusals_keep_their_order_and_codes():
    with pytest.raises(MissingParameter, match="operator a_minus requires parameter alpha"):
        build_op_1d("a_minus")
    for name in ("H1", "nope"):
        with pytest.raises(DomainError, match="operator %s takes no parameter" % name):
            build_op_1d(name, 1)
    with pytest.raises(DomainError, match="unknown 1d operator 'nope'"):
        build_op_1d("nope")


@pytest.mark.parametrize("name", [("a", "b"), ["H1"], ("a_plus",)])
def test_a_name_outside_the_tables_is_a_domain_error(name):
    with pytest.raises(DomainError) as err:
        build_op_1d(name)
    assert err.value.code == "domain"
    assert str(err.value) == "unknown 1d operator %r" % (name,)


def test_the_audit_rows_are_written_from_the_couplings():
    assert sectors._RELATIONS[-2:] == sectors._line_relations() == (
        ("line-factorization-alpha-plus", (("a+@1 a-@1", "H1 + 1/2"),)),
        ("line-factorization-alpha-minus", (("a+@-2 a-@-2", "H1 - 5/2"),)),
    )
    assert failing(identity_audit()) == CORRECTED


@pytest.mark.parametrize("alpha, tag", [(1, "plus"), (-2, "minus")])
def test_a_wrong_constant_fails_exactly_its_own_relation(monkeypatch, alpha, tag):
    c = algebra1d._COUPLINGS[alpha][1] + 1
    monkeypatch.setitem(algebra1d._COUPLINGS, alpha, (tag, c))
    verdicts = identity_audit()
    assert failing(verdicts) == {"line-factorization-alpha-%s" % tag} | CORRECTED
    line = [v for v in verdicts if v.identity_id.startswith("line-")]
    assert [v.identity_id for v in line] == [
        "line-factorization-alpha-plus",
        "line-vacuum-annihilation-alpha-plus",
        "line-factorization-alpha-minus",
        "line-vacuum-annihilation-alpha-minus",
    ]
    assert [energy for _, energy in ladder_states_1d(alpha, 3)] == [-c, 2 - c, 4 - c]


def test_rung_energies_and_the_refusal_message():
    assert [e for _, e in ladder_states_1d(1, 3)] == [F(-1, 2), F(3, 2), F(7, 2)]
    assert [e for _, e in ladder_states_1d(-2, 2)] == [F(5, 2), F(9, 2)]
    with pytest.raises(DomainError, match="^ladder family requires alpha -2 or 1, got 1/2$"):
        ladder_states_1d(F(1, 2), 1)
