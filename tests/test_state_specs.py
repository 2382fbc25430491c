"""The CLI's state arguments: every malformed spec is refused with its message.

``load_state_spec`` reads psi0, omega:L,M, eps:L, eps-conj:M and file:PATH.
A form name without its colon, a misspelt or miscased name, a wrong number
of exponents and an exponent that is no rational (exponent notation and a
zero denominator included) are coded ``domain`` errors, and the CLI prints
each as one JSON line on stderr and exits 1.
"""

import json
from fractions import Fraction

import pytest

from kreinosc import DomainError
from kreinosc.cli import load_state_spec, main

UNRECOGNIZED = "unrecognized state %r; use psi0, omega:L,M, eps:L, eps-conj:M, or file:PATH"
TWO_RATIONALS = "omega: takes two comma-separated rationals"
MALFORMED = "malformed exponent in %r"

CASES = [
    ("psi0:", UNRECOGNIZED),
    ("psi0x", UNRECOGNIZED),
    ("file", UNRECOGNIZED),
    ("eps", UNRECOGNIZED),
    ("eps:", MALFORMED),
    ("eps:1,2", MALFORMED),
    ("eps:1e3", MALFORMED),
    ("eps-conj:x", MALFORMED),
    ("omega", UNRECOGNIZED),
    ("omega:", TWO_RATIONALS),
    ("omega:1,2,3", TWO_RATIONALS),
    ("omega:a,1", MALFORMED),
    ("omega:1,1/0", MALFORMED),
    ("Omega:1,2", UNRECOGNIZED),
]


def _message(spec, template):
    return template % spec if "%r" in template else template


@pytest.mark.parametrize("spec, template", CASES, ids=[spec for spec, _ in CASES])
def test_a_malformed_state_spec_is_refused(spec, template):
    with pytest.raises(DomainError) as exc:
        load_state_spec(spec)
    assert exc.value.code == "domain"
    assert str(exc.value) == _message(spec, template)


@pytest.mark.parametrize("spec, template", CASES, ids=[spec for spec, _ in CASES])
def test_the_cli_prints_the_refusal(spec, template, capsys):
    assert main(["localize", "--state", spec]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps(
        {"error": "domain", "message": _message(spec, template)}, sort_keys=True
    ) + "\n"


@pytest.mark.parametrize(
    "spec, terms",
    [
        ("psi0", [(0, 0, 0, 0)]),
        ("omega:1/2,-3", [(Fraction(1, 2), 0, -3, 0)]),
        ("eps:-1", [(-1, 1, 0, 0)]),
        ("eps-conj:2", [(0, 0, 2, 1)]),
    ],
)
def test_the_well_formed_specs_build_their_states(spec, terms):
    state = load_state_spec(spec)
    assert [(m.lam, m.lam_slope, m.mu, m.mu_slope) for m, _c in state.terms()] == terms
    assert state.renorm_power == (0 if spec.startswith(("psi0", "omega")) else Fraction(1, 2))
