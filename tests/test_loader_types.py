"""Malformed rationals and booleans are refused with ``domain``.

Library calls that take a rational accept its text, and text that is not
a rational raises DomainError, like a value of any other wrong type.  The
loaders take an integer field only from a JSON integer: a boolean is
refused, not read as 0 or 1.
"""

from __future__ import annotations

import json

import pytest

from kreinosc import lattice_export, omega, preset_sector
from kreinosc.algebra1d import build_op_1d, ladder_state_1d, solve_vacuum_1d
from kreinosc.algebra2d import closed_form
from kreinosc.cli import main
from kreinosc.errors import DomainError
from kreinosc.jsonio import state2d_to_json
from kreinosc.scalars import gamma_exact
from kreinosc.sectors import lattice_from_json


CALLS = {
    'omega("x", 0)': (lambda: omega("x", 0), "x"),
    'omega("1/0", 0)': (lambda: omega("1/0", 0), "1/0"),
    'solve_vacuum_1d("x")': (lambda: solve_vacuum_1d("x"), "x"),
    'ladder_state_1d("1/0", 1)': (lambda: ladder_state_1d("1/0", 1), "1/0"),
    'gamma_exact("x")': (lambda: gamma_exact("x"), "x"),
    'closed_form("H", "x", 0)': (lambda: closed_form("H", "x", 0), "x"),
    'build_op_1d("a_plus", "x")': (lambda: build_op_1d("a_plus", "x"), "x"),
}


@pytest.mark.parametrize("call, text", CALLS.values(), ids=CALLS.keys())
def test_malformed_rational_text_is_a_domain_error(call, text):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == "expected a rational, got %r" % text


def _cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


FIELDS = ("power", "lam_slope", "mu_slope")


def _put_true(term: dict, field: str) -> None:
    """Set an integer field of a planar state term (its first eps power) to true."""
    (term["coeff"][0] if field == "power" else term)[field] = True


@pytest.mark.parametrize("field", FIELDS)
def test_a_boolean_in_a_state_file_is_a_domain_error(capsys, tmp_path, field):
    doc = state2d_to_json(omega(0, 0))
    _put_true(doc["terms"][0], field)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    spec = "file:%s" % path
    rc, out, err = _cli(capsys, "inner", "--lhs", spec, "--rhs", "psi0")
    assert (rc, out, json.loads(err)["error"]) == (1, "", "domain")


@pytest.mark.parametrize("field", FIELDS)
def test_a_boolean_in_a_sector_document_is_a_domain_error(capsys, tmp_path, field):
    doc = json.loads(lattice_export(preset_sector("vacuum", 1), "json"))
    _put_true(doc["nodes"][0]["state"]["terms"][0], field)
    with pytest.raises(DomainError):
        lattice_from_json(doc)
    path = tmp_path / "sector.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = _cli(capsys, "gram", "--sector", str(path))
    assert (rc, out, json.loads(err)["error"]) == (1, "", "domain")


def test_a_boolean_eps_power_of_a_node_energy_is_a_domain_error():
    doc = json.loads(lattice_export(preset_sector("vacuum", 1), "json"))
    doc["nodes"][0]["energy"][0]["power"] = True
    with pytest.raises(DomainError, match="eps power must be an integer"):
        lattice_from_json(doc)
