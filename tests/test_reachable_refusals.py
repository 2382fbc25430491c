"""Refusals the library can reach, each pinned to its code and message.

One row per refusal that no other test reaches: environment and
constructor checks, state arithmetic and analysis preconditions, the
document loaders and the expression tokenizer.  A row raises where it is
called; the CLI rows go through ``main`` and read the error from stderr.
"""

import json
from fractions import Fraction

import pytest

from kreinosc import (
    DiffOp1D,
    EpsScalar,
    LabError,
    angular_decompose,
    bridge_audit,
    classify_limit,
    depth_limit,
    ladder_state_1d,
    lattice_export,
    lattice_from_json,
    localization_2d,
    omega,
    preset_sector,
    states_proportional,
)
from kreinosc.algebra1d import DEPTH_LIMIT_ENV
from kreinosc.cli import main
from kreinosc.jsonio import state1d_from_json, state2d_to_json


def _edge_with_unknown_generator():
    doc = json.loads(lattice_export(preset_sector("vacuum", 1), "json"))
    doc["edges"][0]["generator"] = "b_xx"
    return lattice_from_json(doc)


DEFORMED = omega(0, 0, lam_slope=1)
EPS_COEFF = omega(0, 0).scaled(EpsScalar.affine(1, 1))

# (call, error code, message fragment)
LIBRARY = [
    (lambda: DiffOp1D({(0, 1, 2): 1}), "domain", "DiffOp1D keys have 2 entries"),
    (lambda: DiffOp1D({(0, -1): 1}), "domain", "derivative order must be non-negative"),
    (lambda: ladder_state_1d(1, -1), "domain", "ladder index must be non-negative"),
    (
        lambda: omega(0, 0) + omega(0, 0).with_renorm(Fraction(1, 2)),
        "domain",
        "cannot add states with different renorm powers",
    ),
    (lambda: localization_2d(DEFORMED), "domain", "localization applies to slope-free states"),
    (lambda: classify_limit(omega(1, 0)), "domain", "applies to eps-deformed states"),
    (lambda: angular_decompose(EPS_COEFF), "domain", "requires eps-free coefficients"),
    (lambda: bridge_audit(11), "domain", "n_max must be between 0 and 10"),
    (lambda: EpsScalar.one().try_div(EpsScalar()), "domain", "division by zero polynomial"),
    (
        lambda: state1d_from_json(state2d_to_json(omega(0, 0))),
        "domain",
        'line state JSON must carry "space": "1d"',
    ),
    (_edge_with_unknown_generator, "domain", "unknown generator 'b_xx' in sector document"),
]
LIBRARY_IDS = [
    "diffop-key-length", "diffop-negative-order", "ladder-negative-index",
    "add-renorm-powers", "localize-deformed", "classify-undeformed", "decompose-eps-coeff",
    "bridge-n-max", "eps-zero-divisor", "line-loader-space", "sector-edge-generator",
]


@pytest.mark.parametrize("call, code, fragment", LIBRARY, ids=LIBRARY_IDS)
def test_a_library_refusal_is_coded(call, code, fragment):
    with pytest.raises(LabError) as err:
        call()
    assert err.value.code == code
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "raw, fragment",
    [("x", "must be an integer, got 'x'"), ("-1", "must be non-negative")],
    ids=["not-an-integer", "negative"],
)
def test_a_bad_depth_limit_is_coded(monkeypatch, raw, fragment):
    monkeypatch.setenv(DEPTH_LIMIT_ENV, raw)
    with pytest.raises(LabError) as err:
        depth_limit()
    assert err.value.code == "domain"
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "expr, message",
    [
        ("3/ x", "malformed rational literal (at byte 1)"),
        ("x ²", "unexpected character '²' (at byte 2)"),
    ],
    ids=["slash-without-digits", "non-decimal-digit"],
)
def test_a_malformed_literal_is_a_syntax_error(capsys, expr, message):
    assert main(["eval", "--expr", expr]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "syntax", "message": message}


def test_a_non_polynomial_ratio_is_returned_unreduced():
    num, den = states_proportional(omega(0, 0), EPS_COEFF)
    assert num == 1
    assert den == EpsScalar.affine(1, 1)
    assert den.text() == "1+e"
