"""Large values, and the value checks of the loaders.

Exact gamma moments overflow a float from Gamma(172) on; the exact
commands must still answer, and ``inner``, whose output carries the float
mirror ``finite_numeric``, fails with ``domain`` instead of printing a
non-finite number.  Exact gamma has a bounded argument, exact values too
long to print and rationals in exponent notation are refused, all with
``domain`` and fast.  The loaders check the type and range of each field
instead of coercing it.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import pytest

from kreinosc import lattice_export, omega, preset_sector
from kreinosc.cli import main
from kreinosc.errors import DomainError, PoleError
from kreinosc.jsonio import MAX_GRADE, graded_from_json, state2d_to_json
from kreinosc.scalars import MAX_GAMMA_ARG, GradedScalar, gamma_exact, gamma_laurent
from kreinosc.sectors import lattice_from_json

# pi * Gamma(173): the squared norm of zbar^86 z^86, and of zbar^172
PI_GAMMA_173 = [{"j": 0, "k": 2, "q": str(math.factorial(172))}]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, ""), err
    return json.loads(out)


# ---------------------------------------------------------------------------
# gamma moments beyond the float range
# ---------------------------------------------------------------------------


def test_float_of_a_scalar_beyond_the_float_range():
    assert float(GradedScalar.rational(math.factorial(171))) == math.inf
    assert float(GradedScalar.rational(-math.factorial(171))) == -math.inf
    assert float(GradedScalar.monomial(1, 0, 4000)) == math.inf
    assert float(GradedScalar.monomial(1, 0, -4000)) == 0.0
    # q alone overflows, pi^(k/2) brings the term back into range
    back = float(GradedScalar.monomial(math.factorial(171), 1, -200))
    want = math.exp(math.lgamma(172) + math.log(2) / 2 - 100 * math.log(math.pi))
    assert back == pytest.approx(want, rel=1e-12)


def test_inner_with_an_overflowing_float_mirror_is_a_domain_error(capsys):
    rc, out, err = run(capsys, "inner", "--lhs", "omega:86,86", "--rhs", "omega:86,86")
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "error": "domain",
        "message": "finite_numeric, the float mirror, is out of the float range",
    }


def test_renormalized_inner_beyond_the_float_range(capsys):
    doc = run_json(capsys, "inner", "--lhs", "omega:86,86", "--rhs", "omega:86,86", "--renorm")
    assert doc["value_exact"] == PI_GAMMA_173


def test_gram_beyond_the_float_range(capsys):
    doc = run_json(capsys, "gram", "--seed", "omega:172,0", "--depth", "1")
    blocks = {tuple(b["nodes"]): b for b in doc["blocks"]}
    assert sorted(blocks) == [(0,), (1, 3), (2,)]
    assert blocks[(0,)]["entries_exact"] == [[PI_GAMMA_173]]
    assert blocks[(1, 3)]["signature"] == {"plus": 2, "minus": 0, "zero": 0}


def test_dark_scan_beyond_the_float_range(capsys):
    doc = run_json(
        capsys, "dark", "--a", "omega:172,0", "--b", "omega:172,0", "--depth", "1", "--degree", "1"
    )
    assert doc["dark"] is False
    first = doc["entries"][0]
    assert (first["monomial"], first["node_a"], first["node_b"]) == ("1", 0, 0)
    assert first["value_exact"] == PI_GAMMA_173


def test_localize_beyond_the_float_range(capsys):
    doc = run_json(capsys, "localize", "--state", "eps:172")
    assert (doc["limit_class"], doc["localized"]) == ("ordinary", False)


# ---------------------------------------------------------------------------
# bounded work on large inputs
# ---------------------------------------------------------------------------


def test_exact_gamma_is_bounded():
    assert gamma_exact(MAX_GAMMA_ARG) == GradedScalar.rational(math.factorial(MAX_GAMMA_ARG - 1))
    assert gamma_exact(Fraction(1 - 2 * MAX_GAMMA_ARG, 2))
    for arg in (MAX_GAMMA_ARG + 1, Fraction(-1 - 2 * MAX_GAMMA_ARG, 2)):
        with pytest.raises(DomainError, match="exceeds the exact bound"):
            gamma_exact(arg)
    # a pole costs nothing at any size, and stays a pole
    with pytest.raises(PoleError):
        gamma_exact(-(10**9))
    assert gamma_laurent(-MAX_GAMMA_ARG, 1).pole
    with pytest.raises(DomainError, match="exceeds the exact bound"):
        gamma_laurent(-MAX_GAMMA_ARG - 1, 1)


def test_a_distant_pole_keeps_its_code(capsys):
    rc, _, err = run(capsys, "inner", "--lhs", "omega:-3000,0", "--rhs", "omega:-3000,0")
    assert (rc, json.loads(err)["error"]) == (1, "pole")
    doc = run_json(capsys, "localize", "--state", "eps:-5000")
    assert doc["limit_class"] == "singular"


def test_huge_exponents_fail_fast(capsys):
    start = time.perf_counter()
    spec = "omega:1000000000,0"
    rc, out, err = run(capsys, "inner", "--lhs", spec, "--rhs", spec, "--renorm")
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "error": "domain",
        "message": "gamma argument 1000000001 exceeds the exact bound %d" % MAX_GAMMA_ARG,
    }


def test_a_value_too_long_to_print_is_a_domain_error(capsys):
    # (4000)! has 12674 digits, above Python's int-to-text limit of 4300
    rc, out, err = run(capsys, "inner", "--lhs", "omega:2000,0", "--rhs", "omega:2000,0", "--renorm")
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "an exact value has too many digits to print"}


def test_exponent_notation_is_refused(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "inner", "--lhs", "omega:1e9999999,0", "--rhs", "psi0")
    assert (rc, out, json.loads(err)["error"]) == (1, "", "domain")
    with pytest.raises(DomainError, match="malformed rational"):
        graded_from_json([{"j": 0, "k": 0, "q": "1E9999999"}])
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--alpha", "1e9999999"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    # decimals are still rationals
    doc = run_json(capsys, "inner", "--lhs", "omega:0.5,1", "--rhs", "omega:1/2,1")
    assert doc["text"] == "3/4*pi^(3/2)"


@pytest.mark.parametrize("argv", [["localize", "--state=--"], ["eval", "--expr=--"]])
def test_an_option_value_of_two_dashes_is_a_usage_error(capsys, argv):
    # argparse reads "--opt=--" as an empty list, which no command expects
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grade bounds of loaded graded scalars
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grade", ["j", "k"])
@pytest.mark.parametrize("sign", [1, -1])
def test_grades_are_bounded(grade, sign):
    def term(value):
        t = {"j": 0, "k": 0, "q": "3"}
        t[grade] = value
        return [t]

    at = sign * MAX_GRADE
    want = GradedScalar.monomial(3, **{grade: at})
    assert graded_from_json(term(at)) == want
    with pytest.raises(DomainError) as err:
        graded_from_json(term(at + sign))
    assert "exceeds the bound %d" % MAX_GRADE in str(err.value)


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_grades_must_be_integers(value):
    with pytest.raises(DomainError):
        graded_from_json([{"j": value, "k": 0, "q": "1"}])
    with pytest.raises(DomainError):
        graded_from_json([{"j": 0, "k": value, "q": "1"}])


def test_a_large_pi_grade_in_a_state_file_is_a_domain_error(capsys, tmp_path):
    def inner_of(k):
        doc = state2d_to_json(omega(0, 0))
        doc["terms"][0]["coeff"][0]["coeff"] = [{"j": 0, "k": k, "q": "1"}]
        path = tmp_path / ("k%d.json" % k)
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = "file:%s" % path
        return run(capsys, "inner", "--lhs", spec, "--rhs", spec)

    rc, out, _ = inner_of(MAX_GRADE // 2)
    assert rc == 0
    assert math.isfinite(json.loads(out)["value"]["finite_numeric"])
    for k in (MAX_GRADE, 4000):
        rc, out, err = inner_of(k)
        assert (rc, out, json.loads(err)["error"]) == (1, "", "domain")


# ---------------------------------------------------------------------------
# field types of sector documents
# ---------------------------------------------------------------------------


def _sector_doc() -> dict:
    return json.loads(lattice_export(preset_sector("vacuum", 1), "json"))


def test_the_unmutated_sector_document_loads():
    assert lattice_from_json(_sector_doc()) == preset_sector("vacuum", 1)


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("doc", "depth", 2.9),
        ("doc", "depth", True),
        ("doc", "depth", "2"),
        ("doc", "seed", 5),
        ("doc", "generators", {"b_pp": 1}),
        ("node", "index", 0.0),
        ("node", "depth", True),
        ("edge", "src", "0"),
        ("edge", "dst", 1.0),
        ("edge", "generator", ["b_pp"]),
    ],
)
def test_sector_document_fields_are_checked_not_coerced(where, key, value):
    doc = _sector_doc()
    item = {"doc": doc, "node": doc["nodes"][0], "edge": doc["edges"][0]}[where]
    item[key] = value
    with pytest.raises(DomainError) as err:
        lattice_from_json(doc)
    assert repr(key) in str(err.value)
