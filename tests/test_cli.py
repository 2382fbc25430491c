"""End-to-end checks of the command line front end.

Commands run in-process through main(argv).  Success prints one JSON
document to stdout (export prints the serialization verbatim) and
returns 0; laboratory failures print {"error": code, "message": ...}
to stderr and return 1; malformed command lines exit 2 via argparse.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from kreinosc import (
    dark_check,
    generate_sector,
    gram,
    ladder_state_1d,
    lattice_export,
    omega,
    preset_sector,
    quotient_report,
    solve_vacuum_1d,
)
import kreinosc
from kreinosc.cli import build_parser, main
from kreinosc.jsonio import (
    MAX_EPS_POWER,
    dark_to_json,
    gram_to_json,
    quotient_to_json,
    state1d_to_json,
    state2d_to_json,
)

HALF = Fraction(1, 2)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert err == ""
    return json.loads(out)


def run_error(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert set(doc) == {"error", "message"}
    return doc


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# audit / spectrum / vacuum
# ---------------------------------------------------------------------------


def test_audit_document(capsys):
    doc = run_json(capsys, "audit", "--bridge-depth", "2")
    assert doc["passed"] == 15
    assert doc["failed"] == 2
    assert doc["failed_ids"] == ["hamiltonian-bilinear-form", "charge-bilinear-form"]
    assert len(doc["identities"]) == 17
    assert doc["bridge"]["n_max"] == 2
    assert doc["bridge"]["all_ok"] is True


def test_spectrum_low_rungs(capsys):
    doc = run_json(capsys, "spectrum", "--alpha", "1", "--n", "3")
    assert doc["alpha"] == "1"
    assert [level["energy"] for level in doc["levels"]] == ["-1/2", "3/2", "7/2"]
    for n, level in enumerate(doc["levels"]):
        state, _ = ladder_state_1d(1, n)
        assert level["n"] == n
        assert level["state"] == state1d_to_json(state)


def test_spectrum_default_rung_count(capsys):
    doc = run_json(capsys, "spectrum", "--alpha=-2")
    assert len(doc["levels"]) == 4
    assert doc["levels"][0]["energy"] == "5/2"


def test_spectrum_past_the_depth_limit_fails_before_any_rung(capsys, monkeypatch):
    applied = []
    monkeypatch.setattr(kreinosc.algebra1d, "apply_1d", lambda op, s: applied.append(op))
    start = time.perf_counter()
    doc = run_error(capsys, "spectrum", "--alpha", "1", "--n", "1000")
    assert time.perf_counter() - start < 1.0
    assert doc == {
        "error": "depth-exceeded",
        "message": "ladder index 65 exceeds depth limit 64",
    }
    assert applied == []
    # alpha is checked first; no rungs asked for is no error for any alpha
    assert run_error(capsys, "spectrum", "--alpha", "3", "--n", "1000")["error"] == "domain"
    for n in ("0", "-3"):
        assert run_json(capsys, "spectrum", "--alpha", "3", "--n", n)["levels"] == []


def test_spectrum_raises_each_rung_from_the_one_before(capsys, monkeypatch):
    a_plus = kreinosc.build_op_1d("A_plus")
    real_apply = kreinosc.algebra1d.apply_1d
    raises = []

    def counting_apply(op, s):
        raises.append(op == a_plus)
        return real_apply(op, s)

    monkeypatch.setattr(kreinosc.algebra1d, "apply_1d", counting_apply)
    doc = run_json(capsys, "spectrum", "--alpha=-2", "--n", "6")
    assert len(doc["levels"]) == 6
    assert raises.count(True) == 5


def test_vacuum_distinguished_coupling(capsys):
    doc = run_json(capsys, "vacuum", "--alpha", "1")
    assert doc["energy"] == "-1/2"
    assert doc["state"] == state1d_to_json(solve_vacuum_1d(1))
    assert doc["state"]["label"] == "vacuum(alpha=1)"


def test_vacuum_generic_coupling_has_no_energy(capsys):
    # x^-3 is annihilated by its lowering operator but is not an H1 eigenstate
    doc = run_json(capsys, "vacuum", "--alpha", "3")
    assert doc["energy"] is None
    assert doc["state"]["terms"] == [
        {"coeff": [{"j": 0, "k": 0, "q": "1"}], "exp": "-3"}
    ]


# ---------------------------------------------------------------------------
# inner
# ---------------------------------------------------------------------------


def test_inner_planar_plain(capsys):
    doc = run_json(capsys, "inner", "--lhs", "psi0", "--rhs", "psi0")
    assert doc == {
        "renormalized": False,
        "space": "2d",
        "text": "1*pi",
        "value": {
            "finite": [{"j": 0, "k": 2, "q": "1"}],
            "finite_numeric": pytest.approx(3.141592653589793),
            "pole": [],
        },
    }


def test_inner_planar_divergent_pair_reports_pole(capsys, tmp_path):
    # without the renorm tag the eps shift is absent and the pole survives
    raw = write_doc(
        tmp_path, "raw.json", state2d_to_json(omega(-1, 0, lam_slope=1))
    )
    doc = run_json(capsys, "inner", "--lhs", "file:" + raw, "--rhs", "file:" + raw)
    assert doc["text"] == "(1*pi)/e + unavailable"
    assert doc["value"]["pole"] == [{"j": 0, "k": 2, "q": "1"}]
    assert doc["value"]["finite"] == "unavailable"


def test_inner_tagged_pair_is_finite_without_renorm_flag(capsys):
    doc = run_json(capsys, "inner", "--lhs", "eps:-1", "--rhs", "eps:-1")
    assert doc["value"]["pole"] == []
    assert doc["value"]["finite"] == [{"j": 0, "k": 2, "q": "1"}]


def test_inner_planar_renormalized(capsys):
    doc = run_json(capsys, "inner", "--lhs", "eps:-1", "--rhs", "eps:-1", "--renorm")
    assert doc == {
        "renormalized": True,
        "space": "2d",
        "value": "1*pi",
        "value_exact": [{"j": 0, "k": 2, "q": "1"}],
    }


def test_inner_line_states_via_files(capsys, tmp_path):
    path = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_json(capsys, "inner", "--lhs", "file:" + path, "--rhs", "file:" + path)
    assert doc == {
        "space": "1d",
        "value": "-1*pi^(1/2)",
        "value_exact": [{"j": 0, "k": 1, "q": "-1"}],
    }


def test_inner_refusals(capsys, tmp_path):
    path = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_error(capsys, "inner", "--lhs", "file:" + path, "--rhs", "psi0")
    assert doc["error"] == "domain"
    assert doc["message"] == "cannot pair a line state with a planar state"
    doc = run_error(
        capsys, "inner", "--lhs", "file:" + path, "--rhs", "file:" + path, "--renorm"
    )
    assert doc["message"] == "--renorm applies to planar states only"


def test_state_spec_errors(capsys, tmp_path):
    doc = run_error(capsys, "inner", "--lhs", "bogus", "--rhs", "psi0")
    assert doc["error"] == "domain"
    assert "psi0, omega:L,M, eps:L, eps-conj:M, or file:PATH" in doc["message"]
    doc = run_error(capsys, "inner", "--lhs", "omega:1", "--rhs", "psi0")
    assert doc["message"] == "omega: takes two comma-separated rationals"
    doc = run_error(capsys, "inner", "--lhs", "eps:q", "--rhs", "psi0")
    assert doc["message"] == "malformed exponent in 'eps:q'"
    doc = run_error(capsys, "inner", "--lhs", "file:" + str(tmp_path / "no.json"), "--rhs", "psi0")
    assert doc["message"].startswith("cannot read ")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    doc = run_error(capsys, "inner", "--lhs", "file:" + str(bad), "--rhs", "psi0")
    assert "is not valid JSON" in doc["message"]


# ---------------------------------------------------------------------------
# sector / gram
# ---------------------------------------------------------------------------


def test_sector_preset_matches_library(capsys):
    rc, out, err = run_cli(capsys, "sector", "--preset", "vacuum", "--depth", "2")
    assert rc == 0
    assert out == lattice_export(preset_sector("vacuum", 2), "json")


def test_sector_seed_with_generator_subset(capsys):
    rc, out, err = run_cli(
        capsys, "sector", "--seed", "omega:-1,0", "--gens", "b_pp", "--depth", "2"
    )
    assert rc == 0
    expected = generate_sector(omega(-1, 0), ("b_pp",), 2, seed_text="omega:-1,0")
    assert out == lattice_export(expected, "json")


def test_sector_seed_default_generators(capsys):
    # eps: seeds imply the raising pair plus the matching annihilator
    doc = run_json(capsys, "sector", "--seed", "eps:-1", "--depth", "1")
    seed = omega(-1, 0, lam_slope=1).with_renorm(HALF)
    expected = generate_sector(seed, ("b_pp", "b_pm", "b_mm"), 1, seed_text="eps:-1")
    assert doc == json.loads(lattice_export(expected, "json"))


def test_sector_guards(capsys, tmp_path):
    doc = run_error(capsys, "sector", "--preset", "vacuum", "--gens", "b_pp")
    assert doc["message"] == "--gens cannot be combined with --preset"
    doc = run_error(capsys, "sector", "--seed", "omega:-1,0", "--gens", "b_qq")
    assert doc["message"] == "unknown generator(s): b_qq"
    path = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_error(capsys, "sector", "--seed", "file:" + path)
    assert doc["message"] == "sector seeds must be planar states"


def test_gram_single_block(capsys):
    doc = run_json(capsys, "gram", "--preset", "half-zbar", "--depth", "1", "--charge=-1/2")
    assert doc == gram_to_json(gram(preset_sector("half-zbar", 1), Fraction(-1, 2)))
    assert doc["charge_text"] == "-1/2"
    assert doc["signature"] == {"minus": 0, "plus": 1, "zero": 0}


def test_gram_all_blocks(capsys):
    doc = run_json(capsys, "gram", "--preset", "vacuum", "--depth", "1")
    assert doc == quotient_to_json(quotient_report(preset_sector("vacuum", 1)))
    assert doc["dim_total"] == 3


def test_gram_missing_charge(capsys):
    doc = run_error(capsys, "gram", "--preset", "vacuum", "--depth", "1", "--charge", "7")
    assert doc == {"error": "domain", "message": "no nodes with charge 7"}


def test_gram_from_exported_sector_file(capsys, tmp_path):
    path = str(tmp_path / "sec.json")
    saved = run_json(
        capsys, "export", "--preset", "vacuum", "--depth", "2",
        "--format", "json", "--out", path,
    )
    assert saved["written"] == path
    doc = run_json(capsys, "gram", "--sector", path)
    assert doc == quotient_to_json(quotient_report(preset_sector("vacuum", 2)))


def test_gram_sector_file_rejects_gens(capsys, tmp_path):
    path = str(tmp_path / "sec.json")
    run_json(capsys, "export", "--preset", "vacuum", "--depth", "1",
             "--format", "json", "--out", path)
    doc = run_error(capsys, "gram", "--sector", path, "--gens", "b_pp")
    assert doc["message"] == "--gens cannot be combined with --sector"


@pytest.mark.parametrize("warnings", [None, 0, "ab"])
def test_gram_sector_file_with_malformed_warnings_is_a_domain_error(capsys, tmp_path, warnings):
    path = str(tmp_path / "sec.json")
    run_json(capsys, "export", "--preset", "vacuum", "--depth", "1",
             "--format", "json", "--out", path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["warnings"] = warnings
    bad = write_doc(tmp_path, "bad.json", doc)
    err = run_error(capsys, "gram", "--sector", bad)
    assert err == {
        "error": "domain",
        "message": "sector document warnings must be a list of strings",
    }


# ---------------------------------------------------------------------------
# dark
# ---------------------------------------------------------------------------


def test_dark_between_presets(capsys):
    doc = run_json(
        capsys, "dark", "--a", "vacuum", "--b", "half-zbar", "--depth", "2", "--degree", "2"
    )
    expected = dark_check(preset_sector("vacuum", 2), preset_sector("half-zbar", 2), 2)
    assert doc == dark_to_json(expected)
    assert doc["dark"] is True


def test_dark_seed_operand_builds_default_sector(capsys):
    doc = run_json(capsys, "dark", "--a", "eps:-1", "--b", "vacuum",
                   "--depth", "1", "--degree", "1")
    seed = omega(-1, 0, lam_slope=1).with_renorm(HALF)
    lat_a = generate_sector(seed, ("b_pp", "b_pm", "b_mm"), 1, seed_text="eps:-1")
    assert doc == dark_to_json(dark_check(lat_a, preset_sector("vacuum", 1), 1))


def test_dark_file_operands(capsys, tmp_path):
    # a state document becomes its own zero-depth sector
    spath = write_doc(tmp_path, "state.json", state2d_to_json(omega(0, 1)))
    doc = run_json(capsys, "dark", "--a", "file:" + spath, "--b", "vacuum",
                   "--depth", "1", "--degree", "1")
    assert doc["nodes"] == {"a": 1, "b": 3}
    # a sector document is reloaded as-is, ignoring --depth
    lpath = str(tmp_path / "sec.json")
    run_json(capsys, "export", "--preset", "half-zbar", "--depth", "2",
             "--format", "json", "--out", lpath)
    doc = run_json(capsys, "dark", "--a", "vacuum", "--b", "file:" + lpath,
                   "--depth", "1", "--degree", "1")
    assert doc["nodes"]["b"] == preset_sector("half-zbar", 2).node_count()

    lp1d = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_error(capsys, "dark", "--a", "file:" + lp1d, "--b", "vacuum")
    assert doc["message"] == "dark scan operands must be planar"


def test_dark_scan_above_the_work_budget_fails_fast(capsys):
    start = time.perf_counter()
    doc = run_error(capsys, "dark", "--a", "vacuum", "--b", "vacuum",
                    "--depth", "6", "--degree", "5")
    assert doc["error"] == "depth-exceeded"
    assert doc["message"].startswith("dark scan predicts 8404 word images and 20472 pair")
    # the degree bound is checked first
    doc = run_error(capsys, "dark", "--a", "vacuum", "--b", "vacuum",
                    "--depth", "16", "--degree", "7")
    assert doc["error"] == "domain"
    assert time.perf_counter() - start < 5


def test_sector_closure_above_the_node_budget_fails_fast(capsys):
    start = time.perf_counter()
    doc = run_error(capsys, "sector", "--seed", "omega:1/2,3", "--depth", "16")
    assert doc == {
        "error": "depth-exceeded",
        "message": "sector closure passes 1000 nodes at depth 7 of 16; lower the depth",
    }
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# localize / reduce
# ---------------------------------------------------------------------------


def test_localize_line_state(capsys, tmp_path):
    path = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_json(capsys, "localize", "--state", "file:" + path)
    assert doc == {
        "space": "1d",
        "localized": True,
        "divergence": {"kind": "power", "order": "1"},
    }


def test_localize_planar_state(capsys):
    doc = run_json(capsys, "localize", "--state", "omega:-1,0")
    assert doc == {
        "space": "2d",
        "deformed": False,
        "localized": True,
        "divergence": {"kind": "log", "order": None},
    }
    doc = run_json(capsys, "localize", "--state", "omega:0,1")
    assert doc["localized"] is False
    assert doc["divergence"] == {"kind": "none", "order": None}


def test_localize_deformed_state_reports_limit(capsys):
    doc = run_json(capsys, "localize", "--state", "eps:-1")
    assert doc["deformed"] is True
    assert doc["limit_class"] == "singular"
    assert doc["localized"] is True
    assert doc["divergence"] == {"kind": "log", "order": None}
    assert doc["limit"]["terms"][0]["lam"] == "-1"
    assert doc["limit"]["terms"][0]["lam_slope"] == 0


def test_localize_zero_state(capsys, tmp_path):
    path = write_doc(tmp_path, "zero.json", {"space": "1d", "terms": []})
    doc = run_error(capsys, "localize", "--state", "file:" + path)
    assert doc == {
        "error": "domain",
        "message": "localization of the zero state is undefined",
    }


def test_eps_power_above_the_bound_is_refused_fast(capsys, tmp_path):
    def state_at(power):
        doc = state2d_to_json(omega(-1, 0))
        doc["terms"][0]["coeff"][0]["power"] = power
        return write_doc(tmp_path, "p%d.json" % power, doc)

    doc = run_json(capsys, "localize", "--state", "file:" + state_at(MAX_EPS_POWER))
    assert doc["deformed"] is False
    for power in (MAX_EPS_POWER + 1, 3_000_000, 10**9):
        start = time.perf_counter()
        doc = run_error(capsys, "localize", "--state", "file:" + state_at(power))
        assert time.perf_counter() - start < 1.0
        assert doc == {
            "error": "domain",
            "message": "eps power %d exceeds the bound %d" % (power, MAX_EPS_POWER),
        }


def test_reduce_full_decomposition(capsys):
    doc = run_json(capsys, "reduce", "--state", "omega:-3/2,0")
    assert doc == {
        "charges": [
            {
                "charge": "3/2",
                "profile": {
                    "space": "1d",
                    "terms": [{"coeff": [{"j": 0, "k": 0, "q": "1"}], "exp": "-3/2"}],
                },
            }
        ]
    }


def test_reduce_single_charge_applies_measure_shift(capsys):
    doc = run_json(capsys, "reduce", "--state", "omega:-3/2,0", "--charge", "3/2")
    assert doc["charge"] == "3/2"
    assert doc["state"]["terms"] == [{"coeff": [{"j": 0, "k": 0, "q": "1"}], "exp": "-1"}]
    assert doc["state"]["label"] == "radial(q=3/2)"


def test_reduce_refusals(capsys, tmp_path):
    doc = run_error(capsys, "reduce", "--state", "omega:-3/2,0", "--charge", "1/2")
    assert doc == {
        "error": "charge-absent",
        "message": "state has no charge-1/2 component",
    }
    path = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_error(capsys, "reduce", "--state", "file:" + path)
    assert doc["message"] == "reduce takes a planar state"


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_dot_to_stdout(capsys):
    rc, out, err = run_cli(capsys, "export", "--preset", "vacuum", "--depth", "1",
                           "--format", "dot")
    assert rc == 0
    assert out == lattice_export(preset_sector("vacuum", 1), "dot")
    assert out.startswith("digraph sector {\n")
    assert '  n0 [label="0: E=1, Q=0"];\n' in out
    assert '  n0 -> n1 [label="b_pp: 1"];\n' in out


def test_export_csv_to_stdout(capsys):
    rc, out, err = run_cli(capsys, "export", "--preset", "vacuum", "--depth", "1",
                           "--format", "csv")
    assert rc == 0
    assert out == lattice_export(preset_sector("vacuum", 1), "csv")


def test_export_out_writes_file(capsys, tmp_path):
    path = str(tmp_path / "vac.json")
    doc = run_json(capsys, "export", "--preset", "vacuum", "--depth", "1",
                   "--format", "json", "--out", path)
    text = open(path, encoding="utf-8").read()
    assert doc == {"written": path, "format": "json", "bytes": len(text)}
    assert text == lattice_export(preset_sector("vacuum", 1), "json")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_operator_document(capsys):
    doc = run_json(capsys, "eval", "--expr", "[b-+,b++]")
    assert doc == {
        "space": "2d",
        "expr": "[b-+, b++]",
        "text": "1",
        "operator": {
            "space": "2d",
            "terms": [
                {
                    "coeff": [{"j": 0, "k": 0, "q": "1"}],
                    "zbar": "0",
                    "z": "0",
                    "dzbar": 0,
                    "dz": 0,
                }
            ],
        },
    }


def test_eval_normalizes_expression_text(capsys):
    doc = run_json(capsys, "eval", "--expr", "  H1   -  1/2 ")
    assert doc["expr"] == "H1 - 1/2"
    assert doc["space"] == "1d"


def test_eval_parses_its_expression_once(capsys, monkeypatch):
    real_tokenize = kreinosc.opexpr._tokenize
    sources = []

    def counting_tokenize(src):
        sources.append(src)
        return real_tokenize(src)

    monkeypatch.setattr(kreinosc.opexpr, "_tokenize", counting_tokenize)
    run_json(capsys, "eval", "--expr", "[H, b++]")
    assert sources == ["[H, b++]"]


def test_eval_applies_to_line_state(capsys, tmp_path):
    path = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_json(capsys, "eval", "--expr", "A+", "--state", "file:" + path)
    assert doc["image"]["terms"] == [
        {"coeff": [{"j": 0, "k": 0, "q": "1"}], "exp": "-1"},
        {"coeff": [{"j": 0, "k": 0, "q": "2"}], "exp": "1"},
    ]


def test_eval_applies_to_planar_state(capsys):
    doc = run_json(capsys, "eval", "--expr", "b++", "--state", "psi0")
    assert doc["image"] == state2d_to_json(omega(0, 1))


def test_eval_space_mismatch(capsys, tmp_path):
    doc = run_error(capsys, "eval", "--expr", "A+", "--state", "psi0")
    assert doc["message"] == "expression is a line operator; --state needs a line state"
    path = write_doc(tmp_path, "line.json", state1d_to_json(solve_vacuum_1d(1)))
    doc = run_error(capsys, "eval", "--expr", "H", "--state", "file:" + path)
    assert doc["message"] == "expression is a planar operator; --state needs a planar state"


def test_eval_error_codes(capsys):
    assert run_error(capsys, "eval", "--expr", "foo")["error"] == "unknown-name"
    doc = run_error(capsys, "eval", "--expr", "H1 + + 2")
    assert doc == {"error": "syntax", "message": "unexpected token '+' (at byte 5)"}
    assert run_error(capsys, "eval", "--expr", "[H1]")["error"] == "arity"
    assert run_error(capsys, "eval", "--expr", "a+")["error"] == "missing-parameter"
    assert run_error(capsys, "eval", "--expr", "(" * 5000 + "H")["error"] == "syntax"
    assert run_error(capsys, "eval", "--expr", "b++^99999999")["error"] == "depth-exceeded"
    assert run_error(capsys, "eval", "--expr", "(b++^16)^16")["error"] == "depth-exceeded"
    doc = run_error(capsys, "eval", "--expr", "x " + "9" * 5000)
    assert doc == {"error": "syntax", "message": "rational literal is too long (at byte 2)"}


# ---------------------------------------------------------------------------
# usage errors exit 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["inner", "--lhs", "psi0"],
        ["spectrum", "--alpha", "x"],
        ["export", "--preset", "vacuum", "--format", "tsv"],
        ["sector", "--preset", "vacuum", "--seed", "psi0"],
        ["sector", "--sector", "somefile.json"],
        ["gram"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

# Each call repeats its predecessor's subcommand without an option the
# predecessor set, or follows a failure.
BACK_TO_BACK = [
    ["inner", "--lhs", "eps:-1", "--rhs", "eps:-1", "--renorm"],
    ["inner", "--lhs", "eps:-1", "--rhs", "eps:-1"],
    ["gram", "--preset", "half-zbar", "--depth", "1", "--charge=-1/2"],
    ["gram", "--preset", "half-zbar", "--depth", "1"],
    ["gram", "--preset", "vacuum", "--depth", "1", "--charge", "7"],
    ["gram", "--preset", "vacuum", "--depth", "1"],
]


def test_back_to_back_calls_share_no_state(capsys):
    assert build_parser() is build_parser()
    results = [run_cli(capsys, *argv) for argv in BACK_TO_BACK]
    assert [rc for rc, _, _ in results] == [0, 0, 0, 0, 1, 0]
    renorm, plain = (json.loads(out) for _, out, _ in results[:2])
    assert renorm["renormalized"] is True
    assert plain["renormalized"] is False and "value_exact" not in plain
    block, blocks = (json.loads(out) for _, out, _ in results[2:4])
    assert block["charge_text"] == "-1/2"
    assert "blocks" in blocks and "charge_text" not in blocks
    assert json.loads(results[4][2])["error"] == "domain"
    assert json.loads(results[5][1]) == quotient_to_json(quotient_report(preset_sector("vacuum", 1)))


def test_a_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit):
        main(["gram", "--charge", "7"])
    capsys.readouterr()
    doc = run_json(capsys, "gram", "--preset", "vacuum", "--depth", "1")
    assert doc == quotient_to_json(quotient_report(preset_sector("vacuum", 1)))


def test_in_process_calls_print_what_fresh_processes_print(capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreinosc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in BACK_TO_BACK:
        rc, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "kreinosc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (rc, out, err)


def test_the_package_runs_as_a_module(capsys):
    argv = ["inner", "--lhs", "psi0", "--rhs", "psi0"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreinosc.__file__)))
    fresh = subprocess.run(
        [sys.executable, "-m", "kreinosc", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and json.loads(out)
    assert (fresh.returncode, fresh.stdout) == (rc, out)
