"""The json sector export prints the document of json.dumps, byte for byte.

``jsonio.lattice_dumps`` fills one template per node, edge and state term
instead of building a dict per node, term and coefficient, and renders each
coefficient object once per indent it is written at.  The comprehension it
replaced is kept here as the oracle: every case compares the export with
``json.dumps(oracle(lattice), sort_keys=True, indent=2) + "\\n"``, and the
export read back with the oracle's dict.
"""

import json
import shlex
import tracemalloc
from fractions import Fraction

import pytest

from kreinosc import (
    Edge,
    EpsScalar,
    GradedScalar,
    Node,
    SectorLattice,
    State2D,
    cli,
    jsonio,
    omega,
    sectors,
)
from kreinosc.cli import main
from kreinosc.jsonio import dumps, eps_to_json, state2d_to_json
from kreinosc.sectors import PRESET_NAMES, lattice_export, lattice_from_json, preset_sector

from test_golden import GOLDEN


def oracle(lattice) -> dict:
    """The lattice document as lattice_export built it before the writer."""
    return {
        "seed": lattice.seed_text,
        "generators": list(lattice.generators),
        "depth": lattice.depth,
        "nodes": [
            {
                "index": n.index,
                "depth": n.depth,
                "energy": None if n.energy is None else eps_to_json(n.energy),
                "charge": None if n.charge is None else eps_to_json(n.charge),
                "state": state2d_to_json(n.state),
            }
            for n in sectors._sorted_nodes(lattice)
        ],
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "generator": e.generator,
                "num": eps_to_json(e.num),
                "den": eps_to_json(e.den),
            }
            for e in sectors._sorted_edges(lattice)
        ],
        "warnings": list(lattice.warnings),
    }


def assert_writes_the_oracle(lattice) -> str:
    expected = oracle(lattice)
    text = lattice_export(lattice, "json")
    assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert json.loads(text) == expected
    return text


def exported(monkeypatch, argv) -> SectorLattice:
    """The lattice that one sector or export command line writes."""
    lattices = []

    def export(lattice, fmt):
        lattices.append(lattice)
        return lattice_export(lattice, fmt)

    monkeypatch.setattr(cli, "lattice_export", export)
    assert main(argv) == 0
    (lattice,) = lattices
    return lattice


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset(name, depth):
    text = assert_writes_the_oracle(preset_sector(name, depth))
    assert ('"edges": [],' in text) == (depth == 0)


CLI_CASES = [case for case in GOLDEN if case.startswith("sector ")
             or case.startswith("export ") and case.endswith("--format json")]
CLI_CASES += ["sector --seed eps-conj:-1 --depth 3", "sector --seed omega:-1,2 --depth 0"]


@pytest.mark.parametrize("case", CLI_CASES)
def test_every_printed_export(case, monkeypatch, capsys):
    lattice = exported(monkeypatch, shlex.split(case))
    assert capsys.readouterr().out == assert_writes_the_oracle(lattice)


def test_unknown_energies_and_warnings(monkeypatch, capsys):
    lattice = exported(monkeypatch, shlex.split("sector --seed omega:-1,2 --depth 4"))
    capsys.readouterr()
    doc = json.loads(assert_writes_the_oracle(lattice))
    assert doc["warnings"]
    assert any(n["energy"] is None for n in doc["nodes"])


@pytest.mark.parametrize("case", ["sector --seed eps:-1 --depth 4",
                                  "sector --seed eps-conj:-1 --depth 3"])
def test_eps_polynomials(case, monkeypatch, capsys):
    lattice = exported(monkeypatch, shlex.split(case))
    capsys.readouterr()
    doc = json.loads(assert_writes_the_oracle(lattice))
    powers = {t["power"] for n in doc["nodes"] for term in n["state"]["terms"]
              for t in term["coeff"]}
    assert max(powers) >= 1


def test_a_reloaded_document_with_escaped_text():
    doc = json.loads(lattice_export(preset_sector("half-zbar", 2), "json"))
    doc["seed"] = 'omega:1/2,0 "quoted" \\ é € 😀 \x00\x07\x1f\x7f\n\t\ud800'
    doc["warnings"] = ["bell \x07, nul \x00", "é € 😀 \ud83d", '"\\/', ""]
    doc["nodes"].reverse()  # the loader sorts them back
    lattice = lattice_from_json(doc)
    assert json.loads(assert_writes_the_oracle(lattice)) == {**doc, "nodes": doc["nodes"][::-1]}


MIXED = GradedScalar({(0, 0): Fraction(22, 7), (1, 0): Fraction(-3, 7), (0, -1): -2,
                      (1, -3): Fraction(-9, 4), (0, 5): Fraction(2**80 + 1, 3**40)})


def test_hand_built_values():
    """Zero states and factors, a missing charge, multi-term coefficients."""
    poly = EpsScalar([MIXED, GradedScalar.zero(), -MIXED * GradedScalar.sqrt2()])
    state = State2D([((Fraction(1, 2), 1, Fraction(-3, 2), 0), poly),
                     ((0, 0, 0, 1), EpsScalar.one())], renorm_power=Fraction(1, 2))
    lattice = SectorLattice(
        seed_text="hand",
        generators=("b_pp", "b_mm"),
        depth=2,
        nodes=(Node(0, state, poly, None, 0), Node(1, State2D(), EpsScalar.zero(), poly, 2),
               Node(2, omega(0, 0), None, None, 1)),
        edges=(Edge(1, 0, "b_mm", poly, EpsScalar.zero()), Edge(0, 1, "b_pp", poly, poly)),
    )
    text = assert_writes_the_oracle(lattice)
    assert '"terms": []' in text and '"den": []' in text and '"warnings": []' in text


def test_the_file_that_export_out_writes(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sector.json"
    argv = ["export", "--seed", "eps:-1", "--depth", "3", "--format", "json", "--out", str(path)]
    lattice = exported(monkeypatch, argv)
    text = path.read_bytes().decode("utf-8")
    assert text == assert_writes_the_oracle(lattice)
    assert json.loads(capsys.readouterr().out)["bytes"] == len(text)


FIELD, COEFF = "\n      ", "\n            "  # indents of a node's or edge's keys, a term's


def test_each_coefficient_object_is_rendered_once_per_indent(monkeypatch):
    lattice = preset_sector("vacuum", 10)
    rendered = []
    render = jsonio._eps_json
    monkeypatch.setattr(jsonio, "_eps_json",
                        lambda v, ind: rendered.append((id(v), ind)) or render(v, ind))
    assert_writes_the_oracle(lattice)
    fields = [v for n in lattice.nodes for v in (n.energy, n.charge) if v is not None]
    fields += [v for e in lattice.edges for v in (e.num, e.den)]
    coeffs = [c for n in lattice.nodes for _, c in n.state.terms()]
    slots = {(id(v), FIELD) for v in fields} | {(id(c), COEFF) for c in coeffs}
    assert sorted(rendered) == sorted(slots)
    # closure shares coefficient objects between nodes and edges, so the memo saves renders
    objects = {id(v) for v in fields + coeffs}
    assert (len(fields) + len(coeffs), len(objects), len(rendered)) == (513, 228, 229)


def test_one_sort_of_the_nodes_per_export(monkeypatch, capsys, tmp_path):
    calls = []
    sort = sectors._sorted_nodes
    monkeypatch.setattr(sectors, "_sorted_nodes", lambda lattice: calls.append(1) or sort(lattice))
    out = str(tmp_path / "sector.json")
    for argv in (["sector", "--preset", "vacuum", "--depth", "3"],
                 ["export", "--preset", "half-z", "--depth", "2", "--format", "json", "--out", out],
                 ["export", "--sector", out, "--format", "json"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1
    capsys.readouterr()


def traced_peak(f):
    tracemalloc.start()
    try:
        text = f()
        return tracemalloc.get_traced_memory()[1], text
    finally:
        tracemalloc.stop()


def test_the_writer_peaks_below_the_emitter_on_a_large_export():
    lattice = preset_sector("half-zbar", 10)
    ours, text = traced_peak(lambda: lattice_export(lattice, "json"))
    theirs, expected = traced_peak(lambda: dumps(oracle(lattice)) + "\n")
    assert text == expected
    assert len(text) > 400_000
    assert ours < theirs
