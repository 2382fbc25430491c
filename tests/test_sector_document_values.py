"""A sector document holds only what closure writes.

Closure stores no zero state, no edge with a zero factor and no node past
the sector's depth.  A reloaded document with one of those would give a
wrong exact answer (a zero state counts as a null direction in ``gram``,
a zero den prints as ``(1)/(0)`` in the dot export), so the loader refuses
it with ``domain`` before any analysis runs.
"""

from __future__ import annotations

import json
import re

import pytest

from kreinosc import lattice_export, preset_sector
from kreinosc.cli import main
from kreinosc.errors import DomainError
from kreinosc.sectors import lattice_from_json


def _doc() -> dict:
    return json.loads(lattice_export(preset_sector("vacuum", 1), "json"))


def _zero_state(doc):
    doc["nodes"][1]["state"]["terms"] = []


def _zero_num(doc):
    doc["edges"][0]["num"] = []


def _zero_den(doc):
    doc["edges"][0]["den"] = []


def _node_past_the_depth(doc):
    doc["nodes"][1]["depth"] = doc["depth"] + 1


def _negative_node_depth(doc):
    doc["nodes"][0]["depth"] = -1


def _negative_document_depth(doc):
    doc["depth"] = -1


EDITS = {
    "zero state": (_zero_state, ": zero state or depth not in 0..1"),
    "zero num": (_zero_num, " has a zero factor"),
    "zero den": (_zero_den, " has a zero factor"),
    "node past the depth": (_node_past_the_depth, ": zero state or depth not in 0..1"),
    "negative node depth": (_negative_node_depth, ": zero state or depth not in 0..1"),
    "negative document depth": (_negative_document_depth, ": zero state or depth not in 0..-1"),
}


def test_the_unedited_document_loads():
    doc = _doc()
    assert len(doc["nodes"]) > 1 and doc["edges"] and doc["depth"] == 1
    assert lattice_from_json(doc) == preset_sector("vacuum", 1)


@pytest.mark.parametrize("edit, fragment", EDITS.values(), ids=EDITS.keys())
def test_a_value_closure_never_writes_is_refused(edit, fragment):
    doc = _doc()
    edit(doc)
    with pytest.raises(DomainError, match=re.escape(fragment)):
        lattice_from_json(doc)


@pytest.mark.parametrize("edit", [e for e, _ in EDITS.values()], ids=EDITS.keys())
@pytest.mark.parametrize("argv", [["gram"], ["export", "--format", "dot"]], ids=["gram", "dot"])
def test_the_cli_refuses_it_coded(capsys, tmp_path, edit, argv):
    doc = _doc()
    edit(doc)
    path = tmp_path / "sector.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(argv + ["--sector", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, json.loads(captured.err)["error"]) == (1, "", "domain")
