"""Two arguments that used to escape uncoded now fail with a ``domain`` error.

``generate_sector`` names its lattice by ``seed_text``, which the JSON
export writes as the document's "seed"; anything but None or a str is
refused before the closure runs.  ``export --out`` to a path that
``open()`` refuses (one with a NUL byte) is the same ``cannot write``
error as an unwritable path, with nothing on stdout.
"""

import json

import pytest

from kreinosc import LabError, generate_sector, lattice_export, lattice_from_json, psi0
from kreinosc.cli import main

GENS = ("b_pp", "b_mm")


@pytest.mark.parametrize(
    "seed_text", [b"x", 5, ["a"], float("nan")], ids=["bytes", "int", "list", "nan"]
)
def test_a_seed_text_that_is_no_str_is_a_domain_error(seed_text):
    with pytest.raises(LabError) as err:
        generate_sector(psi0(), GENS, 1, seed_text=seed_text)
    assert err.value.code == "domain"
    assert "seed_text must be a str or None, got %r" % (seed_text,) in str(err.value)


@pytest.mark.parametrize("seed_text", [None, "psi0", ""], ids=["none", "text", "empty"])
def test_a_str_or_no_seed_text_is_unchanged(seed_text):
    lattice = generate_sector(psi0(), GENS, 1, seed_text=seed_text)
    assert lattice.seed_text == (psi0().text() if seed_text is None else seed_text)
    text = lattice_export(lattice, "json")
    assert lattice_from_json(json.loads(text)).seed_text == lattice.seed_text


def test_export_to_a_path_with_a_nul_byte_is_a_domain_error(capsys):
    rc = main(["export", "--preset", "vacuum", "--depth", "1", "--out", "x\0y.json"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "domain"
    assert doc["message"].startswith("cannot write x\0y.json: ")
