"""The Gram work budget: predicted before any pairing, refused fast.

A Gram analysis pairs n(n+1)/2 node pairs and runs about n^3 elimination
steps on each charge block of n nodes.  Above sectors.MAX_GRAM_WORK the
analysis raises DepthExceeded before its first pairing, whether the
lattice comes from a seed, a preset or a sector document.
"""

import json
import time
from collections import Counter

import pytest

from kreinosc import sectors
from kreinosc.cli import main
from kreinosc.sectors import (
    MAX_DEPTH,
    MAX_GRAM_WORK,
    PRESET_NAMES,
    preset_sector,
    quotient_report,
)


@pytest.mark.parametrize(
    "argv, work",
    [
        (["--seed", "omega:1/2,3", "--depth", "6"], 6466388),
        (["--seed", "omega:1/2,3", "--depth", "5"], 760298),
        (["--seed", "omega:1/2,3", "--depth", "5", "--charge", "7/2"], 68 * 69 // 2 + 68**3),
    ],
)
def test_oversized_gram_is_refused_before_any_pairing(capsys, monkeypatch, argv, work):
    calls = []
    monkeypatch.setattr(sectors, "renorm_inner", lambda f, g: calls.append(f))
    start = time.perf_counter()
    rc = main(["gram"] + argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (rc, captured.out, calls) == (1, "", [])
    assert json.loads(captured.err) == {
        "error": "depth-exceeded",
        "message": "gram analysis predicts %d units of pairing and elimination, above the "
        "budget of %d; lower the depth" % (work, MAX_GRAM_WORK),
    }
    assert elapsed < 10


def test_a_sector_document_is_held_to_the_budget(capsys, monkeypatch, tmp_path):
    path = tmp_path / "omega.json"
    assert main(["export", "--seed", "omega:1/2,3", "--depth", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(sectors, "renorm_inner", lambda f, g: calls.append(f))
    assert main(["gram", "--sector", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, calls) == ("", [])
    assert json.loads(captured.err)["error"] == "depth-exceeded"


class FirstBlock(Exception):
    pass


def test_every_preset_at_the_deepest_depth_is_under_the_budget(monkeypatch):
    def first_block(lattice, charge, indices):
        raise FirstBlock

    monkeypatch.setattr(sectors, "_block_result", first_block)
    works = []
    for name in PRESET_NAMES:
        lattice = preset_sector(name, MAX_DEPTH)
        sizes = Counter(node.charge.sort_key() for node in lattice.nodes).values()
        works.append(sum(n * (n + 1) // 2 + n**3 for n in sizes))
        with pytest.raises(FirstBlock):  # past the budget check, at the first pairing
            quotient_report(lattice)
    assert works == [6438, 43690, 43690]
    assert max(works) <= MAX_GRAM_WORK
