"""The loader parses each distinct rational text once and builds each scalar once.

``frac_from_text`` goes through a bounded cache of ``_rational_text``; a
text that is no rational raises before anything is cached, so it is
refused on every call, also after valid texts have filled the cache.
``graded_from_json`` gathers a scalar's terms into one dict, so a
reloaded document keeps the stored term order of the first load.
"""

import json

import pytest

from kreinosc import lattice_export, preset_sector
from kreinosc.errors import DomainError
from kreinosc.jsonio import _parsed, frac_from_text, graded_from_json, graded_to_json
from kreinosc.scalars import GradedScalar
from kreinosc.sectors import eps_sector, lattice_from_json


def test_the_parse_cache_is_bounded():
    assert _parsed.cache_info().maxsize == 1024


@pytest.mark.parametrize("text", ["1/0", "1e9", "1E9", "x", ""])
def test_a_malformed_rational_is_refused_on_every_call(text):
    for _ in range(3):
        with pytest.raises(DomainError, match="malformed rational"):
            frac_from_text(text)
        assert frac_from_text("3/4") == frac_from_text(3) / 4
    with pytest.raises(DomainError, match="malformed rational"):
        frac_from_text(text)


def _layout(v) -> list:
    """The stored terms in order, coefficients' own terms included."""
    return [(k, _layout(c) if hasattr(c, "_terms") else c) for k, c in v._terms.items()]


def _lattice_layout(lattice) -> list:
    nodes = [
        [_layout(n.state)] + [None if x is None else _layout(x) for x in (n.energy, n.charge)]
        for n in lattice.nodes
    ]
    return nodes + [[_layout(e.num), _layout(e.den)] for e in lattice.edges]


SECTORS = {"half-z@4": lambda: preset_sector("half-z", 4), "eps:-3@3": lambda: eps_sector(-3, 3)}


@pytest.mark.parametrize("close", SECTORS.values(), ids=SECTORS.keys())
def test_a_second_load_gives_the_first_lattice_term_for_term(close):
    lattice = close()
    doc = json.loads(lattice_export(lattice, "json"))
    first, second = lattice_from_json(doc), lattice_from_json(doc)
    assert first == second == lattice_from_json(json.loads(lattice_export(first, "json")))
    assert _lattice_layout(first) == _lattice_layout(second)
    assert lattice_export(second, "json") == lattice_export(lattice, "json")


def test_terms_are_merged_in_the_order_the_sum_gives():
    # j = 2 folds into the rational at j = 0; cancelling terms leave no key behind
    data = [
        {"j": 0, "k": 1, "q": "1/2"},
        {"j": 2, "k": 0, "q": "3"},
        {"j": 0, "k": 0, "q": "-6"},
        {"j": 1, "k": -1, "q": "2"},
        {"j": 0, "k": 0, "q": "5"},
        {"j": 0, "k": 1, "q": "-1/2"},
    ]
    expected = GradedScalar.zero()
    for t in data:
        expected = expected + GradedScalar.monomial(frac_from_text(t["q"]), t["j"], t["k"])
    got = graded_from_json(data)
    assert got == expected and _layout(got) == _layout(expected)
    assert _layout(got) == [((1, -1), 2), ((0, 0), 5)]
    assert graded_from_json(graded_to_json(got)) == got
