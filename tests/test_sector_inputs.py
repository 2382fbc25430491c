"""Library inputs of generate_sector: a depth is an int, generators a collection of names.

A float or text depth is refused rather than truncated, one bare name is
refused rather than read letter by letter, and a nested list is refused
with a coded error rather than an uncoded TypeError.
"""

import pytest

from kreinosc import DomainError
from kreinosc.algebra2d import psi0
from kreinosc.sectors import GENERATOR_ORDER, generate_sector


@pytest.mark.parametrize("depth", [2.7, 2.0, "2", True, None])
def test_a_depth_that_is_no_int_is_refused(depth):
    with pytest.raises(DomainError) as exc:
        generate_sector(psi0(), ("b_pp",), depth)
    assert exc.value.code == "domain"
    assert str(exc.value) == "depth must be an integer, got %r" % (depth,)


@pytest.mark.parametrize("generators", ["b_pp", "", [["b_pp"]], [("b_pp",)], ["b_pp", 1], 3, None])
def test_generators_that_are_no_collection_of_names_are_refused(generators):
    with pytest.raises(DomainError) as exc:
        generate_sector(psi0(), generators, 1)
    assert exc.value.code == "domain"
    assert str(exc.value) == "generators must be a collection of names, got %r" % (generators,)


def test_unknown_names_are_listed():
    with pytest.raises(DomainError) as exc:
        generate_sector(psi0(), ["b_qq", "b_pp", "a"], 1)
    assert str(exc.value) == "unknown generator(s): a, b_qq"


@pytest.mark.parametrize(
    "generators",
    [("b_pp", "b_pm"), ["b_pm", "b_pp"], {"b_pp", "b_pm"}, frozenset({"b_pm", "b_pp"}),
     {"b_pp": 1, "b_pm": 2}.keys()],
)
def test_collections_of_names_are_accepted(generators):
    lattice = generate_sector(psi0(), generators, 2)
    assert lattice.generators == ("b_pp", "b_pm")
    assert lattice.node_count() == 6


def test_int_depths_are_accepted():
    class Depth(int):
        pass

    for depth in (0, 3, Depth(3)):
        lattice = generate_sector(psi0(), GENERATOR_ORDER, depth)
        assert lattice.depth == depth
