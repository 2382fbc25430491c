"""Immutable lab values copy as themselves and survive pickling.

Every term map (the scalar rings, line and planar states and operators)
is its own shallow and deep copy.  Pickling rebuilds an equal value of
the same class with the same marker, label and stored term order; an
unpickled planar state holds interned exponents again and no pairing
index.  Lattices, whose nodes and edges are frozen dataclasses over
such values, round-trip too.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from kreinosc.algebra1d import build_op_1d, ladder_state_1d
from kreinosc.algebra2d import _Exp, _exp, build_op_2d, omega, renorm_inner
from kreinosc.scalars import EpsScalar, GradedScalar
from kreinosc.sectors import dark_check, lattice_export, preset_sector

HALF = Fraction(1, 2)


def _deformed():
    """A renormalized planar state with slopes, half-odd exponents and two terms."""
    s = omega(HALF, 3, lam_slope=1).scaled(EpsScalar([2, -1])) + omega(HALF, 4, lam_slope=1)
    return s.with_renorm(HALF)


VALUES = {
    "GradedScalar": GradedScalar({(1, 3): Fraction(-3, 4), (0, 0): 2}),
    "EpsScalar": EpsScalar([1, GradedScalar({(0, 1): 5}), 0, Fraction(1, 3)]),
    "State1D": ladder_state_1d(1, 3)[0],
    "DiffOp1D": build_op_1d("H1"),
    "State2D": omega(Fraction(-7, 2), 8) + omega(0, 1).scaled(3),
    "State2D-renormalized": _deformed(),
    "DiffOp2D": build_op_2d("H"),
}
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("name", VALUES)
def test_a_term_map_is_its_own_copy(name):
    value = VALUES[name]
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value, value])[1] is value


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", VALUES)
def test_a_term_map_survives_pickling(name, protocol):
    value = VALUES[name]
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert list(back._terms.items()) == list(value._terms.items())
    assert back._marker() == value._marker()
    assert back.text() == value.text()
    with pytest.raises(AttributeError):
        back._terms = {}


def test_a_line_state_keeps_its_label():
    value = VALUES["State1D"]
    assert value.label
    assert pickle.loads(pickle.dumps(value)).label == value.label


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_unpickled_planar_state_holds_interned_keys_and_no_index(protocol):
    value = _deformed()
    value._pairing()  # a paired state keeps its index; pickling drops it
    back = pickle.loads(pickle.dumps(value, protocol))
    assert back.renorm_power == HALF
    assert not hasattr(back, "_index")
    for lam, _, mu, _ in back._terms:
        for e in (lam, mu):
            assert type(e) is _Exp and e is _exp(*e.as_integer_ratio())
    assert renorm_inner(back, back) == renorm_inner(value, value)
    assert back._pairing() == value._pairing()


def test_a_lattice_copies_and_pickles():
    lat = preset_sector("vacuum", 2)
    deep = copy.deepcopy(lat)
    assert deep == lat
    assert [n.state for n in deep.nodes] == [n.state for n in lat.nodes]
    assert all(a.state is b.state for a, b in zip(deep.nodes, lat.nodes))
    back = pickle.loads(pickle.dumps(lat))
    assert back == lat
    for fmt in ("json", "dot", "csv"):
        assert lattice_export(back, fmt) == lattice_export(lat, fmt)
    assert dark_check(back, back, 2) == dark_check(lat, lat, 2)
