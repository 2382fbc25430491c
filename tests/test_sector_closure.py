"""Sector closure: eigenvalues by ladder shift, and the node budget.

``generate_sector`` checks the seed's eigenvalues by applying H and Q and
gives every other node its parent's eigenvalues plus the discovering
generator's shift.  The tests here apply H and Q to every node anyway and
require the same values, down to the order of the stored terms, and the
same warnings.
"""

import time

import pytest

from kreinosc import DepthExceeded, build_op_2d
from kreinosc import sectors
from kreinosc.algebra2d import eigencheck_2d
from kreinosc.cli import _load_sector_source
from kreinosc.sectors import GENERATOR_ORDER, preset_sector

# (energy shift, charge shift) of each generator, from the audit's
# hamiltonian-ladder-action and charge-ladder-action relations
SHIFTS = {"b_pp": (1, 1), "b_pm": (1, -1), "b_mp": (-1, -1), "b_mm": (-1, 1)}


def layout(v):
    """The eps terms and their graded terms in stored order (float() sums in it)."""
    return None if v is None else [(p, list(c._terms.items())) for p, c in v._terms.items()]


def checked_warnings(lattice):
    op_h, op_q = build_op_2d("H"), build_op_2d("Q")
    out = []
    for n in lattice.nodes:
        if eigencheck_2d(op_h, n.state) is None:
            out.append("node %d is not an energy eigenstate" % n.index)
        if eigencheck_2d(op_q, n.state) is None:
            out.append("node %d is not a charge eigenstate" % n.index)
    return tuple(out)


@pytest.mark.parametrize(
    "spec, depth",
    [
        ("vacuum", 5),
        ("half-zbar", 5),
        ("half-z", 5),
        ("eps:-1", 5),
        ("eps-conj:-2", 5),
        ("omega:1/2,3", 4),
        ("omega:-1,2", 5),
    ],
)
def test_shifted_eigenvalues_match_the_eigencheck(spec, depth):
    lattice = _load_sector_source(spec, depth)
    op_h, op_q = build_op_2d("H"), build_op_2d("Q")
    for n in lattice.nodes:
        energy = eigencheck_2d(op_h, n.state)
        charge = eigencheck_2d(op_q, n.state)
        assert n.energy == energy and layout(n.energy) == layout(energy)
        assert n.charge == charge and layout(n.charge) == layout(charge)
    assert lattice.warnings == checked_warnings(lattice)


def test_children_of_a_non_eigenstate_are_checked():
    # omega:-1,2 is no energy eigenstate; some of its descendants are
    lattice = _load_sector_source("omega:-1,2", 3)
    assert lattice.node_count() == 43
    assert len(lattice.warnings) == 39
    parent = {}
    for e in lattice.edges:  # the first edge onto a node discovered it
        parent.setdefault(e.dst, e.src)
    recovered = [
        n.index
        for n in lattice.nodes[1:]
        if n.energy is not None and lattice.nodes[parent[n.index]].energy is None
    ]
    assert recovered


def test_an_eigenstate_seed_is_the_only_node_checked(monkeypatch):
    calls = []

    def counting_eigencheck(op, s):
        calls.append(op)
        return eigencheck_2d(op, s)

    monkeypatch.setattr(sectors, "eigencheck_2d", counting_eigencheck)
    lattice = preset_sector("vacuum", 6)
    assert lattice.node_count() == 28
    assert calls == [build_op_2d("H"), build_op_2d("Q")]


def test_ladder_shifts_are_the_dark_scan_charge_shifts():
    energy, charge = sectors._ladder_shifts("H"), sectors._ladder_shifts("Q")
    assert {g: (energy[g], charge[g]) for g in GENERATOR_ORDER} == SHIFTS
    scan_shifts, _ = sectors._ladder_algebra()
    assert scan_shifts == charge
    # Q is diagonal on monomials: zbar^pb z^p dzbar^rb dz^r moves the
    # charge -L + M of each by -pb + p + rb - r
    for g, op in sectors._gen_ops().items():
        assert {-pb + p + rb - r for pb, p, rb, r in op._terms} == {charge[g]}
    for word, _, shift in sectors._scan_words(3):
        assert shift == sum(charge[g] for g in word)


def test_closure_stops_at_the_node_budget(monkeypatch):
    assert preset_sector("vacuum", 2).node_count() == 6
    monkeypatch.setattr(sectors, "MAX_SECTOR_NODES", 6)
    assert preset_sector("vacuum", 2).node_count() == 6
    monkeypatch.setattr(sectors, "MAX_SECTOR_NODES", 5)
    with pytest.raises(DepthExceeded) as exc:
        preset_sector("vacuum", 2)
    assert exc.value.code == "depth-exceeded"
    assert str(exc.value) == "sector closure passes 5 nodes at depth 2 of 2; lower the depth"


def test_oversized_closure_fails_before_any_eigencheck(monkeypatch):
    calls = []
    monkeypatch.setattr(sectors, "eigencheck_2d", lambda op, s: calls.append(op))
    start = time.perf_counter()
    with pytest.raises(DepthExceeded):
        _load_sector_source("omega:1/2,3", 16)
    assert calls == []
    assert time.perf_counter() - start < 10
