"""A sector closure at depth d is the breadth-first prefix of a deeper one.

``generate_sector`` closes one depth after the other and numbers nodes in
discovery order, so the closure of a seed and generators at depth d is the
closure at any deeper depth D cut at d: the nodes of depth <= d, the edges
out of nodes of depth < d, and the warnings of those nodes.  A lattice cache
that answers shallower requests by slicing a deeper closure relies on this.

Each warning names one node with no energy or no charge eigenvalue, in node
order, the energy before the charge.
"""

from fractions import Fraction
from functools import partial

import pytest

from kreinosc import eps_conj_sector, eps_sector, generate_sector, omega, preset_sector
from kreinosc.sectors import GENERATOR_ORDER


def _all_four(seed):
    return partial(generate_sector, seed, GENERATOR_ORDER)


# name -> (closure at a given depth, deepest depth checked, its node and warning counts);
# None where the node count is not pinned
CASES = {
    "vacuum": (partial(preset_sector, "vacuum"), 12, None, 0),
    "half-zbar": (partial(preset_sector, "half-zbar"), 10, None, 0),
    "half-z": (partial(preset_sector, "half-z"), 10, None, 0),
    "eps:-2": (partial(eps_sector, -2), 8, None, 0),
    "eps-conj:-1/2": (partial(eps_conj_sector, Fraction(-1, 2)), 8, None, 0),
    "omega:8,7/2": (_all_four(omega(8, Fraction(7, 2))), 4, 127, 127),
    "omega:1/2,0": (_all_four(omega(Fraction(1, 2), 0)), 5, None, 0),
    "omega:1,0+omega:0,1": (_all_four(omega(1, 0) + omega(0, 1)), 4, 49, 39),
}


def _warnings(nodes) -> tuple:
    """One warning per missing eigenvalue, in node order, the energy first."""
    return tuple(
        "node %d is not %s eigenstate" % (n.index, what)
        for n in nodes
        for value, what in ((n.energy, "an energy"), (n.charge, "a charge"))
        if value is None
    )


@pytest.mark.parametrize("name", list(CASES))
def test_each_depth_is_a_prefix_of_the_deepest(name):
    close, deepest, _, _ = CASES[name]
    full = close(deepest)
    depth_of = [n.depth for n in full.nodes]
    assert [n.index for n in full.nodes] == list(range(len(full.nodes)))
    assert depth_of == sorted(depth_of)
    sources = [depth_of[e.src] for e in full.edges]
    assert sources == sorted(sources)
    for d in range(deepest + 1):
        cut = close(d)
        nodes = tuple(n for n in full.nodes if n.depth <= d)
        assert cut.nodes == nodes, d
        assert cut.edges == tuple(e for e in full.edges if depth_of[e.src] < d), d
        assert cut.warnings == _warnings(nodes), d
        assert (cut.depth, cut.seed_text, cut.generators) == (d, full.seed_text,
                                                               full.generators)


@pytest.mark.parametrize("name", list(CASES))
def test_the_warnings_are_the_missing_eigenvalues(name):
    close, deepest, node_count, warning_count = CASES[name]
    lattice = close(deepest)
    assert lattice.warnings == _warnings(lattice.nodes)
    assert len(lattice.warnings) == warning_count
    if node_count is not None:
        assert lattice.node_count() == node_count
