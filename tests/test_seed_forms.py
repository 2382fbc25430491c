"""One table of planar seed forms serves the CLI's state specs and the eps sectors.

``sectors.SEED_FORMS`` maps omega, eps and eps-conj to (exponent count,
seed of the exponents, default generators).  ``cli.load_state_spec`` and
``cli._default_generators`` read it, and so do ``eps_sector`` and
``eps_conj_sector``, so ``eps:L`` on the command line and ``eps_sector(L)``
build the same seed and tower.
"""

from fractions import Fraction

import pytest

from kreinosc import eps_conj_sector, eps_sector, preset_sector
from kreinosc.cli import _default_generators, load_state_spec
from kreinosc.sectors import GENERATOR_ORDER, SEED_FORMS, TOWERS

CONSTANTS = [Fraction(-2), Fraction(-1, 2), Fraction(3)]
FORMS = {"eps": eps_sector, "eps-conj": eps_conj_sector}


@pytest.mark.parametrize("name", sorted(FORMS))
@pytest.mark.parametrize("const", CONSTANTS, ids=str)
def test_the_cli_spec_builds_the_constructor_seed(name, const):
    spec = "%s:%s" % (name, const)
    lattice = FORMS[name](const, 0)
    (seed,) = [n for n in lattice.nodes if n.depth == 0]
    assert load_state_spec(spec) == seed.state
    assert _default_generators(spec) == lattice.generators
    assert lattice.seed_text == spec


def test_the_table_holds_the_three_forms():
    assert sorted(SEED_FORMS) == ["eps", "eps-conj", "omega"]
    assert [SEED_FORMS[name][0] for name in ("omega", "eps", "eps-conj")] == [2, 1, 1]
    assert SEED_FORMS["omega"][2] == GENERATOR_ORDER
    assert (SEED_FORMS["eps"][2], SEED_FORMS["eps-conj"][2]) == (TOWERS["zbar"], TOWERS["z"])
    assert _default_generators("omega:1,2") == _default_generators("file:x") == GENERATOR_ORDER


def test_psi0_keeps_the_vacuum_tower():
    assert _default_generators("psi0") == preset_sector("vacuum", 1).generators
