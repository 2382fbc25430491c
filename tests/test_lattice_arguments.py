"""A lattice argument of another type is a coded domain error.

The sector analyses send their lattice parameters through the helper that
the planar entry points use, ``scalars._as_instance``, so a wrong type
fails with ``domain`` and a message naming the parameter, never with a
bare AttributeError.
"""

import pytest

from kreinosc.algebra2d import psi0
from kreinosc.errors import DomainError
from kreinosc.sectors import dark_check, gram, lattice_export, preset_sector, quotient_report

LAT = preset_sector("vacuum", 1)
BAD = [None, [], "x", 1.5, {}, psi0()]
IDS = ["None", "list", "str", "float", "dict", "State2D"]

# (call with the bad value in one parameter, the parameter's name)
CASES = [
    (lambda x: dark_check(x, LAT), "a"),
    (lambda x: dark_check(LAT, x), "b"),
    (lambda x: gram(x, 0), "lattice"),
    (lambda x: quotient_report(x), "lattice"),
    (lambda x: lattice_export(x, "json"), "lattice"),
    (lambda x: lattice_export(x, "dot"), "lattice"),
    (lambda x: lattice_export(x, "csv"), "lattice"),
]
CASE_IDS = [
    "dark_check-a", "dark_check-b", "gram-lattice", "quotient_report-lattice",
    "lattice_export-json", "lattice_export-dot", "lattice_export-csv",
]


@pytest.mark.parametrize("bad", BAD, ids=IDS)
@pytest.mark.parametrize("call, name", CASES, ids=CASE_IDS)
def test_a_lattice_of_another_type_is_a_domain_error_naming_it(call, name, bad):
    with pytest.raises(DomainError) as err:
        call(bad)
    assert err.value.code == "domain"
    assert str(err.value).startswith("%s must be a SectorLattice, got " % name)


def test_well_typed_calls_are_unchanged():
    report = dark_check(LAT, LAT, 1)
    assert (report.is_dark, report.monomials, report.pairs_checked) == (False, 5, 9)
    assert gram(LAT, 0).signature == (1, 0, 0)
    assert quotient_report(LAT).dim_total == 3
    assert lattice_export(LAT, "dot").startswith("digraph sector {")
