"""Ill-typed names, sources and exponents fail with a coded error.

Each is checked (a name through ``algebra1d._known``, an exponent through
``scalars._as_fraction``, an expression source by its type) before any
dict is built from it, so none escapes as an AttributeError or an
unhashable-type TypeError.
"""

import pytest

from kreinosc.algebra2d import omega
from kreinosc.errors import DomainError
from kreinosc.opexpr import build_from_text, parse_expr
from kreinosc.sectors import preset_sector

CASES = [
    (parse_expr, (b"H",), "expression source must be a str"),
    (parse_expr, (1.5,), "expression source must be a str"),
    (build_from_text, (b"H",), "expression source must be a str"),
    (build_from_text, (1.5,), "expression source must be a str"),
    (preset_sector, (["vacuum"],), "unknown preset"),
    (preset_sector, ({},), "unknown preset"),
    (omega, ([], 0), "expected a rational"),
    (omega, (0, {}), "expected a rational"),
    (omega, (0, 0, []), "eps slope must be an integer"),
]


@pytest.mark.parametrize("function, args, message", CASES)
def test_ill_typed_input_is_a_domain_error(function, args, message):
    with pytest.raises(DomainError, match=message) as exc:
        function(*args)
    assert exc.value.code == "domain"


def test_well_typed_input_is_unchanged():
    assert parse_expr("H") == parse_expr(" H ")
    assert preset_sector("vacuum", 1).node_count() == 3
    assert omega(1, 2) == omega("1", "2")
    with pytest.raises(DomainError, match="unknown preset 'nope'; choose from vacuum, half-zbar, half-z"):
        preset_sector("nope")
