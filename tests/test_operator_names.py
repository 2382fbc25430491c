"""Every name lookup of the planar tables refuses a bad name with ``domain``.

An unhashable name (a list) or a tuple used to escape as an uncoded
TypeError, from the cache of build_op_2d, from a dict membership test or
from formatting the message; a hashable unknown name keeps its message.
"""

import pytest

from kreinosc.algebra2d import build_op_2d, closed_form, ladder_closed_form, ladder_image, psi0
from kreinosc.errors import DomainError

LOOKUPS = [
    (build_op_2d, "unknown 2d operator %r"),
    (lambda name: closed_form(name, 0, 0), "no closed form for the 2d operator %r"),
    (lambda name: ladder_closed_form(name, 0, 0), "unknown ladder operator %r"),
    (lambda name: ladder_image(name, psi0()), "unknown ladder operator %r"),
]


@pytest.mark.parametrize("call, message", LOOKUPS)
@pytest.mark.parametrize("name", [["H"], ["b_pp"], {"b_pp": 1}, ("b_pp", "H"), "X", 5, None])
def test_a_bad_name_is_a_domain_error(call, message, name):
    with pytest.raises(DomainError) as err:
        call(name)
    assert err.value.code == "domain"
    assert str(err.value) == message % (name,)


def test_known_names_still_resolve():
    assert build_op_2d("H") is build_op_2d("H")
    assert closed_form("H", 0, 0)[0][1:] == (0, 0)
    assert ladder_closed_form("b_pp", 0, 0) == closed_form("b_pp", 0, 0)
    assert ladder_image("b_pp", psi0())
