"""The named line operators are built once per process, as the planar ones are.

build_op_1d returns one shared operator per name of _FORMS_1D.  The
first-order pair a_plus, a_minus is built per call, since its alpha is any
rational and a cache keyed on it would have no bound; the refusals keep
their order and messages.
"""

import pytest

from kreinosc import DomainError, MissingParameter
from kreinosc.algebra1d import _FORMS_1D, _built_op_1d, build_op_1d


@pytest.mark.parametrize("name", sorted(_FORMS_1D))
def test_a_named_line_operator_is_shared(name):
    assert build_op_1d(name) is build_op_1d(name)
    assert build_op_1d(name).terms() == build_op_1d(name).terms()


def test_the_first_order_pair_is_not_cached():
    for alpha in range(-50, 50):
        assert build_op_1d("a_plus", alpha) == build_op_1d("a_plus", alpha)
    assert _built_op_1d.cache_info().currsize <= len(_FORMS_1D)


@pytest.mark.parametrize(
    "args, error, message",
    [
        (("H1", 1), DomainError, "operator H1 takes no parameter"),
        (("nope", 1), DomainError, "operator nope takes no parameter"),
        (("nope",), DomainError, "unknown 1d operator 'nope'"),
        ((["H1"],), DomainError, "unknown 1d operator ['H1']"),
        (("a_minus",), MissingParameter, "operator a_minus requires parameter alpha"),
    ],
)
def test_the_refusals_keep_their_order(args, error, message):
    with pytest.raises(error) as exc:
        build_op_1d(*args)
    assert str(exc.value) == message
