"""Term-map constructors refuse falsy non-iterables, text and sets.

A falsy ``terms`` argument that is not a term list (``0``, ``False``, ``""``)
is malformed like any other non-iterable, a text term would unpack as its
characters, and a set has no dense coefficient order.  Each must raise the
coded ``domain`` error instead of building zero or a wrong value; ``None`` and
empty term lists still build zero.
"""

from fractions import Fraction

import pytest

from kreinosc import DiffOp1D, DiffOp2D, DomainError, EpsScalar, GradedScalar, State1D, State2D

# (constructor, argument, id); each call must raise DomainError
CASES = [
    (GradedScalar, 0, "graded-zero"),
    (GradedScalar, False, "graded-false"),
    (GradedScalar, "", "graded-empty-str"),
    (GradedScalar, b"", "graded-empty-bytes"),
    (GradedScalar, ["ab"], "graded-str-term"),
    (State2D, 0, "plane-zero"),
    (State2D, "", "plane-empty-str"),
    (DiffOp1D, False, "line-op-false"),
    (DiffOp1D, ["12"], "line-op-str-term"),
    (DiffOp2D, 0, "plane-op-zero"),
    (State1D, "", "line-empty-str"),
    (State1D, b"", "line-empty-bytes"),
    (State1D, ["12"], "line-str-term"),
    (State1D, [b"12"], "line-bytes-term"),
    (State1D, ("12",), "line-str-term-tuple"),
    (EpsScalar, {2, 1}, "eps-set"),
    (EpsScalar, frozenset({1}), "eps-frozenset"),
    (EpsScalar, set(), "eps-empty-set"),
]


@pytest.mark.parametrize("ctor, arg", [c[:2] for c in CASES], ids=[c[2] for c in CASES])
def test_constructor_refuses(ctor, arg):
    with pytest.raises(DomainError) as info:
        ctor(arg)
    assert info.value.code == "domain"


def test_text_term_error_names_the_class():
    with pytest.raises(DomainError, match=r"^malformed State1D term: text '12' is not"):
        State1D(["12"])


def test_set_error_names_coeffs():
    with pytest.raises(DomainError, match="EpsScalar coeffs must be a sequence, got set"):
        EpsScalar({2, 1})


@pytest.mark.parametrize("ctor", [GradedScalar, State1D, State2D, DiffOp1D, DiffOp2D])
@pytest.mark.parametrize("empty", [None, {}, [], ()], ids=["None", "dict", "list", "tuple"])
def test_empty_term_lists_build_zero(ctor, empty):
    assert ctor(empty).is_zero()
    assert ctor(empty) == ctor()


def test_term_lists_still_build_values():
    assert GradedScalar([((0, 1), Fraction(1, 2))]) == GradedScalar.monomial(Fraction(1, 2), 0, 1)
    assert State1D([(1, 2)]) == State1D({1: 2})
    assert EpsScalar([1, 2]) == EpsScalar.affine(1, 2)
    assert EpsScalar(()).is_zero()
