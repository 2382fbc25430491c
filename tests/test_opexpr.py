"""The little operator language: parsing, printing, evaluation, errors."""

import time
from fractions import Fraction

import pytest

from kreinosc import (
    ArityError,
    DepthExceeded,
    DomainError,
    MissingParameter,
    OpSyntaxError,
    UnknownNameError,
    build_op_1d,
    build_op_2d,
)
from kreinosc.opexpr import (
    ALPHA_NAMES,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    NAMES_1D,
    NAMES_2D,
    build_from_text,
    expr_text,
    infer_space,
    parse_expr,
)


def test_name_tables():
    assert set(NAMES_1D) == {"H1", "a+", "a-", "A+", "A-", "x", "D"}
    assert set(NAMES_2D) == {"H", "Q", "b++", "b+-", "b-+", "b--", "z", "zbar", "dz", "dzbar"}
    assert ALPHA_NAMES == ("a+", "a-")


def test_build_simple_names():
    for spelled, canonical in NAMES_1D.items():
        if spelled in ALPHA_NAMES:
            continue
        space, op = build_from_text(spelled)
        assert space == "1d"
        assert op.terms() == build_op_1d(canonical).terms()
    for spelled, canonical in NAMES_2D.items():
        space, op = build_from_text(spelled)
        assert space == "2d"
        assert op.terms() == build_op_2d(canonical).terms()


def test_alpha_coupling():
    space, op = build_from_text("a+@-2 a-@-2")
    assert space == "1d"
    assert op.text() == "1*x^(-2) - 5/2 + 1/2*x^(2) - 1/2*D^2"
    _, half = build_from_text("a+@1/2")
    assert half.terms() == build_op_1d("a_plus", alpha=Fraction(1, 2)).terms()


def test_commutator_evaluation():
    space, op = build_from_text("[b-+, b++]")
    assert space == "2d"
    assert op.text() == "1"
    _, nested = build_from_text("[[b-+, b++], b+-]")
    assert nested.is_zero()
    from kreinosc import GradedScalar

    _, line = build_from_text("[A+, H1]")
    assert (
        line.terms()
        == build_op_1d("A_plus").scaled(GradedScalar.rational(-2)).terms()
    )


def test_precedence_and_grouping():
    _, tight = build_from_text("x D^2")
    assert tight.text() == "1*x^(1)*D^2"
    _, grouped = build_from_text("(x D)^2")
    assert grouped.text() == "1*x^(1)*D + 1*x^(2)*D^2"
    _, mixed = build_from_text("3/4 x^2 - x")
    assert mixed.text() == "-1*x^(1) + 3/4*x^(2)"
    _, shifted = build_from_text("H1 - 1/2")
    assert shifted.text() == "1*x^(-2) - 1/2 + 1/2*x^(2) - 1/2*D^2"
    _, idop = build_from_text("D^0")
    assert idop.text() == "1"


def test_unary_minus():
    _, op = build_from_text("-H1 + 2 x D")
    assert op.text() == "-1*x^(-2) - 1/2*x^(2) + 2*x^(1)*D + 1/2*D^2"


def test_corrected_generator_combination():
    space, op = build_from_text("b++ b-+ + b+- b-- + 1")
    assert space == "2d"
    assert op.terms() == build_op_2d("H").terms()


def test_print_parse_round_trips():
    for src in (
        "1/2 (b++ b-+ + b+- b--) + 1",
        "[A+, H1]",
        "a+@-2 a-@-2",
        "-H1",
        "x D^2 + 1",
    ):
        assert expr_text(parse_expr(src)) == src
        # printing is a fixed point
        again = expr_text(parse_expr(expr_text(parse_expr(src))))
        assert again == src


def test_whitespace_is_normalized():
    assert expr_text(parse_expr("x  D ^ 2   +  1")) == "x D^2 + 1"


def test_infer_space():
    assert infer_space(parse_expr("H1 x")) == "1d"
    assert infer_space(parse_expr("b++ z")) == "2d"


def test_space_mixing_is_refused():
    with pytest.raises(DomainError):
        build_from_text("H1 + b++")
    # greedy tokenization splits 'Hx' into planar H and line x
    with pytest.raises(DomainError):
        build_from_text("Hx")


def test_scalar_only_expression_is_refused():
    with pytest.raises(DomainError):
        build_from_text("3/2")
    with pytest.raises(DomainError):
        build_from_text("1/2 + 1/3")


def test_error_taxonomy_and_offsets():
    with pytest.raises(OpSyntaxError, match=r"at byte 0"):
        build_from_text("")
    with pytest.raises(OpSyntaxError, match=r"unexpected token '\+' \(at byte 5\)"):
        build_from_text("H1 + + 2")
    with pytest.raises(OpSyntaxError, match=r"expected '\)' \(at byte 3\)"):
        build_from_text("(H1")
    with pytest.raises(OpSyntaxError, match=r"unexpected trailing input"):
        build_from_text("H1)")
    with pytest.raises(UnknownNameError, match="foo"):
        build_from_text("foo")
    with pytest.raises(ArityError):
        build_from_text("[H1]")
    with pytest.raises(ArityError):
        build_from_text("[H1, A+, A-]")
    with pytest.raises(MissingParameter):
        build_from_text("a+")


def test_at_coupling_rules():
    with pytest.raises(OpSyntaxError, match="applies only to a"):
        build_from_text("b++@2")
    with pytest.raises(OpSyntaxError, match="applies only to a"):
        build_from_text("x@1")
    with pytest.raises(OpSyntaxError, match="expected a rational after '@'"):
        build_from_text("a+@")
    with pytest.raises(OpSyntaxError, match="exponent must be a non-negative integer"):
        build_from_text("D^-1")


def _fails_fast(exc, src):
    start = time.perf_counter()
    with pytest.raises(exc) as info:
        build_from_text(src)
    assert time.perf_counter() - start < 1.0
    return info.value


def test_nesting_beyond_the_limit_is_a_syntax_error_at_its_offset():
    err = _fails_fast(OpSyntaxError, "(" * 5000 + "x" + ")" * 5000)
    assert err.code == "syntax" and err.offset == MAX_NESTING
    # brackets nest the same way, and so do chained powers: the caret of
    # the first power past the limit is reported
    assert _fails_fast(OpSyntaxError, "[" * 5000).offset == MAX_NESTING
    assert _fails_fast(OpSyntaxError, "x" + "^1" * 5000).offset == 1 + 2 * MAX_NESTING
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert build_from_text(nested) == build_from_text("x")
    assert build_from_text("x" + "^1" * MAX_NESTING) == build_from_text("x")


def test_exponents_beyond_the_limit_raise_depth_exceeded():
    for src in ("b++^99999999", "x 2^99999999", "D^" + "9" * 5000):
        assert _fails_fast(DepthExceeded, src).code == "depth-exceeded"
    assert _fails_fast(DepthExceeded, "D^%d" % (MAX_EXPONENT + 1))
    _, op = build_from_text("x 2^%d" % MAX_EXPONENT)
    assert op == build_op_1d("X").scaled(2**MAX_EXPONENT)


def test_products_and_powers_beyond_the_degree_limit_raise_depth_exceeded():
    for src in (
        "(b++^16)^16",
        "(b++^4)^4",
        "b++^%d b--" % MAX_DEGREE,
        "[H^4, H^4]",
        "A+^%d" % MAX_DEGREE,
    ):
        assert _fails_fast(DepthExceeded, src).code == "depth-exceeded"
    # at the limit itself
    _, op = build_from_text("b++^%d" % MAX_DEGREE)
    assert len(op.terms()) == MAX_DEGREE + 1
    build_from_text("H1^%d" % (MAX_DEGREE // 2))

