"""Hand-built expression trees that the parser cannot build are refused coded.

``eval_expr`` takes any tree, and ``infer_space`` walks its names before
any operator is built.  The walk refuses what ``parse_expr`` never
produces: an unknown or ill-typed name, an '@' coupling on a name that
takes none, an empty sum or product, a sum term that is no (sign, node)
pair, and an exponent that is no int in 0..MAX_EXPONENT.  A tree that the
parser builds evaluates as it did before the walk checked it.
"""

import hashlib

import pytest

from kreinosc.errors import LabError
from kreinosc.opexpr import (
    MAX_EXPONENT, NameLeaf, Power, Product, ScalarLeaf, Sum, eval_expr, expr_text, parse_expr,
)
from kreinosc.sectors import _RELATIONS

H = NameLeaf("H")

REFUSED = [
    (Product((H, NameLeaf("foo"))), "unknown-name", "unknown operator name 'foo'"),
    (NameLeaf(["x"]), "unknown-name", "unknown operator name ['x']"),
    (Sum(()), "domain", "a sum takes one or more (sign, node) terms"),
    (Sum(((1, H), (1, Product(())))), "domain", "a product takes one or more factors"),
    (Sum((H,)), "domain", "a sum takes one or more (sign, node) terms"),
    (Sum(((2, H),)), "domain", "a sum takes one or more (sign, node) terms"),
    (Power(H, 2.5), "domain", "exponent must be a non-negative integer, got 2.5"),
    (Power(H, True), "domain", "exponent must be a non-negative integer, got True"),
    (Power(H, -1), "domain", "exponent must be a non-negative integer, got -1"),
    (NameLeaf("b++", 3), "domain", "'@' coupling applies only to a+ and a-"),
    (
        Sum(((1, H), (1, Power(ScalarLeaf(2), 10**9)))),
        "depth-exceeded",
        "exponent 1000000000 exceeds %d" % MAX_EXPONENT,
    ),
]
REFUSED_IDS = [
    "unknown-name", "unhashable-name", "empty-sum", "empty-product", "bare-sum-term",
    "sign-2", "float-exponent", "bool-exponent", "negative-exponent", "coupled-planar-name",
    "huge-exponent",
]


@pytest.mark.parametrize("tree, code, text", REFUSED, ids=REFUSED_IDS)
def test_a_tree_the_parser_cannot_build_is_refused_coded(tree, code, text):
    with pytest.raises(LabError) as err:
        eval_expr(tree)
    assert err.value.code == code
    assert text in str(err.value)


def test_an_exponent_of_max_exponent_is_still_built():
    space, op = eval_expr(Product((Power(ScalarLeaf(2), MAX_EXPONENT), H)))
    assert (space, op) == eval_expr(parse_expr("2^%d H" % MAX_EXPONENT))
    assert op == eval_expr(H)[1].scaled(2**MAX_EXPONENT)


# the lhs - (rhs) text of every audited relation, then a few eval expressions
TEXTS = ["%s - (%s)" % pair for row in _RELATIONS for pair in row[1]] + [
    "[b-+, b++]", "(b++ b--)^2", "b++^3 - [b++, b+-]", "[Q, b--] - 2 b--", "-z dzbar + 3/2 zbar^2",
    "a+@-2 a-@-2", "(x D)^2 - [A-, A+]", "H1^2 - x^0",
]
# sha256 of the "space|expr_text|operator text" lines of TEXTS, as built
# before the walk refused any tree
DIGEST = "17f72a9ccff1fa97578a08c923bdbf5e71c5ac8218cd2c50f89ec559a20b6f87"


def test_parsed_trees_evaluate_as_before():
    h = hashlib.sha256()
    for text in TEXTS:
        ast = parse_expr(text)
        space, op = eval_expr(ast)
        h.update(("%s|%s|%s\n" % (space, expr_text(ast), op.text())).encode())
    assert (len(TEXTS), h.hexdigest()) == (27, DIGEST)
