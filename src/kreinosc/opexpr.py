"""Small expression language for building operators on the command line.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := atom ('^' UINT)*
    atom   := RATIONAL | NAME ['@' ['-'] RATIONAL] | '(' expr ')'
            | '[' expr ',' expr ']'

Juxtaposition multiplies, '^' binds tighter than juxtaposition, and
'[f, g]' is the commutator.  A leading '-' on any (sub)expression is
accepted.  The '@' parameter supplies the inverse-square coupling of
the first-order line ladders and applies to nothing else.

Planar names: H  Q  b++  b+-  b-+  b--  z  zbar  dz  dzbar
Line names:   H1  a+  a-  A+  A-  x  D

An expression must stay inside one of the two families; the evaluator
returns the space tag together with the built operator.

Parsing and building stay bounded:

- parentheses and brackets, and the sums, products, powers and
  commutators of the syntax tree, nest at most MAX_NESTING levels
  (deeper is a syntax error at the byte offset where the limit is hit);
- an exponent is at most MAX_EXPONENT, and no product, power or
  commutator may build an operator of degree above MAX_DEGREE; either
  excess raises DepthExceeded.  The degree of an operator is the largest
  sum of the absolute powers and derivative orders of one of its terms,
  so the degree of a product is at most the sum of its factors' degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra1d import DiffOp1D, _FIRST_ORDER, build_op_1d
from .algebra2d import DiffOp2D, _LADDER, build_op_2d
from .errors import ArityError, DepthExceeded, DomainError, OpSyntaxError, UnknownNameError

MAX_NESTING = 64
MAX_EXPONENT = 64
# The lab's identities need degree 6 at most; a commutator of two dense
# planar operators of degree 6 already takes seconds.
MAX_DEGREE = 12

NAMES_2D = {
    "H": "H",
    "Q": "Q",
    **{row.name: g for g, row in _LADDER.items()},
    "z": "Z",
    "zbar": "ZBAR",
    "dz": "DZ",
    "dzbar": "DZBAR",
}

NAMES_1D = {
    "H1": "H1",
    "a+": "a_plus",
    "a-": "a_minus",
    "A+": "A_plus",
    "A-": "A_minus",
    "x": "X",
    "D": "D",
}

ALPHA_NAMES = tuple(n for n, op in NAMES_1D.items() if op in _FIRST_ORDER)

# longest first so the tokenizer never splits a long name
_ALL_NAMES = sorted(list(NAMES_2D) + list(NAMES_1D), key=len, reverse=True)

_SYMBOLS = "+-*^()[],@"


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarLeaf:
    value: Fraction


@dataclass(frozen=True)
class NameLeaf:
    name: str
    alpha: Fraction | None = None


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node), sign in {+1, -1}


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class Commutator:
    lhs: object
    rhs: object


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "sym" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list:
    toks = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == "/":
                k = j + 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    toks.append(_Token("num", src[i:k], i))
                    i = k
                    continue
                raise OpSyntaxError("malformed rational literal", j)
            toks.append(_Token("num", src[i:j], i))
            i = j
            continue
        matched = None
        for name in _ALL_NAMES:
            if src.startswith(name, i):
                matched = name
                break
        if matched is not None:
            toks.append(_Token("name", matched, i))
            i += len(matched)
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and src[j].isalnum():
                j += 1
            raise UnknownNameError("unknown operator name %r" % src[i:j])
        if ch in _SYMBOLS:
            toks.append(_Token("sym", ch, i))
            i += 1
            continue
        raise OpSyntaxError("unexpected character %r" % ch, i)
    toks.append(_Token("end", "", n))
    return toks


def _rational(t: _Token) -> Fraction:
    """The value of a rational literal token."""
    try:
        return Fraction(t.text)
    except ValueError:  # more digits than Python converts to an int
        raise OpSyntaxError("rational literal is too long", t.pos) from None
    except ZeroDivisionError:
        raise OpSyntaxError("rational literal has a zero denominator", t.pos) from None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0  # open parentheses and brackets
        self.heights = {}  # id(node) -> levels of composite nodes down from it

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_sym(self, ch: str) -> _Token:
        t = self.peek()
        if t.kind == "sym" and t.text == ch:
            return self.take()
        raise OpSyntaxError("expected %r" % ch, t.pos)

    def _open(self, t: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise OpSyntaxError("nesting deeper than %d levels" % MAX_NESTING, t.pos)

    def _nest(self, node, children, pos: int):
        """node, unless it nests deeper than MAX_NESTING levels."""
        h = 1 + max(self.heights.get(id(c), 0) for c in children)
        if h > MAX_NESTING:
            raise OpSyntaxError("nesting deeper than %d levels" % MAX_NESTING, pos)
        self.heights[id(node)] = h
        return node

    def expr(self):
        terms = []
        sign = 1
        t = self.peek()
        start = t.pos
        if t.kind == "sym" and t.text == "-":
            self.take()
            sign = -1
        terms.append((sign, self.term()))
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in "+-":
                self.take()
                terms.append((1 if t.text == "+" else -1, self.term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return self._nest(Sum(tuple(terms)), [t for _, t in terms], start)

    def _starts_factor(self, t: _Token) -> bool:
        if t.kind in ("num", "name"):
            return True
        return t.kind == "sym" and t.text in "(["

    def term(self):
        start = self.peek().pos
        factors = [self.factor()]
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text == "*":
                self.take()
                factors.append(self.factor())
            elif self._starts_factor(t):
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return self._nest(Product(tuple(factors)), factors, start)

    def factor(self):
        node = self.atom()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text == "^":
                self.take()
                e = self.peek()
                if e.kind != "num" or "/" in e.text:
                    raise OpSyntaxError("exponent must be a non-negative integer", e.pos)
                self.take()
                digits = e.text.lstrip("0") or "0"
                if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                    raise DepthExceeded(
                        "exponent %s exceeds %d (at byte %d)" % (e.text, MAX_EXPONENT, e.pos)
                    )
                node = self._nest(Power(node, int(digits)), [node], t.pos)
            else:
                return node

    def atom(self):
        t = self.take()
        if t.kind == "num":
            return ScalarLeaf(_rational(t))
        if t.kind == "name":
            alpha = None
            nxt = self.peek()
            if nxt.kind == "sym" and nxt.text == "@":
                if t.text not in ALPHA_NAMES:
                    raise OpSyntaxError(
                        "'@' coupling applies only to a+ and a-", nxt.pos
                    )
                self.take()
                neg = False
                v = self.peek()
                if v.kind == "sym" and v.text == "-":
                    self.take()
                    neg = True
                    v = self.peek()
                if v.kind != "num":
                    raise OpSyntaxError("expected a rational after '@'", v.pos)
                self.take()
                alpha = _rational(v)
                if neg:
                    alpha = -alpha
            return NameLeaf(t.text, alpha)
        if t.kind == "sym" and t.text in "([":
            self._open(t)
        if t.kind == "sym" and t.text == "(":
            inner = self.expr()
            self.expect_sym(")")
            self.depth -= 1
            return inner
        if t.kind == "sym" and t.text == "[":
            first = self.expr()
            nxt = self.peek()
            if nxt.kind == "sym" and nxt.text == "]":
                raise ArityError("commutator takes exactly two arguments, got 1")
            self.expect_sym(",")
            second = self.expr()
            nxt = self.peek()
            if nxt.kind == "sym" and nxt.text == ",":
                raise ArityError("commutator takes exactly two arguments, got more")
            self.expect_sym("]")
            self.depth -= 1
            return self._nest(Commutator(first, second), [first, second], t.pos)
        if t.kind == "end":
            raise OpSyntaxError("unexpected end of expression", t.pos)
        raise OpSyntaxError("unexpected token %r" % t.text, t.pos)


def parse_expr(src: str):
    """Parse the expression language.

    Raises OpSyntaxError with a byte offset, and DepthExceeded for an
    exponent above MAX_EXPONENT, and DomainError for a source that is no str.
    """
    if not isinstance(src, str):
        raise DomainError("expression source must be a str, got %r" % (src,))
    if not src or src.isspace():
        raise OpSyntaxError("empty expression", 0)
    p = _Parser(src)
    node = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise OpSyntaxError("unexpected trailing input %r" % t.text, t.pos)
    return node


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


def expr_text(node) -> str:
    if isinstance(node, ScalarLeaf):
        return str(node.value)
    if isinstance(node, NameLeaf):
        if node.alpha is None:
            return node.name
        return "%s@%s" % (node.name, node.alpha)
    if isinstance(node, Sum):
        parts = []
        for k, (sign, term) in enumerate(node.terms):
            text = expr_text(term)
            if isinstance(term, Sum):
                text = "(" + text + ")"
            if k == 0:
                parts.append(("-" if sign < 0 else "") + text)
            else:
                parts.append(("- " if sign < 0 else "+ ") + text)
        return " ".join(parts)
    if isinstance(node, Product):
        parts = []
        for f in node.factors:
            text = expr_text(f)
            if isinstance(f, (Sum, Product)):
                text = "(" + text + ")"
            parts.append(text)
        return " ".join(parts)
    if isinstance(node, Power):
        base = expr_text(node.base)
        if isinstance(node.base, (Sum, Product, Power)):
            base = "(" + base + ")"
        return "%s^%d" % (base, node.exponent)
    if isinstance(node, Commutator):
        return "[%s, %s]" % (expr_text(node.lhs), expr_text(node.rhs))
    raise DomainError("not an expression node: %r" % (node,))


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------


def _collect_names(node, out: set):
    if isinstance(node, NameLeaf):
        out.add(node.name)
    elif isinstance(node, Sum):
        for _sign, t in node.terms:
            _collect_names(t, out)
    elif isinstance(node, Product):
        for f in node.factors:
            _collect_names(f, out)
    elif isinstance(node, Power):
        _collect_names(node.base, out)
    elif isinstance(node, Commutator):
        _collect_names(node.lhs, out)
        _collect_names(node.rhs, out)


def infer_space(node) -> str:
    """"1d" or "2d" from the operator names used."""
    names = set()
    _collect_names(node, names)
    has1 = any(n in NAMES_1D for n in names)
    has2 = any(n in NAMES_2D for n in names)
    if has1 and has2:
        raise DomainError("expression mixes line and planar operators")
    if not (has1 or has2):
        raise DomainError("expression names no operator, so there is nothing to build")
    return "1d" if has1 else "2d"


def _degree(op) -> Fraction:
    """Largest sum of absolute powers and derivative orders over op's terms."""
    # integral powers (in practice, all of them) skip Fraction arithmetic
    terms = (sum(abs(x.numerator) if x.denominator == 1 else abs(x) for x in k) for k in op._terms)
    return max(terms, default=Fraction(0))


def _check_degree(degree, what: str) -> None:
    if degree > MAX_DEGREE:
        raise DepthExceeded(
            "%s would build an operator of degree up to %s, above %d"
            % (what, degree, MAX_DEGREE)
        )


def eval_expr(node):
    """Build the operator; returns (space, DiffOp1D | DiffOp2D).

    Raises DepthExceeded before a product, power or commutator whose
    degree could exceed MAX_DEGREE is built.
    """
    space = infer_space(node)
    ident = DiffOp1D.identity() if space == "1d" else DiffOp2D.identity()

    def ev(n):
        if isinstance(n, ScalarLeaf):
            return ident.scaled(n.value)
        if isinstance(n, NameLeaf):
            if space == "1d":
                return build_op_1d(NAMES_1D[n.name], n.alpha)
            return build_op_2d(NAMES_2D[n.name])
        if isinstance(n, Sum):
            (sign, first), *rest = n.terms
            acc = ev(first) if sign > 0 else -ev(first)
            for sign, t in rest:
                v = ev(t)
                acc = acc + v if sign > 0 else acc - v
            return acc
        if isinstance(n, Product):
            acc = ev(n.factors[0])
            for f in n.factors[1:]:
                v = ev(f)
                _check_degree(_degree(acc) + _degree(v), "a product")
                acc = acc * v
            return acc
        if isinstance(n, Power):
            acc = ident
            base = ev(n.base)
            _check_degree(_degree(base) * n.exponent, "a power")
            for _ in range(n.exponent):
                acc = acc * base
            return acc
        if isinstance(n, Commutator):
            a, b = ev(n.lhs), ev(n.rhs)
            _check_degree(_degree(a) + _degree(b), "a commutator")
            return a * b - b * a
        raise DomainError("not an expression node: %r" % (n,))

    return space, ev(node)


def build_from_text(src: str):
    """Parse then evaluate; returns (space, operator)."""
    return eval_expr(parse_expr(src))
