"""Exact scalar arithmetic for the oscillator laboratory.

A scalar is a finite sum  q * 2^(j/2) * pi^(k/2)  with rational q.  The
canonical form folds even powers of sqrt(2) into the rational
coefficient, so the stored j is always 0 or 1 while k ranges over all
integers.  Powers of sqrt(pi) are linearly independent over Q(sqrt(2)),
hence distinct canonical term maps denote distinct reals and equality is
decidable term by term.  The empty map is zero.

On top of that base field the module provides polynomials in the
regulator eps (`EpsScalar`, a sparse map from eps power to nonzero
coefficient), truncated Laurent data in eps (`LaurentValue`, pole and
constant coefficient only), exact gamma values on half-integer
arguments, and the Laurent expansion of gamma along an eps-deformed
argument.  Digamma constants are excluded from the exact field: when a
gamma evaluation sits on a pole only the residue is exact and the
constant term is tracked numerically.

Both scalar rings, and the states and operators of the algebra modules,
are built on one sparse term-map core (`_TermMap`); both rings divide
through one exact long division (`_long_div`), or term by term by a
one-term divisor.

All values are immutable and every function is pure.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, IndeterminateSign, NotConvergent, PoleError

# Euler-Mascheroni constant, used only for the numeric mirror of
# gamma's constant Laurent coefficient at a pole.
_EULER_GAMMA = 0.5772156649015328606065120900824024

# Sign certification escalates through these working precisions, in bits;
# pi is enclosed afresh at each (see _pi_interval), so a mixed-sign value
# whose magnitude is above about 2^-1536 (times its coefficients' size)
# gets a certified sign, and a smaller one raises IndeterminateSign.
SIGN_BITS = (192, 512, 1536)

_HALF = Fraction(1, 2)

# Largest |argument| of exact gamma (DomainError above).  The exact value at
# a half-integer is a ratio of factorials of about 2|arg|, and reducing it
# grows faster than linearly: ~14 ms at the bound, ~11 s at 10^5 (one core).
MAX_GAMMA_ARG = 4096


def _rational_text(s) -> Fraction:
    """Fraction(s), but exponent notation is a ValueError: Fraction builds the
    power of ten in full, so "1e9999999" alone takes ~10 s."""
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise ValueError("exponent notation in %r" % s)
    return Fraction(s)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return _rational_text(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError("expected a rational, got %r" % (x,))


def _as_count(n, name: str) -> int:
    """n when it is an int (not a bool); DomainError naming the parameter otherwise."""
    if type(n) is bool or not isinstance(n, int):
        raise DomainError("%s must be an integer, got %r" % (name, n))
    return n


def _as_instance(x, cls, name: str):
    """x when it is a cls; DomainError naming the parameter otherwise."""
    if not isinstance(x, cls):
        raise DomainError("%s must be a %s, got %r" % (name, cls.__name__, x))
    return x


def _put(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    acc = out.get(key)
    acc = c if acc is None else acc + c
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def _frac_text(q: Fraction) -> str:
    """str(q), or DomainError where Python refuses to print so many digits."""
    try:
        return str(q)
    except ValueError:
        raise DomainError("an exact value has too many digits to print") from None


def _paren(text: str, minus: str = " - ") -> str:
    """Parenthesize a coefficient text that reads as a sum or difference.

    ``minus`` is the separator of a difference: " - " in graded texts,
    "-" in the compact eps-polynomial texts.
    """
    if "+" in text or minus in text[1:]:
        return "(" + text + ")"
    return text


def _join_signed(parts, pad: str = " ") -> str:
    """Join signed term texts as ``a + b - c`` (``a+b-c`` with pad "")."""
    out = parts[0]
    for p in parts[1:]:
        sign, p = ("-", p[1:]) if p.startswith("-") else ("+", p)
        out += pad + sign + pad + p
    return out


# ---------------------------------------------------------------------------
# the shared term-map core
# ---------------------------------------------------------------------------


class _TermMap:
    """Immutable finite map from term keys to nonzero coefficients.

    The common core of both scalar rings and of the line and planar
    states and operators.  A subclass supplies the coercion of one input
    term, ``_term`` (by default its ``_key`` and ``_coeff`` coercions,
    which also validate), the text of one term and any other ``terms()`` order.
    Construction runs every term through the coercion, merges repeated
    keys and drops zero sums, so two maps of a class are equal exactly
    when their term dicts and their markers are.
    """

    __slots__ = ("_terms",)
    _pad = " "  # around the signs that join term texts

    def __init__(self, terms=None):
        canon: dict = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            try:
                for term in (terms,) if isinstance(terms, (str, bytes)) else items:
                    if isinstance(term, (str, bytes)):  # it would unpack as its characters
                        raise TypeError("text %r is not a (key, coefficient) pair" % (term,))
                    key, c = term
                    _put(canon, *self._term(key, c))
            except (TypeError, ValueError) as exc:
                raise DomainError("malformed %s term: %s" % (type(self).__name__, exc)) from None
        object.__setattr__(self, "_terms", canon)

    def _term(self, key, c):
        return self._key(key), self._coeff(c)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __deepcopy__(self, memo=None):
        return self  # immutable, so its own copy

    __copy__ = __deepcopy__

    def __reduce__(self):
        # the terms in stored order and the public slots (the marker, a line
        # state's label); private slots such as a planar pairing index are not kept
        cls = type(self)
        names = [n for c in cls.__mro__ for n in getattr(c, "__slots__", ()) if n[0] != "_"]
        return _rebuild, (cls, tuple(self._terms.items()), {n: getattr(self, n) for n in names})

    def _like(self, terms: dict):
        """A map of this class over terms that are already canonical.

        The dict is taken over, not copied.  Subclasses with a marker
        carry self's marker over.
        """
        out = object.__new__(type(self))
        object.__setattr__(out, "_terms", terms)
        return out

    def _marker(self):
        """The field besides the terms that takes part in == and hash."""
        return None

    @staticmethod
    def _lift(other):
        """other as a map of this class, or None (a scalar ring lifts its subrings)."""
        return None

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return self._terms == other._terms and self._marker() == other._marker()

    def __hash__(self):
        return hash((self._marker(), frozenset(self._terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._lift(other)
            if other is None:
                return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            _put(out, key, c)
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else (-self) + other

    def __neg__(self):
        return self._like({key: -c for key, c in self._terms.items()})

    def terms(self) -> tuple:
        """(key, coefficient) pairs by ascending key."""
        return tuple(sorted(self._terms.items()))

    def scaled(self, c):
        c = self._coeff(c)
        if not c:
            return self._like({})
        return self._like({key: v * c for key, v in self._terms.items()})

    def text(self) -> str:
        if not self._terms:
            return "0"
        parts = [self._term_text(key, c) for key, c in self.terms()]
        return _join_signed(parts, self._pad)

    def __repr__(self):
        return "%s<%s>" % (type(self).__name__, self.text())


def _rebuild(cls, items, fields: dict):
    """The unpickled term map: each key and coefficient coerced again, in order."""
    out = object.__new__(cls)
    _TermMap.__init__(out, items)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def _long_div(f: dict, g: dict, cdiv, laurent: bool):
    """Exact quotient of two graded sums {grade: coefficient}, or None.

    Long division from the top grade down by a nonzero g; ``cdiv``
    divides two coefficients exactly or returns None.  An exact quotient
    starts at grade min(f) - min(g): a Laurent quotient may start below
    zero, a polynomial one (``laurent`` false) may not.
    """
    quot: dict = {}
    if not f:
        return quot
    low = min(f) - min(g)
    if low < 0 and not laurent:
        return None
    rem = dict(f)
    gtop = max(g)
    while rem:
        top = max(rem)
        shift = top - gtop
        if shift < low:
            return None
        t = cdiv(rem[top], g[gtop])
        if t is None:
            return None
        quot[shift] = t
        t = -t
        for k, c in g.items():
            _put(rem, k + shift, t * c)
    return quot


# ---------------------------------------------------------------------------
# graded scalars
# ---------------------------------------------------------------------------


class GradedScalar(_TermMap):
    """Immutable element of Q[2^(1/2), pi^(1/2), pi^(-1/2)].

    Terms are keyed by the grade pair (j, k); construction canonicalizes
    j to {0, 1} and drops zero coefficients.  The text form reads like
    ``-2*pi^(3/2)`` or ``3/8*pi^(1/2) + 1/2``.
    """

    __slots__ = ()
    _coeff = staticmethod(_as_fraction)

    @staticmethod
    def _term(grade, q):
        j, k = grade
        j, k = _as_count(j, "grade j"), _as_count(k, "grade k")
        # 2^(j/2) = 2^(j//2) * 2^((j%2)/2) with the first factor rational
        q, half = _as_fraction(q), j // 2
        return (j % 2, k), q * Fraction(2) ** half if half else q

    @staticmethod
    def _lift(other):
        if isinstance(other, (int, Fraction)):
            return GradedScalar.rational(other)
        return None

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls) -> "GradedScalar":
        return GS_ONE

    @classmethod
    def rational(cls, q) -> "GradedScalar":
        q = _as_fraction(q)
        return GS_ZERO._like({(0, 0): q} if q else {})

    @classmethod
    def monomial(cls, q, j=0, k=0) -> "GradedScalar":
        """Single term q * 2^(j/2) * pi^(k/2), built directly (as rational is) with
        the coercions and errors of the general constructor; empty for q = 0."""
        key, q = cls._term((j, k), q)
        return GS_ZERO._like({key: q} if q else {})

    @classmethod
    def sqrt2(cls) -> "GradedScalar":
        return cls({(1, 0): 1})

    @classmethod
    def sqrt_pi(cls) -> "GradedScalar":
        return cls({(0, 1): 1})

    @classmethod
    def pi(cls) -> "GradedScalar":
        return cls({(0, 2): 1})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> tuple:
        """Canonical term list sorted by grade (k, then j)."""
        return tuple(sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0])))

    def as_fraction(self):
        """The value as a Fraction when it is purely rational, else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and (0, 0) in self._terms:
            return self._terms[(0, 0)]
        return None

    def coefficient(self, j, k) -> Fraction:
        j, k = _as_count(j, "grade j"), _as_count(k, "grade k")
        return self._terms.get((j % 2, k), _ZERO_FRACTION)

    # -- ring operations ----------------------------------------------------
    # +, * and try_div sit in each scalar class's own dict, where the bench layer
    # tracer patches them; a one-term branch sits inside them (EpsScalar.__mul__'s),
    # so that the tracer and the product pins still see every product.

    def __hash__(self):
        # a rational value hashes as its Fraction, since the two compare equal
        q = self.as_fraction()
        return hash(q) if q is not None else super().__hash__()

    __add__ = _TermMap.__add__
    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if type(other) is not GradedScalar:
            return NotImplemented
        # j is 0 or 1, and 2^(1/2) * 2^(1/2) folds into the coefficient
        if len(self._terms) == 1 and len(other._terms) == 1:
            ((j1, k1), q1), = self._terms.items()
            ((j2, k2), q2), = other._terms.items()
            if j1 and j2:
                return self._like({(0, k1 + k2): q1 * q2 * 2})
            return self._like({(j1 + j2, k1 + k2): q1 * q2})
        out: dict[tuple[int, int], Fraction] = {}
        for (j1, k1), q1 in self._terms.items():
            for (j2, k2), q2 in other._terms.items():
                if j1 and j2:
                    _put(out, (0, k1 + k2), q1 * q2 * 2)
                else:
                    _put(out, (j1 + j2, k1 + k2), q1 * q2)
        return self._like(out)

    __rmul__ = __mul__

    def try_div(self, other: "GradedScalar"):
        """Exact quotient self/other within the ring, or None.

        The ring is the Laurent-polynomial ring F[y, 1/y] with y =
        sqrt(pi) over the field F = Q(sqrt(2)), so this is long division
        in powers of y, negative shifts included, whose coefficients are
        the parts of self and other at each power of y (scalars at k = 0);
        a one-term quotient of one-term values is written down directly.
        """
        if not isinstance(other, GradedScalar) or not other:
            raise DomainError("division by zero scalar")
        if len(self._terms) == 1 and len(other._terms) == 1:
            ((j1, k1), q1), = self._terms.items()
            ((j2, k2), q2), = other._terms.items()
            return GradedScalar.monomial(q1 / q2, j1 - j2, k1 - k2)
        quot = _long_div(self._in_y(), other._in_y(), _sqrt2_field_div, laurent=True)
        if quot is None:
            return None
        # j = 0 before j = 1 at each power: __float__ sums in dict order
        return self._like(
            {(j, k): q for k, c in quot.items() for (j, _), q in sorted(c._terms.items())}
        )

    def _in_y(self) -> dict:
        """{k: c_k} with self = sum of c_k * pi^(k/2), each c_k in Q(sqrt(2))."""
        parts: dict[int, dict] = {}
        for (j, k), q in self._terms.items():
            parts.setdefault(k, {})[(j, 0)] = q
        return {k: self._like(t) for k, t in parts.items()}

    # -- evaluation and formatting ------------------------------------------

    def __float__(self):
        """The nearest float; +-inf (or nan) where the value leaves the float range."""
        total = 0.0
        for (j, k), q in self._terms.items():
            try:
                total += float(q) * (2.0 ** (j / 2.0)) * (math.pi ** (k / 2.0))
            except OverflowError:
                # q or pi^(k/2) alone is out of range: sum the logarithms
                log = math.log(abs(q.numerator)) - math.log(q.denominator)
                log += (j * math.log(2.0) + k * math.log(math.pi)) / 2
                mag = math.exp(log) if log < 709.78 else math.inf
                total += mag if q > 0 else -mag
        return total

    def sort_key(self):
        return (float(self), tuple(sorted(self._terms.items())))

    def _term_text(self, grade, q) -> str:
        j, k = grade
        factors = [_frac_text(q)]
        if j == 1:
            factors.append("2^(1/2)")
        if k:
            factors.append("pi" if k == 2 else "pi^(%s)" % Fraction(k, 2))
        return "*".join(factors)


_ZERO_FRACTION = Fraction(0)


def _sqrt2_field_div(x: GradedScalar, y: GradedScalar) -> GradedScalar:
    """x/y for x, y in Q(sqrt(2)): x * conj(y) / (y * conj(y)), a rational norm."""
    conj = y._like({g: -q if g[0] else q for g, q in y._terms.items()})
    return x * conj * (1 / (y * conj).as_fraction())


def _coerce_scalar(c) -> GradedScalar:
    return c if isinstance(c, GradedScalar) else GradedScalar.rational(c)


GS_ZERO = GradedScalar()
GS_ONE = GradedScalar({(0, 0): 1})


# ---------------------------------------------------------------------------
# sign certification
# ---------------------------------------------------------------------------


def _sqrt_interval(lo: Fraction, hi: Fraction, bits: int):
    scale = 1 << bits
    s2 = scale * scale
    a = isqrt((lo.numerator * s2) // lo.denominator)
    b = isqrt(-((-hi.numerator * s2) // hi.denominator)) + 1
    return Fraction(a, scale), Fraction(b, scale)


def _atan_inv_bounds(x: int, scale: int) -> tuple:
    """Integers lo < scale * atan(1/x) < hi for an integer x > 1.

    atan(1/x) = sum (-1)^n / ((2n+1) x^(2n+1)) alternates with falling
    terms, so the tail after the last term kept is smaller than the first
    term dropped, here below 1/scale.  Each kept term is floored, which
    costs less than 1/scale per term.
    """
    total = n = 0
    power = x
    while True:
        t = scale // ((2 * n + 1) * power)
        if not t:
            break
        total += -t if n % 2 else t
        n += 1
        power *= x * x
    return total - n - 1, total + n + 1


@functools.cache
def _pi_interval(bits: int) -> tuple:
    """Rationals lo < pi < hi with hi - lo < 2^-bits.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), with each arctan
    enclosed by _atan_inv_bounds at 16 guard bits.  The width is about
    7.4 * bits units of 2^-(bits + 16), so below 2^-bits for any bits up
    to ~8000.
    """
    scale = 1 << (bits + 16)
    lo5, hi5 = _atan_inv_bounds(5, scale)
    lo239, hi239 = _atan_inv_bounds(239, scale)
    return Fraction(16 * lo5 - 4 * hi239, scale), Fraction(16 * hi5 - 4 * lo239, scale)


def __getattr__(name):
    # _PI_LO/_PI_HI: the finest enclosure of pi that sign certification
    # uses, built on first access and not at import
    if name in ("_PI_LO", "_PI_HI"):
        return _pi_interval(SIGN_BITS[-1])[name == "_PI_HI"]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def scalar_sign(v: GradedScalar) -> int:
    """Certified sign of a graded scalar: -1, 0 or +1.

    Single-grade values and values whose rational coefficients all share
    one sign are decided exactly (each monomial 2^(j/2)*pi^(k/2) is
    positive).  Mixed-sign values are certified by rational interval
    arithmetic at the escalating precisions SIGN_BITS, with pi enclosed
    afresh at each; a canonical nonzero value can never be numerically
    zero, but if the enclosure still stays astride zero at the last
    precision, IndeterminateSign is raised rather than guessing.
    """
    v = _coerce_scalar(v)
    if not v:
        return 0
    signs = {q > 0 for _, q in v._terms.items()}
    if signs == {True}:
        return 1
    if signs == {False}:
        return -1
    for bits in SIGN_BITS:
        sqrt2 = _sqrt_interval(Fraction(2), Fraction(2), bits)
        pi_iv = _pi_interval(bits)
        sqrtpi = _sqrt_interval(*pi_iv, bits)
        lo = Fraction(0)
        hi = Fraction(0)
        for (j, k), q in v._terms.items():
            # 2^(j/2)*pi^(k/2) = sqrt2^j * pi^(k//2) * sqrtpi^(k%2), each factor positive
            a = b = Fraction(1)
            for (flo, fhi), e in ((sqrt2, j), (pi_iv, k // 2), (sqrtpi, k % 2)):
                if e < 0:
                    flo, fhi = fhi, flo
                a, b = a * flo**e, b * fhi**e
            if q >= 0:
                lo += q * a
                hi += q * b
            else:
                lo += q * b
                hi += q * a
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise IndeterminateSign("interval enclosure of %s straddles zero" % v.text())


# ---------------------------------------------------------------------------
# polynomials in the regulator
# ---------------------------------------------------------------------------


class EpsScalar(_TermMap):
    """Polynomial in the regulator eps with GradedScalar coefficients.

    A sparse term map from each eps power (>= 0) to its nonzero
    coefficient.  The constructor takes the dense coefficient sequence
    c0, c1, ... by ascending power, and ``coeffs()`` gives it back.
    """

    __slots__ = ()
    _pad = ""
    _key = staticmethod(int)
    _coeff = staticmethod(_coerce_scalar)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (str, bytes, Mapping, Set)) or not isinstance(coeffs, Iterable):
            raise DomainError("EpsScalar coeffs must be a sequence, got %s" % type(coeffs).__name__)
        super().__init__(enumerate(coeffs))

    @staticmethod
    def _lift(other):
        if isinstance(other, (int, Fraction, GradedScalar)):
            return EpsScalar.of(other)
        return None

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls) -> "EpsScalar":
        return _EPS_ONE

    @classmethod
    def of(cls, value) -> "EpsScalar":
        """Lift a rational or GradedScalar to a constant polynomial."""
        if isinstance(value, EpsScalar):
            return value
        c = _coerce_scalar(value)  # the one-term map, built directly
        return _EPS_ONE._like({0: c} if c else {})

    @classmethod
    def affine(cls, c0, c1) -> "EpsScalar":
        """c0 + c1*eps."""
        return cls((c0, c1))

    # -- inspection ---------------------------------------------------------

    def coeffs(self) -> tuple:
        """Dense coefficients by ascending power; the last one is nonzero."""
        return tuple(self.coeff(p) for p in range(self.degree() + 1))

    def coeff(self, power: int) -> GradedScalar:
        return self._terms.get(_as_count(power, "power"), GS_ZERO)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for zero."""
        return max(self._terms, default=-1)

    def eval0(self) -> GradedScalar:
        """Value at eps = 0."""
        return self.coeff(0)

    def as_fraction(self):
        """The value as a Fraction when constant and rational, else None."""
        return self.eval0().as_fraction() if self.degree() <= 0 else None

    def is_affine_rational(self) -> bool:
        return self.degree() <= 1 and all(
            c.as_fraction() is not None for c in self._terms.values()
        )

    # -- ring operations ----------------------------------------------------

    def __hash__(self):
        # a constant hashes as its coefficient, which it compares equal to
        if self.degree() <= 0:
            return hash(self.eval0())
        return super().__hash__()

    __add__ = _TermMap.__add__
    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Fraction) and other and len(self._terms) == 1:
            (p, g), = self._terms.items()
            if len(g._terms) == 1:  # a ladder image's product: one Fraction product
                (unit, q), = g._terms.items()
                return self._like({p: g._like({unit: q * other})})
        if isinstance(other, (int, Fraction, GradedScalar)):
            # a constant scales each coefficient; the ring has no zero divisors
            if type(other) is bool:
                raise DomainError("expected a rational, got %r" % (other,))
            if not other:
                return self._like({})
            return self._like({i: a * other for i, a in self._terms.items()})
        if type(other) is not EpsScalar:
            return NotImplemented
        out: dict[int, GradedScalar] = {}
        for i, a in self._terms.items():
            for j, b in other._terms.items():
                _put(out, i + j, a * b)
        return self._like(out)

    __rmul__ = __mul__

    def try_div(self, other: "EpsScalar"):
        """Exact polynomial quotient self/other, or None."""
        other = EpsScalar.of(other)
        if not other:
            raise DomainError("division by zero polynomial")
        if len(other._terms) == 1:  # _long_div's steps: each term of self alone, top down
            (p, c), = other._terms.items()
            quot = {}
            for i in sorted(self._terms, reverse=True):
                t = self._terms[i].try_div(c) if i >= p else None  # i < p: a negative shift
                if t is None:
                    return None
                quot[i - p] = t
            return self._like(quot)
        quot = _long_div(self._terms, other._terms, GradedScalar.try_div, laurent=False)
        return None if quot is None else self._like(quot)

    # -- formatting ---------------------------------------------------------

    def sort_key(self):
        """Dense per-power key, zero middle coefficients included."""
        return tuple(c.sort_key() for c in self.coeffs()) or ((0.0, ()),)

    def _term_text(self, p, c) -> str:
        """Compact forms: ``-1+e``, ``2-e``, ``(1 + 2^(1/2))*e^2``."""
        if p == 0:
            return c.text()
        e = "e" if p == 1 else "e^%d" % p
        if c == GS_ONE:
            return e
        if c == -GS_ONE:
            return "-" + e
        return "%s*%s" % (_paren(c.text()), e)


_EPS_ONE = EpsScalar((GS_ONE,))


# ---------------------------------------------------------------------------
# truncated Laurent data
# ---------------------------------------------------------------------------

EXACT_UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class LaurentValue:
    """Coefficients of eps^-1 and eps^0 of a quantity with at most a
    simple pole in the regulator.

    ``finite`` is None exactly when an exact constant term is not
    representable in the field (a gamma factor sat on a pole, whose
    constant Laurent coefficient involves digamma values); the floating
    mirror ``finite_num`` is always maintained.
    """

    pole: GradedScalar
    finite: GradedScalar | None
    finite_num: float

    @classmethod
    def zero(cls) -> "LaurentValue":
        return cls(GS_ZERO, GS_ZERO, 0.0)

    @classmethod
    def exact(cls, finite: GradedScalar) -> "LaurentValue":
        return cls(GS_ZERO, finite, float(_as_instance(finite, GradedScalar, "finite")))

    def is_exact(self) -> bool:
        return self.finite is not None

    def is_zero(self) -> bool:
        return (not self.pole) and self.finite is not None and not self.finite

    def __add__(self, other: "LaurentValue") -> "LaurentValue":
        if not isinstance(other, LaurentValue):
            return NotImplemented
        if self.finite is not None and other.finite is not None:
            fin = self.finite + other.finite
        else:
            fin = None
        return LaurentValue(self.pole + other.pole, fin, self.finite_num + other.finite_num)

    def times_scalar(self, g: GradedScalar) -> "LaurentValue":
        g = _as_instance(g, GradedScalar, "g")
        fin = None if self.finite is None else self.finite * g
        return LaurentValue(self.pole * g, fin, self.finite_num * float(g))

    def times_eps_poly(self, c: EpsScalar) -> "LaurentValue":
        """Truncated product with a polynomial in eps.

        (c0 + c1 e + ...) * (p/e + f + O(e)) = c0 p / e + (c0 f + c1 p) + O(e).
        """
        c0 = _as_instance(c, EpsScalar, "c").coeff(0)
        c1 = c.coeff(1)
        pole = self.pole * c0
        if self.finite is not None:
            fin = self.finite * c0 + self.pole * c1
        elif not c0:
            fin = self.pole * c1
        else:
            fin = None
        num = self.finite_num * float(c0) + float(self.pole) * float(c1)
        return LaurentValue(pole, fin, num)

    def shifted(self, power: Fraction) -> "LaurentValue":
        """Multiply by eps^power and re-truncate; power in {0, 1/2, 1}.

        The half-integer shift has no integer-power coefficients left at
        orders -1 and 0: its eps -> 0 limit is zero unless the pole
        survives, in which case the limit does not exist.
        """
        power = _as_fraction(power)
        if power == 0:
            return self
        if power == 1:
            return LaurentValue(GS_ZERO, self.pole, float(self.pole))
        if power == _HALF:
            if self.pole:
                raise NotConvergent(
                    "eps^(1/2) shift leaves a divergent eps^(-1/2) term"
                )
            return LaurentValue.zero()
        raise DomainError("unsupported eps shift %s" % power)

    def text(self) -> str:
        fin = EXACT_UNAVAILABLE if self.finite is None else self.finite.text()
        if not self.pole:
            return fin
        return "(%s)/e + %s" % (self.pole.text(), fin)

    def __repr__(self):
        return "LaurentValue<%s>" % self.text()


# ---------------------------------------------------------------------------
# gamma on half-integers
# ---------------------------------------------------------------------------


def _check_half_integer(arg: Fraction) -> Fraction:
    arg = _as_fraction(arg)
    if arg.denominator not in (1, 2):
        raise DomainError(
            "gamma argument %s is not a half-integer; exact mode covers "
            "half-integers only (use gamma_numeric for floats)" % arg
        )
    # a pole (a non-positive integer) is reported at no cost, at any size
    if abs(arg) > MAX_GAMMA_ARG and (arg > 0 or arg.denominator == 2):
        raise DomainError("gamma argument %s exceeds the exact bound %d" % (arg, MAX_GAMMA_ARG))
    return arg


def gamma_exact(arg) -> GradedScalar:
    """Exact gamma at a half-integer argument.

    (n-1)! at a positive integer n.  At arg = 1/2 + m, with k = |m| and
    q = (2k)!/(4^k k!), Legendre's closed form gives gamma(1/2 + k) =
    q*sqrt(pi) and gamma(1/2 - k) = (-1)^k/q * sqrt(pi).  Non-positive
    integers raise PoleError; other denominators raise DomainError.
    """
    arg = _check_half_integer(arg)
    if arg.denominator == 1:
        n = arg.numerator
        if n <= 0:
            raise PoleError("gamma has a pole at %s" % arg)
        return GradedScalar.rational(math.factorial(n - 1))
    k = abs(arg.numerator // 2)  # arg = (2m + 1)/2
    q = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return GradedScalar.monomial(q if arg > 0 else (-1) ** k / q, 0, 1)


def gamma_numeric(arg) -> float:
    """Floating gamma for any rational argument off the poles.

    Documented numeric fallback for arguments outside the half-integer
    exact domain.  DomainError where the argument or its gamma leaves
    float range: gamma(171) is finite, gamma(172) overflows, and below
    about -171.5 a value underflows to a signed zero (gamma has no zeros).
    """
    arg = _as_fraction(arg)
    if arg.denominator == 1 and arg.numerator <= 0:
        raise PoleError("gamma has a pole at %s" % arg)
    try:
        value = math.gamma(float(arg))
    except (OverflowError, ValueError):
        value = 0.0
    if not value:
        raise DomainError("gamma(%s) is out of float range" % _frac_text(arg))
    return value


def gamma_laurent(base, slope) -> LaurentValue:
    """Laurent data of gamma(base + slope*eps) at eps -> 0.

    At base = -m (m >= 0) the simple pole has residue (-1)^m / m! in the
    shifted variable, hence pole coefficient ((-1)^m / m!) / slope in
    eps; the constant term involves digamma(m+1) and is tracked only
    numerically.  Away from poles the value is plain gamma(base).
    """
    base = _check_half_integer(base)
    slope = _as_fraction(slope)
    if not slope:
        raise DomainError("gamma_laurent requires a nonzero eps slope")
    if base.denominator == 1 and base.numerator <= 0:
        m = -base.numerator
        if m > MAX_GAMMA_ARG:  # the residue and the digamma sum take m steps
            raise DomainError(
                "gamma argument %s exceeds the exact bound %d" % (base, MAX_GAMMA_ARG)
            )
        residue = Fraction((-1) ** m, math.factorial(m))
        pole = GradedScalar.rational(residue / slope)
        harmonic = sum(1.0 / i for i in range(1, m + 1))
        finite_num = float(residue) * (harmonic - _EULER_GAMMA)
        return LaurentValue(pole, None, finite_num)
    fin = gamma_exact(base)
    return LaurentValue(GS_ZERO, fin, float(fin))


GS_PI = GradedScalar.pi()
