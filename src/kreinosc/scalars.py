"""Exact scalar arithmetic for the oscillator laboratory.

A scalar is a finite sum  q * 2^(j/2) * pi^(k/2)  with rational q.  The
canonical form folds even powers of sqrt(2) into the rational
coefficient, so the stored j is always 0 or 1 while k ranges over all
integers.  Powers of sqrt(pi) are linearly independent over Q(sqrt(2)),
hence distinct canonical term maps denote distinct reals and equality is
decidable term by term.  The empty map is zero.

On top of that base field the module provides polynomials in the
regulator eps (`EpsScalar`), truncated Laurent data in eps
(`LaurentValue`, pole and constant coefficient only), exact gamma values
on half-integer arguments, and the Laurent expansion of gamma along an
eps-deformed argument.  Digamma constants are excluded from the exact
field: when a gamma evaluation sits on a pole only the residue is exact
and the constant term is tracked numerically.

All values are immutable and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, IndeterminateSign, PoleError

# Euler-Mascheroni constant, used only for the numeric mirror of
# gamma's constant Laurent coefficient at a pole.
_EULER_GAMMA = 0.5772156649015328606065120900824024

# pi truncated to 49 fractional digits; the true value lies in
# [_PI_LO, _PI_LO + 10^-49].  This bounds the resolution of interval
# sign certification at roughly 1e-45, far below anything the exact
# constructions here produce.
_PI_LO = Fraction(31415926535897932384626433832795028841971693993751, 10**49)
_PI_HI = _PI_LO + Fraction(1, 10**49)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError("expected a rational, got %r" % (x,))


def _put(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    acc = out.get(key)
    acc = c if acc is None else acc + c
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


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
# graded scalars
# ---------------------------------------------------------------------------


class GradedScalar:
    """Immutable element of Q[2^(1/2), pi^(1/2), pi^(-1/2)].

    Terms are keyed by the grade pair (j, k); construction canonicalizes
    j to {0, 1} and drops zero coefficients.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        canon: dict[tuple[int, int], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (j, k), q in items:
                q = _as_fraction(q)
                if not q:
                    continue
                j = int(j)
                r = j % 2
                # 2^(j/2) = 2^((j-r)/2) * 2^(r/2) with the first factor rational
                _put(canon, (r, int(k)), q * Fraction(2) ** ((j - r) // 2))
        object.__setattr__(self, "_terms", canon)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GradedScalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "GradedScalar":
        return _GS_ZERO

    @classmethod
    def one(cls) -> "GradedScalar":
        return _GS_ONE

    @classmethod
    def rational(cls, q) -> "GradedScalar":
        return cls({(0, 0): _as_fraction(q)})

    @classmethod
    def monomial(cls, q, j=0, k=0) -> "GradedScalar":
        """Single term q * 2^(j/2) * pi^(k/2)."""
        return cls({(int(j), int(k)): _as_fraction(q)})

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

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def as_fraction(self):
        """The value as a Fraction when it is purely rational, else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and (0, 0) in self._terms:
            return self._terms[(0, 0)]
        return None

    def coefficient(self, j, k) -> Fraction:
        return self._terms.get((int(j) % 2, int(k)), _ZERO_FRACTION)

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GradedScalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == GradedScalar.rational(other)._terms
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as its Fraction, since the two compare equal
        h = self._hash
        if h is None:
            q = self.as_fraction()
            h = hash(q) if q is not None else hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __neg__(self):
        return GradedScalar({g: -q for g, q in self._terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedScalar.rational(other)
        if not isinstance(other, GradedScalar):
            return NotImplemented
        out = dict(self._terms)
        for g, q in other._terms.items():
            _put(out, g, q)
        return _gs_raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedScalar.rational(other)
        if not isinstance(other, GradedScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                return _GS_ZERO
            return _gs_raw({g: c * q for g, c in self._terms.items()})
        if not isinstance(other, GradedScalar):
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (j1, k1), q1 in self._terms.items():
            for (j2, k2), q2 in other._terms.items():
                j = j1 + j2
                r = j % 2
                _put(out, (r, k1 + k2), q1 * q2 * Fraction(2) ** ((j - r) // 2))
        return _gs_raw(out)

    __rmul__ = __mul__

    def try_div(self, other: "GradedScalar"):
        """Exact quotient self/other within the ring, or None.

        The ring is the Laurent-polynomial ring F[y, 1/y] with y =
        sqrt(pi) over the field F = Q(sqrt(2)), so division is ordinary
        polynomial division after shifting out the lowest powers of y.
        """
        if not isinstance(other, GradedScalar) or not other:
            raise DomainError("division by zero scalar")
        if not self:
            return _GS_ZERO
        f = _by_k(self)
        g = _by_k(other)
        fmin, gmin = min(f), min(g)
        shift = fmin - gmin
        # normalize both to polynomials in y with nonzero constant term
        fpoly = {k - fmin: c for k, c in f.items()}
        gpoly = {k - gmin: c for k, c in g.items()}
        gdeg = max(gpoly)
        glead = gpoly[gdeg]
        quot: dict[int, tuple[Fraction, Fraction]] = {}
        while fpoly:
            fdeg = max(fpoly)
            if fdeg < gdeg:
                return None
            t = _q2_div(fpoly[fdeg], glead)
            dk = fdeg - gdeg
            quot[dk] = t
            for k, c in gpoly.items():
                key = k + dk
                acc = _q2_sub(fpoly.get(key, _Q2_ZERO), _q2_mul(t, c))
                if acc == _Q2_ZERO:
                    fpoly.pop(key, None)
                else:
                    fpoly[key] = acc
        terms = {}
        for dk, (a, b) in quot.items():
            if a:
                terms[(0, dk + shift)] = a
            if b:
                terms[(1, dk + shift)] = b
        return GradedScalar(terms)

    # -- evaluation and formatting ------------------------------------------

    def __float__(self):
        total = 0.0
        for (j, k), q in self._terms.items():
            total += float(q) * (2.0 ** (j / 2.0)) * (math.pi ** (k / 2.0))
        return total

    def sort_key(self):
        return (float(self), tuple(sorted(self._terms.items())))

    def text(self) -> str:
        """Canonical display form, e.g. ``-2*pi^(3/2)`` or ``3/8*pi^(1/2) + 1/2``."""
        if not self._terms:
            return "0"
        parts = []
        for (j, k), q in self.terms():
            factors = [str(q)]
            if j == 1:
                factors.append("2^(1/2)")
            if k:
                if k % 2 == 0:
                    half = k // 2
                    factors.append("pi" if half == 1 else "pi^(%d)" % half)
                else:
                    factors.append("pi^(%s)" % Fraction(k, 2))
            parts.append("*".join(factors))
        return _join_signed(parts)

    def __repr__(self):
        return "GradedScalar<%s>" % self.text()


_ZERO_FRACTION = Fraction(0)
_Q2_ZERO = (_ZERO_FRACTION, _ZERO_FRACTION)


def _gs_raw(terms: dict) -> GradedScalar:
    out = GradedScalar()
    object.__setattr__(out, "_terms", terms)
    object.__setattr__(out, "_hash", None)
    return out


def _by_k(v: GradedScalar) -> dict[int, tuple[Fraction, Fraction]]:
    """Regroup terms as {k: (a, b)} meaning (a + b*sqrt(2)) * pi^(k/2)."""
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for (j, k), q in v._terms.items():
        a, b = out.get(k, _Q2_ZERO)
        out[k] = (a + q, b) if j == 0 else (a, b + q)
    return out


def _q2_mul(x, y):
    a, b = x
    c, d = y
    return (a * c + 2 * b * d, a * d + b * c)


def _q2_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _q2_div(x, y):
    c, d = y
    n = c * c - 2 * d * d  # nonzero for nonzero (c, d): sqrt(2) is irrational
    return _q2_mul(x, (c / n, -d / n))


_GS_ZERO = GradedScalar()
_GS_ONE = GradedScalar({(0, 0): 1})


# ---------------------------------------------------------------------------
# sign certification
# ---------------------------------------------------------------------------


def _sqrt_interval(lo: Fraction, hi: Fraction, bits: int):
    scale = 1 << bits
    s2 = scale * scale
    a = isqrt((lo.numerator * s2) // lo.denominator)
    b = isqrt(-((-hi.numerator * s2) // hi.denominator)) + 1
    return Fraction(a, scale), Fraction(b, scale)


def _pow_interval(iv, e: int):
    lo, hi = iv
    if e >= 0:
        return lo**e, hi**e
    return hi**e, lo**e


def _mul_interval(x, y):
    # both operands are intervals of positive reals
    return x[0] * y[0], x[1] * y[1]


def scalar_sign(v: GradedScalar) -> int:
    """Certified sign of a graded scalar: -1, 0 or +1.

    Single-grade values and values whose rational coefficients all share
    one sign are decided exactly (each monomial 2^(j/2)*pi^(k/2) is
    positive).  Mixed-sign values are certified by rational interval
    arithmetic at escalating precision; a canonical nonzero value can
    never be numerically zero, but if the enclosure stays astride zero
    IndeterminateSign is raised rather than guessing.
    """
    if not isinstance(v, GradedScalar):
        v = GradedScalar.rational(_as_fraction(v))
    if not v:
        return 0
    signs = {q > 0 for _, q in v._terms.items()}
    if signs == {True}:
        return 1
    if signs == {False}:
        return -1
    for bits in (192, 512, 1536):
        sqrt2 = _sqrt_interval(Fraction(2), Fraction(2), bits)
        sqrtpi = _sqrt_interval(_PI_LO, _PI_HI, bits)
        pi_iv = (_PI_LO, _PI_HI)
        lo = Fraction(0)
        hi = Fraction(0)
        for (j, k), q in v._terms.items():
            iv = (Fraction(1), Fraction(1))
            if j == 1:
                iv = _mul_interval(iv, sqrt2)
            if k:
                half, r = divmod(k, 2)
                iv = _mul_interval(iv, _pow_interval(pi_iv, half))
                if r:
                    iv = _mul_interval(iv, sqrtpi)
            a, b = iv
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


class EpsScalar:
    """Polynomial in the regulator eps with GradedScalar coefficients.

    Stored as a coefficient tuple by ascending power with the trailing
    coefficient nonzero; the empty tuple is zero.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        out = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                c = GradedScalar.rational(c)
            elif not isinstance(c, GradedScalar):
                raise DomainError("EpsScalar coefficients must be scalars")
            out.append(c)
        while out and not out[-1]:
            out.pop()
        object.__setattr__(self, "_coeffs", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("EpsScalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "EpsScalar":
        return _EPS_ZERO

    @classmethod
    def one(cls) -> "EpsScalar":
        return _EPS_ONE

    @classmethod
    def of(cls, value) -> "EpsScalar":
        """Lift a rational or GradedScalar to a constant polynomial."""
        if isinstance(value, EpsScalar):
            return value
        if isinstance(value, GradedScalar):
            return cls((value,))
        return cls((GradedScalar.rational(_as_fraction(value)),))

    @classmethod
    def affine(cls, c0, c1) -> "EpsScalar":
        """c0 + c1*eps."""
        lift = lambda c: c if isinstance(c, GradedScalar) else GradedScalar.rational(c)
        return cls((lift(c0), lift(c1)))

    # -- inspection ---------------------------------------------------------

    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, power: int) -> GradedScalar:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return _GS_ZERO

    def degree(self) -> int:
        """Degree of the polynomial; -1 for zero."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    def eval0(self) -> GradedScalar:
        """Value at eps = 0."""
        return self.coeff(0)

    def as_fraction(self):
        """The value as a Fraction when constant and rational, else None."""
        if not self._coeffs:
            return Fraction(0)
        if len(self._coeffs) == 1:
            return self._coeffs[0].as_fraction()
        return None

    def is_affine_rational(self) -> bool:
        return len(self._coeffs) <= 2 and all(
            c.as_fraction() is not None for c in self._coeffs
        )

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, EpsScalar):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction, GradedScalar)):
            return self._coeffs == EpsScalar.of(other)._coeffs
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its coefficient, which it compares equal to
        if len(self._coeffs) <= 1:
            return hash(self.eval0())
        return hash(self._coeffs)

    def __neg__(self):
        return EpsScalar(tuple(-c for c in self._coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GradedScalar)):
            other = EpsScalar.of(other)
        if not isinstance(other, EpsScalar):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return EpsScalar(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GradedScalar)):
            other = EpsScalar.of(other)
        if not isinstance(other, EpsScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GradedScalar)):
            other = EpsScalar.of(other)
        if not isinstance(other, EpsScalar):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return _EPS_ZERO
        n = len(self._coeffs) + len(other._coeffs) - 1
        acc = [_GS_ZERO] * n
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j, b in enumerate(other._coeffs):
                if b:
                    acc[i + j] = acc[i + j] + a * b
        return EpsScalar(tuple(acc))

    __rmul__ = __mul__

    def try_div(self, other: "EpsScalar"):
        """Exact polynomial quotient self/other, or None."""
        if isinstance(other, (int, Fraction, GradedScalar)):
            other = EpsScalar.of(other)
        if not other:
            raise DomainError("division by zero polynomial")
        if not self:
            return _EPS_ZERO
        rem = list(self._coeffs)
        dg = other.degree()
        lead = other._coeffs[-1]
        if len(rem) - 1 < dg:
            return None
        quot = [_GS_ZERO] * (len(rem) - dg)
        for top in range(len(rem) - 1, dg - 1, -1):
            c = rem[top]
            if not c:
                continue
            t = c.try_div(lead)
            if t is None:
                return None
            quot[top - dg] = t
            for i in range(dg + 1):
                rem[top - dg + i] = rem[top - dg + i] - t * other._coeffs[i]
        if any(rem):
            return None
        return EpsScalar(tuple(quot))

    # -- formatting ---------------------------------------------------------

    def sort_key(self):
        return tuple(c.sort_key() for c in self._coeffs) or ((0.0, ()),)

    def text(self) -> str:
        """Compact display form, e.g. ``-1+e`` or ``2-e``."""
        if not self._coeffs:
            return "0"
        parts = []
        for p, c in enumerate(self._coeffs):
            if not c:
                continue
            if p == 0:
                parts.append(c.text())
                continue
            e = "e" if p == 1 else "e^%d" % p
            if c == _GS_ONE:
                parts.append(e)
            elif c == -_GS_ONE:
                parts.append("-" + e)
            else:
                parts.append("%s*%s" % (_paren(c.text()), e))
        return _join_signed(parts, pad="")

    def __repr__(self):
        return "EpsScalar<%s>" % self.text()


_EPS_ZERO = EpsScalar()
_EPS_ONE = EpsScalar((_GS_ONE,))


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
        return cls(_GS_ZERO, _GS_ZERO, 0.0)

    @classmethod
    def exact(cls, finite: GradedScalar) -> "LaurentValue":
        return cls(_GS_ZERO, finite, float(finite))

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
        fin = None if self.finite is None else self.finite * g
        return LaurentValue(self.pole * g, fin, self.finite_num * float(g))

    def times_eps_poly(self, c: EpsScalar) -> "LaurentValue":
        """Truncated product with a polynomial in eps.

        (c0 + c1 e + ...) * (p/e + f + O(e)) = c0 p / e + (c0 f + c1 p) + O(e).
        """
        c0 = c.coeff(0)
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
        from .errors import NotConvergent

        power = _as_fraction(power)
        if power == 0:
            return self
        if power == 1:
            return LaurentValue(_GS_ZERO, self.pole, float(self.pole))
        if power == Fraction(1, 2):
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
    return arg


def gamma_exact(arg) -> GradedScalar:
    """Exact gamma at a half-integer argument.

    Built from gamma(1/2) = sqrt(pi) and gamma(1) = 1 by the recurrence
    gamma(s+1) = s*gamma(s), run in either direction.  Non-positive
    integers raise PoleError; other denominators raise DomainError.
    """
    arg = _check_half_integer(arg)
    if arg.denominator == 1:
        n = arg.numerator
        if n <= 0:
            raise PoleError("gamma has a pole at %s" % arg)
        return GradedScalar.rational(math.factorial(n - 1))
    # arg = m + 1/2 for integer m
    m = (arg - Fraction(1, 2)).numerator
    coeff = Fraction(1)
    if m >= 0:
        s = Fraction(1, 2)
        for _ in range(m):
            coeff *= s
            s += 1
    else:
        s = Fraction(1, 2)
        for _ in range(-m):
            s -= 1
            coeff /= s
    return GradedScalar.monomial(coeff, 0, 1)


def gamma_numeric(arg) -> float:
    """Floating gamma for any rational argument off the poles.

    Documented numeric fallback for arguments outside the half-integer
    exact domain.
    """
    arg = _as_fraction(arg)
    if arg.denominator == 1 and arg.numerator <= 0:
        raise PoleError("gamma has a pole at %s" % arg)
    return math.gamma(float(arg))


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
        residue = Fraction((-1) ** m, math.factorial(m))
        pole = GradedScalar.rational(residue / slope)
        harmonic = sum(1.0 / i for i in range(1, m + 1))
        finite_num = float(residue) * (harmonic - _EULER_GAMMA)
        return LaurentValue(pole, None, finite_num)
    fin = gamma_exact(base)
    return LaurentValue(_GS_ZERO, fin, float(fin))


GS_ZERO = _GS_ZERO
GS_ONE = _GS_ONE
GS_PI = GradedScalar.pi()
