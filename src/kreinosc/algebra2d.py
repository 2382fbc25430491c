"""Planar oscillator algebra in conjugate complex coordinates.

States are finite sums  c * zbar^L * z^M * exp(-zbar z / 2)  where the
exponents may carry an integer eps-slope in {0, 1}: L = lam + lam_slope
* eps, M = mu + mu_slope * eps.  Coefficients are polynomials in eps
over the exact graded field.  The Wirtinger pair used here carries a
factor two,

    dz[z^M]    = 2 M z^(M-1),      dz[exp(-zbar z/2)]    = -zbar * exp(..),
    dzbar[zbar^L] = 2 L zbar^(L-1), dzbar[exp(-zbar z/2)] = -z * exp(..),

so [dz, z] = [dzbar, zbar] = 2 on these states.

The inner product integrates conj(f) * g over the plane.  Writing each
term pair in polar coordinates, the angular factor exp(i (q_g - q_f)
phi) integrates to zero unless the angular charges q = -L + M agree
identically as functions of eps; matching pairs leave the radial moment

    pi * gamma((lam_f + mu_f + lam_g + mu_g)/2 + 1  (+ slope terms))

evaluated through the Laurent expansion of gamma in eps.  Charge
sectors therefore never mix, exactly.

Everything is immutable and all functions are pure.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra1d import Divergence, _compose, _DiffOp, _divergence, _eigenvalue, _known, _ratio
from .errors import DomainError, NotConvergent, PoleError
from .scalars import (
    GS_PI,
    GS_ZERO,
    EpsScalar,
    GradedScalar,
    LaurentValue,
    _as_count,
    _as_fraction,
    _as_instance,
    _check_half_integer,
    _coerce_scalar,
    _HALF,
    _paren,
    _put,
    _TermMap,
    gamma_exact,
    gamma_laurent,
)


def _check_slope(s) -> int:
    if _as_count(s, "eps slope") not in (0, 1):
        raise DomainError("eps slopes are restricted to 0 or 1, got %s" % s)
    return s


def _check_renorm(power) -> Fraction:
    power = _as_fraction(power)
    if power not in (0, _HALF):
        raise DomainError("renorm power must be 0 or 1/2")
    return power


# Planar exponents are interned: a bench pass meets 31-47 distinct ones, so equal
# exponents in term keys are one object, compared by identity and hashed from a
# slot.  Bounded for library callers; an evicted exponent costs identity only.
EXPONENT_CACHE_SIZE = 4096


class _Exp(Fraction):
    """A Fraction that keeps its hash; its arithmetic gives plain Fractions."""

    __slots__ = ("_hash",)

    def __new__(cls, numerator, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        self._hash = Fraction.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Fraction(%d, %d)" % self.as_integer_ratio()


_exp = functools.lru_cache(maxsize=EXPONENT_CACHE_SIZE)(_Exp)  # _exp(n, d): the interned n/d


def _plus(x: Fraction, k: int) -> _Exp:
    """The interned exponent x + k for an int k: n/d + k = (n + k*d)/d is in lowest terms."""
    n, d = x.as_integer_ratio()
    return _exp(n + k * d, d)


def _affine(c0, c1):
    """c0 + c1*eps, as the rational c0 when c1 is zero."""
    return EpsScalar.affine(c0, c1) if c1 else c0


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial2D:
    """One weighted monomial zbar^(lam + lam_slope*eps) z^(mu + mu_slope*eps)."""

    lam: Fraction
    lam_slope: int
    mu: Fraction
    mu_slope: int

    def key(self):
        return (self.lam, self.lam_slope, self.mu, self.mu_slope)

    def text(self) -> str:
        lt = str(self.lam) + ("+e" if self.lam_slope else "")
        mt = str(self.mu) + ("+e" if self.mu_slope else "")
        return "zbar^(%s)*z^(%s)" % (lt, mt)


class State2D(_TermMap):
    """Finite sum of weighted monomials with a renormalization marker.

    ``renorm_power`` is 0 for plain states and 1/2 for states drawn from
    an eps-deformed sector, recording the sqrt(eps) prefactor that the
    renormalized inner product applies.  It takes part in ==, and only
    states with the same marker add.  The pairing index (see _pairing) is
    kept in a slot of its own and takes no part in == or hash.
    """

    __slots__ = ("renorm_power", "_index")
    _coeff = staticmethod(EpsScalar.of)

    def __init__(self, terms=None, renorm_power=Fraction(0)):
        renorm_power = _check_renorm(renorm_power)
        super().__init__(terms)
        object.__setattr__(self, "renorm_power", renorm_power)

    @staticmethod
    def _key(mono) -> tuple:
        lam, ls, mu, ms = mono.key() if isinstance(mono, Monomial2D) else mono
        key = (_as_fraction(lam), _check_slope(ls), _as_fraction(mu), _check_slope(ms))
        return (_exp(*key[0].as_integer_ratio()), ls, _exp(*key[2].as_integer_ratio()), ms)

    def _like(self, terms: dict, renorm_power=None) -> "State2D":
        out = super()._like(terms)
        if renorm_power is None:
            renorm_power = self.renorm_power
        object.__setattr__(out, "renorm_power", renorm_power)
        return out

    def _marker(self):
        return self.renorm_power

    def __add__(self, other):
        if isinstance(other, State2D) and other.renorm_power != self.renorm_power:
            raise DomainError("cannot add states with different renorm powers")
        return super().__add__(other)

    def terms(self) -> tuple:
        """Sorted (Monomial2D, EpsScalar) pairs."""
        return tuple((Monomial2D(*key), self._terms[key]) for key in sorted(self._terms))

    def with_renorm(self, power) -> "State2D":
        return self._like(self._terms, _check_renorm(power))

    def has_slopes(self) -> bool:
        return any(k[1] or k[3] for k in self._terms)

    def charges(self) -> set:
        return {(mu - lam, ms - ls) for lam, ls, mu, ms in self._terms}

    def _pairing(self) -> tuple:
        """(entries, buckets), built on the first pairing and kept.

        Each term as (charge key, 2(lam + mu), slope sum, coefficient, int
        form of its eps^0 coefficient; see _int_form) in term order, and the
        same entries bucketed by charge key.  The key holds the charge's
        integer parts, (numerator, denominator, slope), since a Fraction
        hashes slowly; 2(lam + mu) is an int when lam + mu is a half-integer.
        Both come from the exponents' ints, with no Fraction arithmetic.
        """
        if hasattr(self, "_index"):
            return self._index
        entries, buckets = [], {}
        for (lam, ls, mu, ms), c in self._terms.items():
            (ln, ld), (mn, md) = lam.as_integer_ratio(), mu.as_integer_ratio()
            q, d, t, c0 = mn * ld - ln * md, ld * md, 2 * (mn * ld + ln * md), c._terms.get(0)
            key = (q // (h := gcd(q, d)), d // h, ms - ls)
            t = t // d if t % d == 0 else Fraction(t, d)
            e = (key, t, ls + ms, c, _NO_EPS0 if c0 is None else _int_form(c0))
            entries.append(e)
            buckets.setdefault(key, []).append(e)
        if len(buckets) == 1:  # one charge: its bucket is the entries list itself
            buckets[key] = entries
        object.__setattr__(self, "_index", (entries, buckets))
        return entries, buckets

    def limit_eps0(self) -> "State2D":
        """Termwise eps -> 0 limit: slopes dropped, coefficients at eps = 0."""
        out: dict[tuple, EpsScalar] = {}
        for (lam, _ls, mu, _ms), c in self._terms.items():
            _put(out, (lam, 0, mu, 0), EpsScalar.of(c.eval0()))
        return self._like(out, Fraction(0))

    def _term_text(self, mono, c) -> str:
        return "%s*%s" % (_paren(c.text(), minus="-"), mono.text())


def omega(lam, mu, lam_slope=0, mu_slope=0) -> State2D:
    """Unit-coefficient weighted monomial state."""
    # a term list, not a dict: the key is checked before anything hashes it
    return State2D([((lam, lam_slope, mu, mu_slope), EpsScalar.one())])


def psi0() -> State2D:
    """The weighted unit state zbar^0 z^0."""
    return omega(0, 0)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class DiffOp2D(_DiffOp):
    """Normal-ordered operator: map (zbar_pow, z_pow, dzbar, dz) -> GradedScalar."""

    __slots__ = ()
    _vars = (("zbar", "dzbar"), ("z", "dz"))

    @staticmethod
    def _coeff(c) -> GradedScalar:
        if isinstance(c, EpsScalar):
            raise DomainError("operator coefficients carry no eps dependence")
        return _coerce_scalar(c)

    def __mul__(self, other):
        if isinstance(other, DiffOp2D):
            return compose_2d(self, other)
        return NotImplemented


# The differential forms of the named planar operators, as normal-ordered
# term maps (zbar_pow, z_pow, dzbar, dz) -> coefficient.  H and Q are the
# ground truth of the identity audit; the four b operators are the
# half-normalized first-order ladder pair for each rotation sense.
_FORMS = {
    "H": {(0, 0, 1, 1): -_HALF, (1, 1, 0, 0): _HALF},  # (1/2)(-dzbar dz + zbar z)
    "Q": {(1, 0, 1, 0): -_HALF, (0, 1, 0, 1): _HALF},  # (1/2)(-zbar dzbar + z dz)
    "b_pp": {(0, 0, 1, 0): -_HALF, (0, 1, 0, 0): _HALF},  # (1/2)(-dzbar + z)
    "b_mp": {(0, 0, 0, 1): _HALF, (1, 0, 0, 0): _HALF},  # (1/2)(dz + zbar)
    "b_pm": {(0, 0, 0, 1): -_HALF, (1, 0, 0, 0): _HALF},  # (1/2)(-dz + zbar)
    "b_mm": {(0, 0, 1, 0): _HALF, (0, 1, 0, 0): _HALF},  # (1/2)(dzbar + z)
    "Z": {(0, 1, 0, 0): 1},
    "ZBAR": {(1, 0, 0, 0): 1},
    "DZ": {(0, 0, 0, 1): 1},
    "DZBAR": {(0, 0, 1, 0): 1},
}


def build_op_2d(name: str) -> DiffOp2D:
    """The named generator of the planar algebra, from its form in _FORMS."""
    return _built_op_2d(_known(name, _FORMS, "unknown 2d operator %r"))


@functools.cache
def _built_op_2d(name: str) -> DiffOp2D:
    return DiffOp2D(_FORMS[name])


# ---------------------------------------------------------------------------
# action, composition, commutator
# ---------------------------------------------------------------------------


def _d_terms(terms: dict, slot: int) -> dict:
    """The derivative by the variable whose exponent is key[slot]: dzbar 0, dz 2.

    (x, slope) at that slot -> coeff*2*(x + slope*eps) at x-1, plus -coeff
    with the other exponent raised by one, from the weight.
    """
    out: dict[tuple, EpsScalar] = {}
    other = 2 - slot
    for key, c in terms.items():
        x = key[slot]
        mult = _affine(2 * x, 2 * key[slot + 1])
        if mult:
            _put(out, key[:slot] + (_plus(x, -1),) + key[slot + 1 :], c * mult)
        _put(out, key[:other] + (_plus(key[other], 1),) + key[other + 1 :], -c)
    return out


def apply_2d(op: DiffOp2D, s: State2D) -> State2D:
    """Apply a normal-ordered operator; the renorm marker is preserved."""
    total: dict[tuple, EpsScalar] = {}
    _as_instance(s, State2D, "s")
    for (pb, p, rb, r), c in _as_instance(op, DiffOp2D, "op")._terms.items():
        cur = s._terms
        for slot in (2,) * r + (0,) * rb:
            cur = _d_terms(cur, slot)
        for (lam, ls, mu, ms), v in cur.items():
            _put(total, (_plus(lam, pb) if pb else lam, ls, _plus(mu, p) if p else mu, ms), v * c)
    return s._like(total)


def compose_2d(f: DiffOp2D, g: DiffOp2D) -> DiffOp2D:
    """Normal-ordered product f g by the reordering rule of _compose.

    The factor-two Wirtinger convention gives the rule scale 2:
    d^s x^p = sum_j C(s, j) 2^j (p)_j x^(p-j) d^(s-j), independently in
    the holomorphic and antiholomorphic variables.
    """
    return _compose(_as_instance(f, DiffOp2D, "f"), _as_instance(g, DiffOp2D, "g"), 2)


def commutator_2d(f: DiffOp2D, g: DiffOp2D) -> DiffOp2D:
    return compose_2d(f, g) - compose_2d(g, f)


# ---------------------------------------------------------------------------
# closed-form action
# ---------------------------------------------------------------------------


# The four ladder generators b, in the order of sectors.GENERATOR_ORDER: the
# expression name; dE and dQ, with [H, b] = dE b and [Q, b] = dQ b; and for a
# raising b the conjugate c with [c, b] = 1 (every other pair commutes).
# Closure, the dark scan and the expression names read this table; the
# identity audit checks each column against the differential forms.
_Ladder = namedtuple("_Ladder", "name dE dQ conj")
_LADDER = {
    "b_pp": _Ladder("b++", 1, 1, "b_mp"),
    "b_pm": _Ladder("b+-", 1, -1, "b_mm"),
    "b_mp": _Ladder("b-+", -1, -1, None),
    "b_mm": _Ladder("b--", -1, 1, None),
}


# The action of the six planar operators on Om(lam, mu) = zbar^lam z^mu, with
# lam = lam0 + ls*eps and mu = mu0 + ms*eps: the image terms as (dlam, dmu,
# coefficient of Om(lam+dlam, mu+dmu)), the coefficient a function of the key
# (lam0, ls, mu0, ms), or None for 1,
#   b_pp Om = -lam Om(lam-1,mu) + Om(lam,mu+1)      b_mm Om = lam Om(lam-1,mu)
#   b_pm Om = -mu Om(lam,mu-1) + Om(lam+1,mu)       b_mp Om = mu Om(lam,mu-1)
#   H Om = (lam+mu+1) Om - 2 lam mu Om(lam-1,mu-1)  Q Om = (mu-lam) Om.
# Closure and the dark scan raise states by the ladder rows, eigencheck_2d
# checks H and Q by theirs; the identity audit checks every row against the
# differential forms in _FORMS.
_CLOSED = {
    "b_pp": ((-1, 0, lambda lam, ls, mu, ms: _affine(-lam, -ls)), (0, 1, None)),
    "b_pm": ((0, -1, lambda lam, ls, mu, ms: _affine(-mu, -ms)), (1, 0, None)),
    "b_mp": ((0, -1, lambda lam, ls, mu, ms: _affine(mu, ms)),),
    "b_mm": ((-1, 0, lambda lam, ls, mu, ms: _affine(lam, ls)),),
    "H": (
        (0, 0, lambda lam, ls, mu, ms: _affine(lam, ls) + _affine(mu, ms) + 1),
        (-1, -1, lambda lam, ls, mu, ms: -2 * _affine(lam, ls) * _affine(mu, ms)),
    ),
    "Q": ((0, 0, lambda lam, ls, mu, ms: _affine(mu, ms) - _affine(lam, ls)),),
}


def closed_form(name: str, lam, mu) -> tuple:
    """Action of an operator of _CLOSED on a bare monomial, as (coeff, lam', mu') triples.

    A zero coefficient is kept.  Serves as an independent oracle for
    apply_2d on slope-free states.
    """
    lam = _as_fraction(lam)
    mu = _as_fraction(mu)
    _known(name, _CLOSED, "no closed form for the 2d operator %r")
    return tuple(
        (Fraction(1) if f is None else f(lam, 0, mu, 0), lam + dlam, mu + dmu)
        for dlam, dmu, f in _CLOSED[name]
    )


def ladder_closed_form(which: str, lam, mu) -> tuple:
    """closed_form of one b operator."""
    return closed_form(_known(which, _LADDER, "unknown ladder operator %r"), lam, mu)


def _closed_image(row: tuple, s: State2D) -> State2D:
    """op s term by term, for the operator op whose _CLOSED row is ``row``.

    One EpsScalar product per term of a non-unit coefficient, none for a unit
    one; nearly all are a one-term coefficient times a rational, one Fraction
    product inside EpsScalar.__mul__.  A vanishing term is skipped.  The renorm marker is kept.
    """
    out: dict[tuple, EpsScalar] = {}
    for key, c in _as_instance(s, State2D, "s")._terms.items():
        lam, ls, mu, ms = key
        for dlam, dmu, f in row:
            shifted = (_plus(lam, dlam) if dlam else lam, ls, _plus(mu, dmu) if dmu else mu, ms)
            if f is None:
                _put(out, shifted, c)
            elif v := f(*key):
                _put(out, shifted, c * v)
    return s._like(out)


def ladder_image(which: str, s: State2D) -> State2D:
    """b s for the ladder generator ``which``, by its row of _CLOSED.

    The result equals apply_2d(build_op_2d(which), s), but its terms may be
    stored in another order (apply_2d runs the derivative and the weight
    as separate passes).  Stored order never reaches output: printed
    states go through the sorted terms(), and the float sums that are
    printed (sort keys of node energies and charges) come from single-term
    coefficients.
    """
    return _closed_image(_CLOSED[_known(which, _LADDER, "unknown ladder operator %r")], s)


def _lowers_off(s: State2D) -> bool:
    """Whether H's lowering term carries some key of s off the keys of s.

    That term's coefficient -2 lam mu c is nonzero wherever lam and mu are
    nonzero polynomials, and the map (lam, mu) -> (lam-1, mu-1) is
    injective, so the image of such a key whose shift is no key of s has
    a term that s lacks: s is no eigenstate of H.
    """
    keys = s._terms
    return any(
        (lam or ls) and (mu or ms) and (_plus(lam, -1), ls, _plus(mu, -1), ms) not in keys
        for lam, ls, mu, ms in keys
    )


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


# The moments pi * gamma(base + slope*eps) take few distinct arguments: a
# lab-mix pass pairs 13.3k term pairs over 41 of them, a dark-evaluated pass
# 14.7k over 40.  The cache is bounded because library callers may pass any
# exponents; a pole error is raised afresh each time, since lru_cache keeps
# no exceptions.
MOMENT_CACHE_SIZE = 4096

_NO_EPS0 = (0, 0, 0, 1)  # the int form of a missing eps^0 coefficient: zero


def _int_form(v: GradedScalar):
    """(j, k, numerator, denominator) of a one-term q*2^(j/2)*pi^(k/2); None for a sum."""
    if len(v._terms) != 1:
        return None
    ((j, k), q), = v._terms.items()
    return j, k, q.numerator, q.denominator


@functools.lru_cache(maxsize=MOMENT_CACHE_SIZE)
def _moment(twice: int, slopes: int) -> tuple:
    """pi * gamma(base + slope*eps) with base = 1 + twice/2 and slope = slopes/2.

    ``twice`` is the pair's integral exponent sum lam_f + mu_f + lam_g +
    mu_g.  A pole moment has a nonzero pole and no exact finite part; a
    regular one has a zero pole and an exact finite part.  That nonzero
    part is one term, and its int form comes with it.
    """
    base = Fraction(twice, 2) + 1
    if slopes:
        val = gamma_laurent(base, Fraction(slopes, 2))
    else:
        try:
            val = LaurentValue.exact(gamma_exact(base))
        except PoleError:
            raise PoleError(
                "radial moment hits a gamma pole at %s with no eps "
                "regulator; deform the exponents" % base
            )
    val = val.times_scalar(GS_PI)
    return val, _int_form(val.pole if val.finite is None else val.finite)


def _matched(f: State2D, g: State2D) -> list:
    """(twice, slopes, cf, cg, xf, xg) of every charge-matched pair; see _moment, _pairing.

    Read off both states' pairing indices: each term of f meets only its
    own bucket of g, and pairs come in the order of the double loop over
    f's terms, then g's.  Both arguments are checked to be planar states,
    and every gamma argument is domain-checked here, before any moment: it
    is a half-integer exactly when the exponent sum is an integer.
    """
    _as_instance(f, State2D, "f")
    _as_instance(g, State2D, "g")
    buckets = g._pairing()[1]
    pairs = []
    for key, t, s, cf, xf in f._pairing()[0]:
        for _, u, v, cg, xg in buckets.get(key, ()):
            doubled = t + u  # twice the exponent sum
            if doubled.denominator != 1 or doubled % 2:
                _check_half_integer(Fraction(doubled, 4) + 1)
            pairs.append((doubled.numerator >> 1, s + v, cf, cg, xf, xg))
    return pairs


def inner_2d(f: State2D, g: State2D) -> LaurentValue:
    """Charge-matched regularized inner product, as Laurent data in eps.

    Only term pairs whose angular charges agree identically as functions
    of eps contribute; each contributes

        c_f * c_g * pi * gamma((lam_f + mu_f + lam_g + mu_g)/2 + 1),

    evaluated through gamma's Laurent expansion when the eps slope of
    the argument is nonzero.  The accumulated value is then shifted by
    eps^(renorm_f + renorm_g).  A gamma pole met with zero slope has no
    regulator and raises PoleError.  The matched pairs are domain-scanned
    before any gamma is evaluated, so a non-half-integer argument raises
    DomainError ahead of any pole report; either failure is symmetric
    under swapping f and g.

    The pairs come from the core shared with renorm_inner: both states'
    terms indexed by charge, and each moment read from a bounded
    per-process cache.  Pairs are accumulated one by one in the order of
    the plain double loop, never grouped by moment: a grouped sum would
    reorder the exact terms and the float mirror.
    """
    total = LaurentValue.zero()
    for twice, slopes, cf, cg, _, _ in _matched(f, g):
        total = total + _moment(twice, slopes)[0].times_eps_poly(cf * cg)
    return total.shifted(f.renorm_power + g.renorm_power)


def renorm_inner(f: State2D, g: State2D) -> GradedScalar:
    """eps^0 coefficient of the renormalized inner product.

    This is the eps -> 0 limit of eps^(renorm_f + renorm_g) (f_eps,
    g_eps); only gamma residues contribute for deformed sector pairs.
    NotConvergent if a pole survives the shift.

    It reads the pairs from inner_2d's core but folds only the exact pole
    and finite sums, with no float mirror, in the same pair order, so the
    result equals inner_2d's, stored terms included.  Both sums hold an
    int numerator and denominator per unit 2^(j/2)*pi^(k/2), and drop a
    unit whose sum cancels, as the ring's sum does.  One-term factors
    (the moment and two eps^0 coefficients) multiply on their int forms,
    with 2^(1/2)*2^(1/2) folded into the numerator; a product with a sum
    among its factors, or a pair's eps^1 coefficient at a pole moment, is
    formed in the ring.  Each unit becomes a Fraction once, at the end.
    Under an eps^(1/2) or eps^1 shift only the pole total is kept.
    Pairs are never grouped by moment: besides reordering the sums,
    grouping would let two pole pairs whose eps^0 coefficients cancel
    hide the digamma term that makes the limit unavailable.
    """
    pairs = _matched(f, g)
    shift = bool(f.renorm_power) + bool(g.renorm_power)  # eps^(shift/2)
    pole, fin = {}, {}  # {unit: (n, d)}; fin None once a digamma term enters
    for twice, slopes, cf, cg, xf, xg in pairs:
        m, xm = _moment(twice, slopes)
        prod = None  # the product, where it is formed in the ring
        if xf is _NO_EPS0 or xg is _NO_EPS0:  # cf*cg has no eps^0 term
            if m.finite is not None or fin is None or shift:
                continue
            out, prod = fin, m.pole * (cf * cg).coeff(1)
        else:
            if m.finite is None:
                out, fin = pole, None  # the residue's digamma term
            elif shift or fin is None:
                continue  # under the shift only residues count
            else:
                out = fin
            if xf is None or xg is None:
                part = m.pole if m.finite is None else m.finite
                prod = part * (cf._terms[0] * cg._terms[0])
        if prod is None:
            (jm, km, nm, dm), (jf, kf, nf, df), (jg, kg, ng, dg) = xm, xf, xg
            j = jm + jf + jg
            terms = (((j & 1, km + kf + kg), (nm * nf * ng) << (j >> 1), dm * df * dg),)
        else:
            terms = [(unit, q.numerator, q.denominator) for unit, q in prod._terms.items()]
        for unit, n, d in terms:
            an, ad = out.get(unit, (0, d))
            if ad == d:
                n += an
            else:  # over the lcm of both denominators
                h = gcd(ad, d)
                n, d = an * (d // h) + n * (ad // h), ad // h * d
            if n:
                out[unit] = n, d
            else:
                del out[unit]
    pole = GS_ZERO._like({unit: Fraction(n, d) for unit, (n, d) in pole.items()})
    if shift:
        return LaurentValue(pole, GS_ZERO, 0.0).shifted(Fraction(shift, 2)).finite
    if pole:
        raise NotConvergent(
            "renormalized limit diverges: pole coefficient %s remains" % pole.text()
        )
    if fin is None:
        raise DomainError(
            "constant term involves digamma values excluded from exact mode"
        )
    return GS_ZERO._like({unit: Fraction(n, d) for unit, (n, d) in fin.items()})


def eigencheck_2d(op: DiffOp2D, s: State2D):
    """Exact eigenvalue of s under op as an EpsScalar, or None.

    A constant eigenvalue compares and hashes equal to its GradedScalar,
    a rational one to its Fraction.  The image of H or Q comes from its
    closed form in _CLOSED, any other operator's from apply_2d; either
    way the ratio to s is then decided as for apply_2d, so the value and
    its stored terms are the same.  H is refused without a multiply when
    its lowering term leaves the keys of s (_lowers_off).
    """
    _as_instance(s, State2D, "s")
    # build_op_2d's own H and Q by identity, others by equality: hashing an operator is slow
    name = next((n for n in ("H", "Q") if _built_op_2d(n) is op or _built_op_2d(n) == op), None)
    if name is None:
        return _eigenvalue(apply_2d, op, s)
    if name == "H" and _lowers_off(s):
        return None
    return _eigenvalue(_closed_image, _CLOSED[name], s)


def states_proportional(a: State2D, b: State2D):
    """Exact proportionality a = (num/den) b, or None.

    Decided by cross-multiplication in the eps-polynomial ring, so the
    ratio may be a rational function of eps; when the quotient is itself
    polynomial the pair is reduced to (quotient, 1).  Against a b monic in
    its top key, as generate_sector stores its nodes, a = q b forces q to
    be a's coefficient there: one product per other key decides it, no division.
    """
    if not _as_instance(a, State2D, "a") or not _as_instance(b, State2D, "b"):
        raise DomainError("proportionality requires nonzero states")
    at, bt = a._terms, b._terms
    if at.keys() == bt.keys():
        top, one = max(at), EpsScalar.one()
        if bt[top] == one:
            q = at[top]
            return (q, one) if all(c == bt[k] * q for k, c in at.items() if k is not top) else None
    ratio = _ratio(a, b)
    if ratio is None:
        return None
    q = ratio[0].try_div(ratio[1])
    if q is not None:
        return (q, EpsScalar.one())
    return ratio


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def localization_2d(s: State2D) -> tuple[bool, Divergence]:
    """Divergence class of the small-disc integral of |s|^2.

    For a slope-free state with t_min the smallest lam + mu, the radial
    density carries r^(2 t_min + 1), so its integral r^(2 t_min + 2); see
    _divergence.
    """
    if not _as_instance(s, State2D, "s"):
        raise DomainError("localization of the zero state is undefined")
    if s.has_slopes():
        raise DomainError("localization applies to slope-free states")
    return _divergence(2 * min(lam + mu for (lam, _ls, mu, _ms) in s._terms) + 2)
