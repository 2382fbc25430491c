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
from dataclasses import dataclass
from fractions import Fraction

from .algebra1d import (
    DIV_LOG,
    DIV_NONE,
    Divergence,
    _compose,
    _DiffOp,
    _eigenvalue,
    _ratio,
)
from .errors import DomainError, NotConvergent, PoleError
from .scalars import (
    GS_ONE,
    GS_PI,
    GS_ZERO,
    EpsScalar,
    GradedScalar,
    LaurentValue,
    _as_fraction,
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
    s = int(s)
    if s not in (0, 1):
        raise DomainError("eps slopes are restricted to 0 or 1, got %s" % s)
    return s


def _check_renorm(power) -> Fraction:
    power = _as_fraction(power)
    if power not in (0, _HALF):
        raise DomainError("renorm power must be 0 or 1/2")
    return power


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
    states with the same marker add.
    """

    __slots__ = ("renorm_power",)
    _coeff = staticmethod(EpsScalar.of)

    def __init__(self, terms=None, renorm_power=Fraction(0)):
        renorm_power = _check_renorm(renorm_power)
        super().__init__(terms)
        object.__setattr__(self, "renorm_power", renorm_power)

    @staticmethod
    def _key(mono) -> tuple:
        lam, ls, mu, ms = mono.key() if isinstance(mono, Monomial2D) else mono
        return (_as_fraction(lam), _check_slope(ls), _as_fraction(mu), _check_slope(ms))

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
    return State2D({(lam, lam_slope, mu, mu_slope): EpsScalar.one()})


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


@functools.cache
def build_op_2d(name: str) -> DiffOp2D:
    """Named generators of the planar algebra.

    H and Q are built from their differential forms (the ground truth
    used by the identity audit); the four b operators are the
    half-normalized first-order ladder pair for each rotation sense.
    """
    half = GradedScalar.rational(_HALF)
    zero = Fraction(0)
    if name == "H":
        # (1/2)(-dzbar dz + zbar z)
        return DiffOp2D(
            {
                (zero, zero, 1, 1): -half,
                (Fraction(1), Fraction(1), 0, 0): half,
            }
        )
    if name == "Q":
        # (1/2)(-zbar dzbar + z dz)
        return DiffOp2D(
            {
                (Fraction(1), zero, 1, 0): -half,
                (zero, Fraction(1), 0, 1): half,
            }
        )
    if name == "b_pp":
        # (1/2)(-dzbar + z)
        return DiffOp2D({(zero, zero, 1, 0): -half, (zero, Fraction(1), 0, 0): half})
    if name == "b_mp":
        # (1/2)(dz + zbar)
        return DiffOp2D({(zero, zero, 0, 1): half, (Fraction(1), zero, 0, 0): half})
    if name == "b_pm":
        # (1/2)(-dz + zbar)
        return DiffOp2D({(zero, zero, 0, 1): -half, (Fraction(1), zero, 0, 0): half})
    if name == "b_mm":
        # (1/2)(dzbar + z)
        return DiffOp2D({(zero, zero, 1, 0): half, (zero, Fraction(1), 0, 0): half})
    if name == "Z":
        return DiffOp2D({(zero, Fraction(1), 0, 0): GS_ONE})
    if name == "ZBAR":
        return DiffOp2D({(Fraction(1), zero, 0, 0): GS_ONE})
    if name == "DZ":
        return DiffOp2D({(zero, zero, 0, 1): GS_ONE})
    if name == "DZBAR":
        return DiffOp2D({(zero, zero, 1, 0): GS_ONE})
    raise DomainError("unknown 2d operator %r" % name)


# ---------------------------------------------------------------------------
# action, composition, commutator
# ---------------------------------------------------------------------------


def _dz_terms(terms: dict) -> dict:
    # dz: (lam, mu) -> coeff*2*(mu + mu_slope*eps) at (lam, mu-1), plus
    #     -coeff at (lam+1, mu) from the weight.
    out: dict[tuple, EpsScalar] = {}
    for (lam, ls, mu, ms), c in terms.items():
        mult = EpsScalar.affine(2 * mu, 2 * ms) if ms else 2 * mu
        if mult:
            _put(out, (lam, ls, mu - 1, ms), c * mult)
        _put(out, (lam + 1, ls, mu, ms), -c)
    return out


def _dzbar_terms(terms: dict) -> dict:
    out: dict[tuple, EpsScalar] = {}
    for (lam, ls, mu, ms), c in terms.items():
        mult = EpsScalar.affine(2 * lam, 2 * ls) if ls else 2 * lam
        if mult:
            _put(out, (lam - 1, ls, mu, ms), c * mult)
        _put(out, (lam, ls, mu + 1, ms), -c)
    return out


def apply_2d(op: DiffOp2D, s: State2D) -> State2D:
    """Apply a normal-ordered operator; the renorm marker is preserved."""
    total: dict[tuple, EpsScalar] = {}
    for (pb, p, rb, r), c in op._terms.items():
        cur = s._terms
        for _ in range(r):
            cur = _dz_terms(cur)
        for _ in range(rb):
            cur = _dzbar_terms(cur)
        for (lam, ls, mu, ms), v in cur.items():
            _put(total, (lam + pb, ls, mu + p, ms), v * c)
    return s._like(total)


def compose_2d(f: DiffOp2D, g: DiffOp2D) -> DiffOp2D:
    """Normal-ordered product f g by the reordering rule of _compose.

    The factor-two Wirtinger convention gives the rule scale 2:
    d^s x^p = sum_j C(s, j) 2^j (p)_j x^(p-j) d^(s-j), independently in
    the holomorphic and antiholomorphic variables.
    """
    return _compose(f, g, 2)


def commutator_2d(f: DiffOp2D, g: DiffOp2D) -> DiffOp2D:
    return compose_2d(f, g) - compose_2d(g, f)


# ---------------------------------------------------------------------------
# closed-form ladder action
# ---------------------------------------------------------------------------


# Each ladder generator lowers one exponent, multiplying by -/+ its value,
# and b_pp and b_pm also raise the other one with coefficient 1:
#   b_pp: -(lam) at lam-1, + mu+1      b_mm: +(lam) at lam-1
#   b_pm: -(mu)  at mu-1,  + lam+1     b_mp: +(mu)  at mu-1
# as (lowers mu rather than lam, sign of the lowering term, also raises).
# The identity audit checks this table against apply_2d on a probe grid.
_LADDER = {
    "b_pp": (False, -1, True),
    "b_pm": (True, -1, True),
    "b_mp": (True, 1, False),
    "b_mm": (False, 1, False),
}


def _ladder_row(which: str) -> tuple:
    try:
        return _LADDER[which]
    except KeyError:
        raise DomainError("unknown ladder operator %r" % which) from None


def ladder_closed_form(which: str, lam, mu) -> tuple:
    """Action of one b operator on a bare monomial, as (coeff, lam', mu') triples.

    Serves as an independent oracle for apply_2d on slope-free states.
    """
    lam = _as_fraction(lam)
    mu = _as_fraction(mu)
    lowers_mu, sign, raises = _ladder_row(which)
    if lowers_mu:
        out = ((sign * mu, lam, mu - 1),)
        return out + ((Fraction(1), lam + 1, mu),) if raises else out
    out = ((sign * lam, lam - 1, mu),)
    return out + ((Fraction(1), lam, mu + 1),) if raises else out


def ladder_image(which: str, s: State2D) -> State2D:
    """b s for the ladder generator ``which``, by the action in _LADDER.

    One multiply per output term, where apply_2d runs a derivative pass
    and adds the multiplication term separately; a vanishing lowering term
    is skipped.  The renorm marker is kept.

    The result equals apply_2d(build_op_2d(which), s), but its terms may be
    stored in another order (the derivative and weight branches are fused
    per term).  Stored order never reaches output: printed states go
    through the sorted terms(), and the float sums that are printed (sort
    keys of node energies and charges) come from single-term coefficients.
    """
    lowers_mu, sign, raises = _ladder_row(which)
    out: dict[tuple, EpsScalar] = {}
    for (lam, ls, mu, ms), v in s._terms.items():
        if lowers_mu:
            mult = EpsScalar.affine(sign * mu, sign * ms) if ms else sign * mu
            if mult:
                _put(out, (lam, ls, mu - 1, ms), v * mult)
            if raises:
                _put(out, (lam + 1, ls, mu, ms), v)
        else:
            mult = EpsScalar.affine(sign * lam, sign * ls) if ls else sign * lam
            if mult:
                _put(out, (lam - 1, ls, mu, ms), v * mult)
            if raises:
                _put(out, (lam, ls, mu + 1, ms), v)
    return s._like(out)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


# The moments pi * gamma(base + slope*eps) take few distinct arguments: a
# lab-mix pass pairs ~12k term pairs over 32 of them.  The cache is bounded
# because library callers may pass any exponents; a pole error is raised
# afresh each time, since lru_cache keeps no exceptions.
MOMENT_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=MOMENT_CACHE_SIZE)
def _moment(twice: int, slopes: int) -> LaurentValue:
    """pi * gamma(base + slope*eps) with base = 1 + twice/2 and slope = slopes/2.

    ``twice`` is the pair's integral exponent sum lam_f + mu_f + lam_g +
    mu_g.  A pole moment has a nonzero pole and no exact finite part; a
    regular one has a zero pole and an exact finite part.
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
    return val.times_scalar(GS_PI)


def _matched(f: State2D, g: State2D) -> list:
    """(twice, slopes, cf, cg) of every charge-matched term pair; see _moment.

    g's terms are indexed by charge, so each term of f meets only its own
    bucket; pairs come in the order of the double loop over f's terms,
    then g's.  Every gamma argument is domain-checked here, before any
    moment: it is a half-integer exactly when the exponent sum is an
    integer.
    """
    # charges are keyed by their integer parts: a Fraction hashes slowly
    buckets: dict[tuple, list] = {}
    for (lam, ls, mu, ms), cg in g._terms.items():
        q = mu - lam
        buckets.setdefault((q.numerator, q.denominator, ms - ls), []).append(
            (lam + mu, ls + ms, cg)
        )
    pairs = []
    for (lam, ls, mu, ms), cf in f._terms.items():
        q = mu - lam
        bucket = buckets.get((q.numerator, q.denominator, ms - ls))
        if not bucket:
            continue
        t = lam + mu
        for u, s, cg in bucket:
            twice = t + u
            if twice.denominator != 1:
                _check_half_integer(twice / 2 + 1)
            pairs.append((twice.numerator, ls + ms + s, cf, cg))
    return pairs


def _mod_eps2(cf: EpsScalar, cg: EpsScalar) -> EpsScalar:
    """cf * cg modulo eps^2.

    Only the eps^0 and eps^1 coefficients of a product reach the Laurent
    data.  They are summed in the order of EpsScalar's product loop, so
    their stored terms, and the float sums that follow them, are those of
    the full product.
    """
    out: dict[int, GradedScalar] = {}
    for i, a in cf._terms.items():
        for j, b in cg._terms.items():
            if i + j <= 1:
                _put(out, i + j, a * b)
    return cf._like(out)


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

    The pairs come from the core shared with renorm_inner: g's terms
    indexed by charge, products taken modulo eps^2, and each moment read
    from a bounded per-process cache.  Pairs are accumulated one by one in
    the order of the plain double loop, never grouped by moment: a grouped
    sum would reorder the exact terms and the float mirror.
    """
    total = LaurentValue.zero()
    for twice, slopes, cf, cg in _matched(f, g):
        total = total + _moment(twice, slopes).times_eps_poly(_mod_eps2(cf, cg))
    return total.shifted(f.renorm_power + g.renorm_power)


def renorm_inner(f: State2D, g: State2D) -> GradedScalar:
    """eps^0 coefficient of the renormalized inner product.

    This is the eps -> 0 limit of eps^(renorm_f + renorm_g) (f_eps,
    g_eps); only gamma residues contribute for deformed sector pairs.
    NotConvergent if a pole survives the shift.

    It reads the pairs from inner_2d's core but folds only the exact pole
    and finite sums, with no float mirror, in the same pair order, so the
    result equals inner_2d's, stored terms included.  A pair's eps^1
    coefficient is formed only at a pole moment, and under an eps^(1/2)
    or eps^1 shift, where only the pole total is left, no finite part at
    all.  Pairs are never grouped by moment: besides reordering the sums,
    grouping would let two pole pairs whose eps^0 coefficients cancel
    hide the digamma term that makes the limit unavailable.
    """
    power = f.renorm_power + g.renorm_power
    pole = fin = GS_ZERO
    for twice, slopes, cf, cg in _matched(f, g):
        m = _moment(twice, slopes)
        if power and m.finite is not None:
            continue  # under the shift only residues count
        a0 = cf._terms.get(0)
        b0 = cg._terms.get(0)
        c0 = None if a0 is None or b0 is None else a0 * b0  # None: cf*cg has no eps^0
        if m.finite is not None:
            if c0 is not None and fin is not None:
                fin = fin + m.finite * c0
        elif c0 is not None:
            pole = pole + m.pole * c0
            fin = None  # the residue's digamma term
        elif fin is not None and not power:
            fin = fin + m.pole * _mod_eps2(cf, cg).coeff(1)
    if power:
        return LaurentValue(pole, GS_ZERO, 0.0).shifted(power).finite
    if pole:
        raise NotConvergent(
            "renormalized limit diverges: pole coefficient %s remains" % pole.text()
        )
    if fin is None:
        raise DomainError(
            "constant term involves digamma values excluded from exact mode"
        )
    return fin


def eigencheck_2d(op: DiffOp2D, s: State2D):
    """Exact eigenvalue of s under op as an EpsScalar, or None.

    A constant eigenvalue compares and hashes equal to its GradedScalar,
    a rational one to its Fraction.
    """
    return _eigenvalue(apply_2d, op, s)


def states_proportional(a: State2D, b: State2D):
    """Exact proportionality a = (num/den) b, or None.

    Decided by cross-multiplication in the eps-polynomial ring, so the
    ratio may be a rational function of eps; when the quotient is itself
    polynomial the pair is reduced to (quotient, 1).
    """
    if not a or not b:
        raise DomainError("proportionality requires nonzero states")
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
    density carries r^(2 t_min + 1): the integral diverges as a power of
    order -(2 t_min + 2) when 2 t_min + 2 < 0 and logarithmically at the
    boundary 2 t_min + 2 = 0.
    """
    if not s:
        raise DomainError("localization of the zero state is undefined")
    if s.has_slopes():
        raise DomainError("localization applies to slope-free states")
    t_min = min(lam + mu for (lam, _ls, mu, _ms) in s._terms)
    t = 2 * t_min + 2
    if t < 0:
        return True, Divergence("power", -t)
    if t == 0:
        return True, DIV_LOG
    return False, DIV_NONE
