"""Half-line oscillator algebra on Gaussian-weighted power states.

States are finite sums  c * x^e * exp(-x^2/2)  on (0, inf) with exact
GradedScalar coefficients and rational exponents; the Gaussian weight is
implicit.  Operators are normal-ordered sums  c * x^p * D^q  with D =
d/dx acting on the weighted representation:

    D[x^e w] = (e x^(e-1) - x^(e+1)) w,      w = exp(-x^2/2).

Inner products are regularized moment integrals on the half line,

    (f, g) = sum c_f c_g * (1/2) gamma((e_f + e_g + 1)/2),

which extends the convergent integral int_0^inf x^m exp(-x^2) dx by
analytic continuation of gamma to negative half-integer arguments.  A
gamma pole in this one-dimensional setting raises PoleError; the
regulated two-dimensional module handles poles through Laurent data.

Everything is immutable and all functions are pure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthExceeded, DomainError, MissingParameter, PoleError
from .scalars import (
    GS_ONE,
    GS_ZERO,
    GradedScalar,
    _as_fraction,
    _check_half_integer,
    _coerce_scalar,
    _HALF,
    _paren,
    _put,
    _TermMap,
    gamma_exact,
)

DEFAULT_DEPTH_LIMIT = 64
DEPTH_LIMIT_ENV = "KREIN_OSC_DEPTH_LIMIT"


def depth_limit() -> int:
    """Ladder depth cap; the environment variable overrides the default."""
    raw = os.environ.get(DEPTH_LIMIT_ENV)
    if raw is None:
        return DEFAULT_DEPTH_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise DomainError("%s must be an integer, got %r" % (DEPTH_LIMIT_ENV, raw))
    if value < 0:
        raise DomainError("%s must be non-negative" % DEPTH_LIMIT_ENV)
    return value


def _ratio(a: _TermMap, b: _TermMap):
    """(num, den) with a = (num/den) b for nonzero term maps, or None.

    Decided by cross-multiplication against the coefficients at the
    lowest key, so the ratio may lie outside the coefficient ring.
    """
    if a._terms.keys() != b._terms.keys():
        return None
    k0 = min(a._terms)
    num = a._terms[k0]
    den = b._terms[k0]
    for key, c in a._terms.items():
        if c * den != b._terms[key] * num:
            return None
    return num, den


def _eigenvalue(apply, op, s):
    """Exact multiplier of s under apply(op, s) in s's coefficient ring, or None."""
    if not s:
        raise DomainError("eigencheck requires a nonzero state")
    image = apply(op, s)
    if not image:
        return s._coeff(0)
    ratio = _ratio(image, s)
    return None if ratio is None else ratio[0].try_div(ratio[1])


def _falling(p: Fraction, j: int) -> Fraction:
    """The falling factorial (p)_j = p (p-1) ... (p-j+1); the int 1 when j = 0."""
    out = 1
    for i in range(j):
        out *= p - i
    return out


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


class State1D(_TermMap):
    """Finite sum of weighted powers; exponent -> GradedScalar coefficient.

    ``label`` names the state for display and takes no part in ==.
    """

    __slots__ = ("label",)
    _key = staticmethod(_as_fraction)
    _coeff = staticmethod(_coerce_scalar)

    def __init__(self, terms=None, label=None):
        super().__init__(terms)
        object.__setattr__(self, "label", label)

    def _like(self, terms: dict, label=None) -> "State1D":
        out = super()._like(terms)
        object.__setattr__(out, "label", label)
        return out

    @classmethod
    def power(cls, e, c=1, label=None) -> "State1D":
        return cls([(e, c)], label=label)

    def terms(self) -> tuple:
        return tuple(sorted(self._terms.items()))

    def with_label(self, label) -> "State1D":
        return self._like(self._terms, label)

    def min_exponent(self) -> Fraction:
        if not self._terms:
            raise DomainError("zero state has no exponents")
        return min(self._terms)

    def _term_text(self, e, c) -> str:
        ct = _paren(c.text())
        return "%s*x^(%s)" % (ct, e) if e else ct


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class DiffOp1D(_TermMap):
    """Normal-ordered operator: map (power, dorder) -> GradedScalar."""

    __slots__ = ()
    _coeff = staticmethod(_coerce_scalar)

    @staticmethod
    def _key(key) -> tuple:
        p, q = key
        p = _as_fraction(p)
        q = int(q)
        if q < 0:
            raise DomainError("derivative order must be non-negative")
        return (p, q)

    @classmethod
    def identity(cls) -> "DiffOp1D":
        return cls({(Fraction(0), 0): GS_ONE})

    def terms(self) -> tuple:
        return tuple(sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0])))

    def coefficient(self, p, q) -> GradedScalar:
        return self._terms.get((_as_fraction(p), int(q)), GS_ZERO)

    def __mul__(self, other):
        if isinstance(other, DiffOp1D):
            return compose_1d(self, other)
        return NotImplemented

    def _term_text(self, key, c) -> str:
        p, q = key
        bits = [_paren(c.text())]
        if p:
            bits.append("x^(%s)" % p)
        if q:
            bits.append("D" if q == 1 else "D^%d" % q)
        return "*".join(bits)


# ---------------------------------------------------------------------------
# named operators
# ---------------------------------------------------------------------------


def build_op_1d(name: str, alpha=None) -> DiffOp1D:
    """Named generators of the half-line algebra.

    H1 is the oscillator with an inverse-square term, a_plus/a_minus a
    one-parameter first-order factorization pair (parameter alpha
    required), A_plus/A_minus the second-order ladder pair, X and D the
    coordinate and derivative.
    """
    if name in ("a_plus", "a_minus"):
        if alpha is None:
            raise MissingParameter("operator %s requires parameter alpha" % name)
        alpha = _as_fraction(alpha)
    elif alpha is not None:
        raise DomainError("operator %s takes no parameter" % name)
    inv_sqrt2 = GradedScalar.monomial(1, -1, 0)  # 2^(-1/2)
    if name == "H1":
        return DiffOp1D(
            {
                (Fraction(0), 2): GradedScalar.rational(Fraction(-1, 2)),
                (Fraction(2), 0): GradedScalar.rational(_HALF),
                (Fraction(-2), 0): GS_ONE,
            }
        )
    if name == "a_plus":
        return DiffOp1D(
            {
                (Fraction(0), 1): -inv_sqrt2,
                (Fraction(1), 0): inv_sqrt2,
                (Fraction(-1), 0): inv_sqrt2 * alpha,
            }
        )
    if name == "a_minus":
        return DiffOp1D(
            {
                (Fraction(0), 1): inv_sqrt2,
                (Fraction(1), 0): inv_sqrt2,
                (Fraction(-1), 0): inv_sqrt2 * alpha,
            }
        )
    if name == "A_plus":
        # (1/2) D^2 - x D + (1/2) x^2 - x^-2 - 1/2
        return DiffOp1D(
            {
                (Fraction(0), 2): GradedScalar.rational(_HALF),
                (Fraction(1), 1): GradedScalar.rational(-1),
                (Fraction(2), 0): GradedScalar.rational(_HALF),
                (Fraction(-2), 0): GradedScalar.rational(-1),
                (Fraction(0), 0): GradedScalar.rational(-_HALF),
            }
        )
    if name == "A_minus":
        # (1/2) D^2 + x D + (1/2) x^2 - x^-2 + 1/2
        return DiffOp1D(
            {
                (Fraction(0), 2): GradedScalar.rational(_HALF),
                (Fraction(1), 1): GS_ONE,
                (Fraction(2), 0): GradedScalar.rational(_HALF),
                (Fraction(-2), 0): GradedScalar.rational(-1),
                (Fraction(0), 0): GradedScalar.rational(_HALF),
            }
        )
    if name == "X":
        return DiffOp1D({(Fraction(1), 0): GS_ONE})
    if name == "D":
        return DiffOp1D({(Fraction(0), 1): GS_ONE})
    raise DomainError("unknown 1d operator %r" % name)


# ---------------------------------------------------------------------------
# action, composition, commutator
# ---------------------------------------------------------------------------


def _diff_state_terms(terms: dict) -> dict:
    # D[x^e w] = e x^(e-1) w - x^(e+1) w
    out: dict[Fraction, GradedScalar] = {}
    for e, c in terms.items():
        if e:
            _put(out, e - 1, c * e)
        _put(out, e + 1, -c)
    return out


def apply_1d(op: DiffOp1D, s: State1D) -> State1D:
    """Apply a normal-ordered operator to a weighted state."""
    total: dict[Fraction, GradedScalar] = {}
    for (p, q), c in op._terms.items():
        cur = s._terms
        for _ in range(q):
            cur = _diff_state_terms(cur)
        for e, v in cur.items():
            _put(total, e + p, v * c)
    return s._like(total)


def compose_1d(f: DiffOp1D, g: DiffOp1D) -> DiffOp1D:
    """Normal-ordered product f g.

    Uses D^q x^p = sum_j C(q, j) (p)_j x^(p-j) D^(q-j) with the falling
    factorial (p)_j, valid for rational p.
    """
    out: dict[tuple[Fraction, int], GradedScalar] = {}
    for (p1, q1), c1 in f._terms.items():
        for (p2, q2), c2 in g._terms.items():
            c12 = c1 * c2
            for j in range(q1 + 1):
                w = _falling(p2, j) * math.comb(q1, j)
                if not w:
                    continue
                _put(out, (p1 + p2 - j, q1 - j + q2), c12 if w == 1 else c12 * w)
    return f._like(out)


def commutator_1d(f: DiffOp1D, g: DiffOp1D) -> DiffOp1D:
    return compose_1d(f, g) - compose_1d(g, f)


# ---------------------------------------------------------------------------
# vacua, ladders, spectra
# ---------------------------------------------------------------------------


def solve_vacuum_1d(alpha) -> State1D:
    """Weighted power state annihilated by a_minus(alpha): x^(-alpha) w."""
    alpha = _as_fraction(alpha)
    vac = State1D.power(-alpha, 1, label="vacuum(alpha=%s)" % alpha)
    check = apply_1d(build_op_1d("a_minus", alpha), vac)
    if check:
        raise DomainError("vacuum candidate not annihilated for alpha=%s" % alpha)
    return vac


def ladder_states_1d(alpha, count: int) -> list:
    """(state, energy) of the raising-ladder rungs n = 0 .. count-1.

    Each rung is raised from the one before.  Only alpha in {-2, 1}
    closes the ladder on H1; the energy is 1/2 - alpha + 2n.  alpha, then
    the depth limit, are checked before any rung is built (the error
    names index limit + 1); count <= 0 gives [] for any alpha.
    """
    if count <= 0:
        return []
    alpha = _as_fraction(alpha)
    if alpha not in (Fraction(-2), Fraction(1)):
        raise DomainError("ladder family requires alpha -2 or 1, got %s" % alpha)
    limit = depth_limit()
    if count - 1 > limit:
        raise DepthExceeded("ladder index %d exceeds depth limit %d" % (limit + 1, limit))
    raise_op = build_op_1d("A_plus")
    state = solve_vacuum_1d(alpha)
    rungs = []
    for n in range(count):
        if n:
            state = apply_1d(raise_op, state)
        energy = Fraction(1, 2) - alpha + 2 * n
        rungs.append((state.with_label("ladder(alpha=%s,n=%d)" % (alpha, n)), energy))
    return rungs


def ladder_state_1d(alpha, n: int) -> tuple[State1D, Fraction]:
    """The n-th rung of ladder_states_1d; n is capped by the depth limit."""
    n = int(n)
    if n < 0:
        raise DomainError("ladder index must be non-negative")
    return ladder_states_1d(alpha, n + 1)[-1]


def eigencheck_1d(op: DiffOp1D, s: State1D):
    """Exact eigenvalue of s under op as a GradedScalar, or None.

    A rational eigenvalue compares and hashes equal to its Fraction.
    """
    return _eigenvalue(apply_1d, op, s)


# ---------------------------------------------------------------------------
# inner product and localization
# ---------------------------------------------------------------------------


def inner_1d(f: State1D, g: State1D) -> GradedScalar:
    """Regularized half-line inner product.

    Each exponent pair contributes c_f c_g (1/2) gamma((e_f+e_g+1)/2);
    gamma is continued to negative half-integers, and a genuine gamma
    pole raises PoleError.  The whole pairing is domain-scanned before
    any gamma is evaluated, so a non-half-integer argument raises
    DomainError ahead of any pole report; either failure is symmetric
    under swapping f and g.
    """
    moments = [
        (ef + eg, cf * cg)
        for ef, cf in f._terms.items()
        for eg, cg in g._terms.items()
    ]
    for e, _ in moments:
        _check_half_integer((e + 1) / 2)
    acc = GS_ZERO
    for e, c in moments:
        arg = (e + 1) / 2
        try:
            val = gamma_exact(arg)
        except PoleError:
            raise PoleError(
                "moment integral x^(%s) hits a gamma pole at %s" % (e, arg)
            )
        acc = acc + c * val * Fraction(1, 2)
    return acc


@dataclass(frozen=True)
class Divergence:
    """Small-distance behaviour of a squared-state density integral."""

    kind: str  # "none" | "log" | "power"
    order: Fraction | None = None


DIV_NONE = Divergence("none")
DIV_LOG = Divergence("log")


def localization_1d(s: State1D) -> tuple[bool, Divergence]:
    """Divergence class of int_eps |s|^2 near the origin.

    With e_min the smallest exponent, the density behaves like
    x^(2 e_min): the integral diverges as a power of order -(2 e_min + 1)
    when 2 e_min < -1, logarithmically at the boundary 2 e_min = -1, and
    converges otherwise.  Any divergence marks the state as localized
    (the density ratio concentrates at the origin).
    """
    if not s:
        raise DomainError("localization of the zero state is undefined")
    e_min = s.min_exponent()
    t = 2 * e_min
    if t < -1:
        return True, Divergence("power", -(t + 1))
    if t == -1:
        return True, DIV_LOG
    return False, DIV_NONE
