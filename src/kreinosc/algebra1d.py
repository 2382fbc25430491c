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

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthExceeded, DomainError, MissingParameter, PoleError
from .scalars import (
    GS_ONE,
    GS_ZERO,
    GradedScalar,
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
)

DEFAULT_DEPTH_LIMIT = 64
DEPTH_LIMIT_ENV = "KREIN_OSC_DEPTH_LIMIT"

# Work budget of one normal-ordered product: the reordering terms it
# forms, the sum over f's terms of the product over the variables of
# (derivative order + 1), times g's term count.  Outside the dense powers
# that probe this budget, the test suite's products form at most 429 terms
# and the lab-mix benchmark's 225; a commutator of two dense planar
# operators of degree 6, which the expression language's degree cap admits,
# would form 79 300.
MAX_COMPOSE_WORK = 10_000


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

    Decided by cross-multiplication against the coefficients at the lowest
    key (equal maps need none), so the ratio may lie outside the coefficient ring.
    """
    if a._terms.keys() != b._terms.keys():
        return None
    k0 = min(a._terms)
    if a._terms == b._terms:
        return a._terms[k0], b._terms[k0]
    num = a._terms[k0]
    den = b._terms[k0]
    for key, c in a._terms.items():
        if c * den != b._terms[key] * num:
            return None
    return num, den


def _quotient(a: _TermMap, b: _TermMap):
    """The q of a's coefficient ring with a = q b, for nonzero term maps, or None."""
    ratio = _ratio(a, b)
    return None if ratio is None else ratio[0].try_div(ratio[1])


def _eigenvalue(apply, op, s):
    """Exact multiplier of s under apply(op, s) in s's coefficient ring, or None."""
    if not s:
        raise DomainError("eigencheck requires a nonzero state")
    image = apply(op, s)
    return _quotient(image, s) if image else s._coeff(0)


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


class _DiffOp(_TermMap):
    """Normal-ordered operator core: key (powers..., orders...) -> GradedScalar.

    A subclass names one (coordinate, derivative) pair per variable in
    ``_vars``.  A key holds the rational coordinate powers, then the
    non-negative derivative orders, both in that variable order; terms()
    reads by derivative orders, then powers.
    """

    __slots__ = ()
    _vars: tuple = ()
    _coeff = staticmethod(_coerce_scalar)

    @classmethod
    def _key(cls, key) -> tuple:
        n = len(cls._vars)
        powers = tuple(map(_as_fraction, key[:n]))
        orders = tuple(_as_count(r, "derivative order") for r in key[n:])
        if len(powers) + len(orders) != 2 * n:
            raise DomainError("%s keys have %d entries" % (cls.__name__, 2 * n))
        if min(orders) < 0:
            raise DomainError("derivative order must be non-negative")
        return powers + orders

    @classmethod
    def identity(cls):
        n = len(cls._vars)
        return cls({(Fraction(0),) * n + (0,) * n: GS_ONE})

    def terms(self) -> tuple:
        n = len(self._vars)
        return tuple(sorted(self._terms.items(), key=lambda t: t[0][n:] + t[0][:n]))

    def _term_text(self, key, c) -> str:
        n = len(self._vars)
        bits = [_paren(c.text())]
        bits += ["%s^(%s)" % (x, p) for (x, _d), p in zip(self._vars, key) if p]
        bits += [d if r == 1 else "%s^%d" % (d, r) for (_x, d), r in zip(self._vars, key[n:]) if r]
        return "*".join(bits)


class DiffOp1D(_DiffOp):
    """Normal-ordered operator: map (power, dorder) -> GradedScalar."""

    __slots__ = ()
    _vars = (("x", "D"),)

    def coefficient(self, p, q) -> GradedScalar:
        return self._terms.get((_as_fraction(p), _as_count(q, "derivative order")), GS_ZERO)

    def __mul__(self, other):
        if isinstance(other, DiffOp1D):
            return compose_1d(self, other)
        return NotImplemented


# ---------------------------------------------------------------------------
# named operators
# ---------------------------------------------------------------------------


# The differential forms of the named line operators, as normal-ordered
# term maps (power, dorder) -> coefficient.
_FORMS_1D = {
    "H1": {(0, 2): -_HALF, (2, 0): _HALF, (-2, 0): 1},  # -(1/2) D^2 + (1/2) x^2 + x^-2
    # (1/2) D^2 -/+ x D + (1/2) x^2 - x^-2 -/+ 1/2
    "A_plus": {(0, 2): _HALF, (1, 1): -1, (2, 0): _HALF, (-2, 0): -1, (0, 0): -_HALF},
    "A_minus": {(0, 2): _HALF, (1, 1): 1, (2, 0): _HALF, (-2, 0): -1, (0, 0): _HALF},
    "X": {(1, 0): 1},
    "D": {(0, 1): 1},
}

# The first-order pair 2^(-1/2) (-/+D + x + alpha x^-1), by its sign of D.
_FIRST_ORDER = {"a_plus": -1, "a_minus": 1}

# The couplings at which the ladder family closes on H1, alpha -> (tag, c)
# with a_plus(alpha) a_minus(alpha) = H1 + c: the singular vacuum x^-1 and
# the regular vacuum x^2.  The rung energies and the audit's line rows read it.
_COUPLINGS = {1: ("plus", Fraction(1, 2)), -2: ("minus", Fraction(-5, 2))}


def _known(name, table: dict, message: str) -> str:
    """name, if it is a str key of table; else DomainError(message % name).

    The str test comes first, so an unhashable name is refused too.
    """
    if isinstance(name, str) and name in table:
        return name
    raise DomainError(message % (name,))


def build_op_1d(name: str, alpha=None) -> DiffOp1D:
    """The named generator of the half-line algebra; only a_plus and a_minus take alpha."""
    if isinstance(name, str) and name in _FIRST_ORDER:
        if alpha is None:
            raise MissingParameter("operator %s requires parameter alpha" % name)
        form = {(0, 1): _FIRST_ORDER[name], (1, 0): 1, (-1, 0): _as_fraction(alpha)}
        return DiffOp1D(form).scaled(GradedScalar.monomial(1, -1, 0))  # times 2^(-1/2)
    if alpha is not None:
        raise DomainError("operator %s takes no parameter" % (name,))
    return _built_op_1d(_known(name, _FORMS_1D, "unknown 1d operator %r"))


@functools.cache
def _built_op_1d(name: str) -> DiffOp1D:
    return DiffOp1D(_FORMS_1D[name])


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
    _as_instance(s, State1D, "s")
    for (p, q), c in _as_instance(op, DiffOp1D, "op")._terms.items():
        cur = s._terms
        for _ in range(q):
            cur = _diff_state_terms(cur)
        for e, v in cur.items():
            _put(total, e + p, v * c)
    return s._like(total)


def _compose(f: _DiffOp, g: _DiffOp, scale: int) -> _DiffOp:
    """Normal-ordered product f g of two operators of one class.

    Reorders each variable by d^s x^p = sum_j C(s, j) scale^j (p)_j
    x^(p-j) d^(s-j), with the falling factorial (p)_j, valid for rational
    p.  DepthExceeded, before any term is formed, for a product above
    MAX_COMPOSE_WORK.
    """
    n = len(f._vars)
    work = sum(math.prod(s + 1 for s in k[n:]) for k in f._terms) * len(g._terms)
    if work > MAX_COMPOSE_WORK:
        raise DepthExceeded(
            "operator product would form %d reordering terms, above the budget of %d"
            % (work, MAX_COMPOSE_WORK)
        )
    out: dict[tuple, GradedScalar] = {}
    for k1, c1 in f._terms.items():
        for k2, c2 in g._terms.items():
            c12 = c1 * c2
            # each variable's nonzero (power, order, weight) moves
            moves = [
                [
                    (p1 + p2 - j, s1 - j + s2, w)
                    for j in range(s1 + 1)
                    if (w := _falling(p2, j) * math.comb(s1, j) * scale**j)
                ]
                for p1, p2, s1, s2 in zip(k1, k2, k1[n:], k2[n:])
            ]
            for combo in itertools.product(*moves):
                powers, orders, weights = zip(*combo)
                w = math.prod(weights)
                _put(out, powers + orders, c12 if w == 1 else c12 * w)
    return f._like(out)


def compose_1d(f: DiffOp1D, g: DiffOp1D) -> DiffOp1D:
    """Normal-ordered product f g by the reordering rule of _compose.

    With D = d/dx the rule reads D^q x^p = sum_j C(q, j) (p)_j x^(p-j)
    D^(q-j).
    """
    return _compose(_as_instance(f, DiffOp1D, "f"), _as_instance(g, DiffOp1D, "g"), 1)


def commutator_1d(f: DiffOp1D, g: DiffOp1D) -> DiffOp1D:
    return compose_1d(f, g) - compose_1d(g, f)


# ---------------------------------------------------------------------------
# vacua, ladders, spectra
# ---------------------------------------------------------------------------


def solve_vacuum_1d(alpha) -> State1D:
    """Weighted power state annihilated by a_minus(alpha): x^(-alpha) w."""
    alpha = _as_fraction(alpha)
    return State1D.power(-alpha, 1, label="vacuum(alpha=%s)" % alpha)


def ladder_states_1d(alpha, count: int) -> list:
    """(state, energy) of the raising-ladder rungs n = 0 .. count-1.

    Each rung is raised from the one before.  Only an alpha of _COUPLINGS
    closes the ladder on H1; the energy is 2n - c.  alpha, then the depth
    limit, are checked before any rung is built (the error names index
    limit + 1); count <= 0 gives [] for any alpha.
    """
    if count <= 0:
        return []
    alpha = _as_fraction(alpha)
    if alpha not in _COUPLINGS:
        couplings = " or ".join(map(str, sorted(_COUPLINGS)))
        raise DomainError("ladder family requires alpha %s, got %s" % (couplings, alpha))
    limit = depth_limit()
    if count - 1 > limit:
        raise DepthExceeded("ladder index %d exceeds depth limit %d" % (limit + 1, limit))
    raise_op = build_op_1d("A_plus")
    state = solve_vacuum_1d(alpha)
    rungs = []
    for n in range(count):
        if n:
            state = apply_1d(raise_op, state)
        energy = 2 * n - _COUPLINGS[alpha][1]
        rungs.append((state.with_label("ladder(alpha=%s,n=%d)" % (alpha, n)), energy))
    return rungs


def ladder_state_1d(alpha, n: int) -> tuple[State1D, Fraction]:
    """The n-th rung of ladder_states_1d; n is capped by the depth limit."""
    if _as_count(n, "n") < 0:
        raise DomainError("ladder index must be non-negative")
    return ladder_states_1d(alpha, n + 1)[-1]


def eigencheck_1d(op: DiffOp1D, s: State1D):
    """Exact eigenvalue of s under op as a GradedScalar, or None.

    A rational eigenvalue compares and hashes equal to its Fraction.
    """
    return _eigenvalue(apply_1d, op, _as_instance(s, State1D, "s"))


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
    f, g = _as_instance(f, State1D, "f"), _as_instance(g, State1D, "g")
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


def _divergence(t: Fraction) -> tuple[bool, Divergence]:
    """(localized, class) of a small-distance integral int_eps that scales like eps^t.

    It diverges as a power of order -t when t < 0 and logarithmically at
    t = 0; any divergence marks the state as localized (the density ratio
    concentrates at the origin).
    """
    if t < 0:
        return True, Divergence("power", -t)
    return t == 0, Divergence("log" if t == 0 else "none")


def localization_1d(s: State1D) -> tuple[bool, Divergence]:
    """Divergence class of int_eps |s|^2 near the origin.

    With e_min the smallest exponent, the density behaves like
    x^(2 e_min), so its integral like x^(2 e_min + 1); see _divergence.
    """
    if not _as_instance(s, State1D, "s"):
        raise DomainError("localization of the zero state is undefined")
    return _divergence(2 * s.min_exponent() + 1)
