"""Independent references the unit tests compare against.

Symbolic checks go through sympy (its own differentiation and gamma),
numeric checks through scipy quadrature.  Nothing in those reuses the
package's own evaluation paths beyond reading term data out of states
and operators.  The last section keeps the planar pairing's plain
double loop as a differential reference for the faster one.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy as sp
from scipy.integrate import quad

X = sp.Symbol("x", positive=True)
EPS = sp.Symbol("eps", positive=True)
Z = sp.Symbol("z", positive=True)
ZB = sp.Symbol("zb", positive=True)


def frac_to_sp(q) -> sp.Rational:
    return sp.Rational(q.numerator, q.denominator)


def gs_to_sympy(g) -> sp.Expr:
    total = sp.Integer(0)
    for (j, k), q in g.terms():
        total += frac_to_sp(q) * sp.sqrt(2) ** j * sp.pi ** sp.Rational(k, 2)
    return total


def eps_to_sympy(e) -> sp.Expr:
    total = sp.Integer(0)
    for power, c in enumerate(e.coeffs()):
        total += gs_to_sympy(c) * EPS**power
    return total


# -- line space -------------------------------------------------------------


def state1d_to_sympy(s) -> sp.Expr:
    total = sp.Integer(0)
    for e, c in s.terms():
        total += gs_to_sympy(c) * X ** frac_to_sp(e)
    return total * sp.exp(-(X**2) / 2)


def op1d_apply_sympy(op, s) -> sp.Expr:
    """Apply a polynomial-coefficient derivative operator the slow way."""
    f = state1d_to_sympy(s)
    total = sp.Integer(0)
    for (e, dorder), c in op.terms():
        total += gs_to_sympy(c) * X ** frac_to_sp(e) * sp.diff(f, X, dorder)
    return total


_W1 = sp.Symbol("w1d")


def states1d_equal(s, expr) -> bool:
    # the squared-weight factor survives differentiation untouched, so
    # swapping it for a symbol leaves a Laurent polynomial that expand
    # alone can cancel; simplify stays as a slow-path safety net
    diff = (state1d_to_sympy(s) - expr).subs(sp.exp(-(X**2) / 2), _W1)
    return sp.expand(diff) == 0 or sp.simplify(diff) == 0


# -- plane ------------------------------------------------------------------


def state2d_to_sympy(s) -> sp.Expr:
    """Deformed exponents become symbolic eps; the renorm tag is ignored."""
    total = sp.Integer(0)
    for m, c in s.terms():
        lam = frac_to_sp(m.lam) + m.lam_slope * EPS
        mu = frac_to_sp(m.mu) + m.mu_slope * EPS
        total += eps_to_sympy(c) * ZB**lam * Z**mu
    return total * sp.exp(-ZB * Z / 2)


def op2d_apply_sympy(op, s) -> sp.Expr:
    """The doubled derivative convention: each d acts as twice d/dvar."""
    f = state2d_to_sympy(s)
    total = sp.Integer(0)
    for (pb, p, rb, r), c in op.terms():
        img = f
        for _ in range(r):
            img = 2 * sp.diff(img, Z)
        for _ in range(rb):
            img = 2 * sp.diff(img, ZB)
        total += gs_to_sympy(c) * ZB ** frac_to_sp(pb) * Z ** frac_to_sp(p) * img
    return total


_W2 = sp.Symbol("w2d")


def states2d_equal(s, expr) -> bool:
    diff = (state2d_to_sympy(s) - expr).subs(sp.exp(-ZB * Z / 2), _W2)
    return sp.expand(diff) == 0 or sp.simplify(diff) == 0


# -- quadrature pairings ----------------------------------------------------


def quad_inner1d(f, g) -> float:
    """Numeric pairing on the half line with the squared weight."""

    def integrand(x):
        fx = sum(float(c) * x ** float(e) for e, c in f.terms())
        gx = sum(float(c) * x ** float(e) for e, c in g.terms())
        return fx * gx * math.exp(-x * x)

    value, _ = quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def quad_inner2d(f, g) -> complex:
    """Numeric planar pairing in polar form, angle integrated explicitly.

    States must be slope-free.  Integration runs pair by pair so each
    radial integrand stays smooth; the angular factor is exact:
    int_0^2pi exp(i k theta) dtheta = 2 pi [k = 0], and for distinct
    rational charges k != 0 it vanishes, which we keep (as a check of
    charge superselection) by integrating cos/sin explicitly.
    """
    total = 0j
    for mf, cf in f.terms():
        for mg, cg in g.terms():
            if mf.lam_slope or mf.mu_slope or mg.lam_slope or mg.mu_slope:
                raise ValueError("quad oracle is for slope-free states")
            t = float(mf.lam + mf.mu + mg.lam + mg.mu)
            k = float((-mg.lam + mg.mu) - (-mf.lam + mf.mu))
            radial, _ = quad(
                lambda r, t=t: r ** (t + 1.0) * math.exp(-r * r),
                0.0,
                math.inf,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=400,
            )
            if k == 0.0:
                ang_re, ang_im = 2.0 * math.pi, 0.0
            else:
                ang_re = math.sin(2.0 * math.pi * k) / k
                ang_im = (1.0 - math.cos(2.0 * math.pi * k)) / k
            cfv = float(cf.eval0()) if hasattr(cf, "eval0") else float(cf)
            cgv = float(cg.eval0()) if hasattr(cg, "eval0") else float(cg)
            total += cfv * cgv * radial * complex(ang_re, ang_im)
    return total


# -- the planar pairing's plain double loop ---------------------------------


def reference_inner_2d(f, g):
    """The planar pairing as a double loop over all term pairs.

    Every charge-matched pair multiplies its two eps polynomials in full
    and adds one LaurentValue, pi * gamma times the product, in the
    order f's terms, then g's.  Unlike the references above it reuses
    the package's ring arithmetic and exact gamma: it pins the order of
    the exact sums, the float bits and the errors of a faster pairing,
    not the values themselves.
    """
    from kreinosc.errors import PoleError
    from kreinosc.scalars import (
        GS_PI,
        LaurentValue,
        _check_half_integer,
        gamma_exact,
        gamma_laurent,
    )

    matched = []
    for (lam_f, lsf, mu_f, msf), cf in f._terms.items():
        qf = (-lam_f + mu_f, -lsf + msf)
        for (lam_g, lsg, mu_g, msg), cg in g._terms.items():
            if qf != (-lam_g + mu_g, -lsg + msg):
                continue
            base = (lam_f + mu_f + lam_g + mu_g) / 2 + 1
            slope = Fraction(lsf + msf + lsg + msg, 2)
            matched.append((base, slope, cf * cg))
    for base, _, _ in matched:
        _check_half_integer(base)
    total = LaurentValue.zero()
    for base, slope, coeff in matched:
        if slope:
            val = gamma_laurent(base, slope)
        else:
            try:
                val = LaurentValue.exact(gamma_exact(base))
            except PoleError:
                raise PoleError(
                    "radial moment hits a gamma pole at %s with no eps "
                    "regulator; deform the exponents" % base
                )
        total = total + val.times_scalar(GS_PI).times_eps_poly(coeff)
    return total.shifted(f.renorm_power + g.renorm_power)


def reference_renorm_inner(f, g):
    """The renormalized limit read off reference_inner_2d."""
    from kreinosc.errors import DomainError, NotConvergent

    value = reference_inner_2d(f, g)
    if value.pole:
        raise NotConvergent(
            "renormalized limit diverges: pole coefficient %s remains"
            % value.pole.text()
        )
    if value.finite is None:
        raise DomainError(
            "constant term involves digamma values excluded from exact mode"
        )
    return value.finite
