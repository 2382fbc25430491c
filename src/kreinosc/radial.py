"""Angular decomposition of planar states and the radial correspondence.

A slope-free planar state splits over angular charges q = -lam + mu.
Each charge block zbar^lam z^mu exp(-zbar z/2), written z = r e^{i phi},
carries the radial dependence r^(lam+mu) e^(-r^2/2); pulling out the
half-power of r that flattens the radial measure gives a line state
r^(lam+mu+1/2) w(r) on which the planar Hamiltonian acts as

    (1/2) (-D^2 + r^2 + (q^2 - 1/4) r^(-2)),

a line Hamiltonian with inverse-square coupling g = (q^2 - 1/4)/2.  At
q = +-3/2 the coupling is exactly the unit one used by the line algebra,
which is what bridge_audit exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra1d import DiffOp1D, State1D, _quotient, apply_1d, build_op_1d, solve_vacuum_1d
from .algebra2d import State2D, apply_2d, build_op_2d, compose_2d, omega
from .errors import ChargeAbsent, DomainError
from .scalars import _as_count, _as_fraction, _as_instance, _HALF


@dataclass(frozen=True)
class RadialProfile:
    """One angular block: its charge and the bare radial profile.

    ``profile`` collects r^(lam+mu) coefficients without the measure
    half-power; ``reduced`` (from radial_reduce) includes it.
    """

    charge: Fraction
    profile: State1D


def angular_decompose(s: State2D) -> dict[Fraction, RadialProfile]:
    """Split a slope-free state into charge blocks with radial profiles."""
    if _as_instance(s, State2D, "s").has_slopes():
        raise DomainError("angular decomposition applies to slope-free states")
    blocks: dict[Fraction, list] = {}
    for (lam, _ls, mu, _ms), c in s._terms.items():
        if c.degree() > 0:
            raise DomainError("angular decomposition requires eps-free coefficients")
        blocks.setdefault(-lam + mu, []).append((lam + mu, c.coeff(0)))
    out = {}
    for q, pairs in blocks.items():
        profile = State1D(pairs)
        if profile:
            out[q] = RadialProfile(q, profile)
    return out


def radial_reduce(s: State2D, q) -> State1D:
    """Radial line state of the charge-q block, measure factor included.

    Exponents are those of the planar monomials plus one half.
    """
    q = _as_fraction(q)
    blocks = angular_decompose(s)
    if q not in blocks:
        raise ChargeAbsent("state has no charge-%s component" % q)
    pairs = [(e + _HALF, c) for e, c in blocks[q].profile.terms()]
    return State1D(pairs, label="radial(q=%s)" % q)


def radial_hamiltonian(q) -> DiffOp1D:
    """(1/2)(-D^2 + r^2 + (q^2 - 1/4) r^(-2)) acting on line states."""
    q = _as_fraction(q)
    return DiffOp1D({(0, 2): -_HALF, (2, 0): _HALF, (-2, 0): (q * q - Fraction(1, 4)) / 2})


def bridge_audit(n_max: int = 4) -> dict:
    """Cross-check planar towers against line towers through the reduction.

    For each n up to n_max the raised planar state (b_pp b_pm)^n
    Omega_{-3/2,0} reduces at charge 3/2 to (1/2)^n (A_plus)^n Psi_0 of
    the alpha = 1 line family, and Omega_{3/2,0} reduces at charge -3/2
    to the alpha = -2 line vacuum r^2 w.  Lowering transports back down
    with b_mp b_mm matching (1/2) A_minus per application.  Also checks
    that the paired second-order maps are order-insensitive.
    """
    if _as_count(n_max, "n_max") < 0 or n_max > 10:
        raise DomainError("n_max must be between 0 and 10")
    checks = []

    def check(id_, ok, **detail):
        checks.append({"id": id_, "ok": ok, **detail})

    b_pp, b_pm, b_mp, b_mm = map(build_op_2d, ("b_pp", "b_pm", "b_mp", "b_mm"))
    raise2 = compose_2d(b_pp, b_pm)
    lower2 = compose_2d(b_mp, b_mm)
    a_plus = build_op_1d("A_plus")
    a_minus = build_op_1d("A_minus")
    check("raising-order-insensitive", raise2 == compose_2d(b_pm, b_pp))
    check("lowering-order-insensitive", lower2 == compose_2d(b_mm, b_mp))

    # alpha = +1 branch: Omega_{-3/2, 0} has charge 3/2 and reduces to
    # r^(-1) w, the alpha = 1 line vacuum.
    q = Fraction(3, 2)
    planar = omega(Fraction(-3, 2), 0)
    line = solve_vacuum_1d(Fraction(1))
    half_pow = Fraction(1)
    for n in range(n_max + 1):
        ratio = _quotient(radial_reduce(planar, q), line)
        got = None if ratio is None else ratio.text()
        tag = "raise-tower-alpha-plus-n%d" % n
        check(tag, ratio == half_pow, expected_ratio=str(half_pow), got_ratio=got)
        if n < n_max:
            planar = apply_2d(raise2, planar)
            line = apply_1d(a_plus, line)
            half_pow = half_pow / 2

    # lowering transport: from the top of the tower back down.  Each
    # b_mp b_mm application matches (1/2) A_minus through the reduction,
    # so the accumulated constant halves again per step: with
    # reduce(planar) = half_pow * line going in, the lowered pair obeys
    # reduce(lower2 planar) = (half_pow/2) * A_minus line.
    for k in range(1, n_max + 1):
        planar = apply_2d(lower2, planar)
        line = apply_1d(a_minus, line)
        half_pow = half_pow / 2
        got = radial_reduce(planar, q)
        check("lower-transport-alpha-plus-k%d" % k, got == line.scaled(half_pow))

    # alpha = -2 branch: Omega_{3/2, 0} has charge -3/2; at q = -3/2 the
    # radial Hamiltonian is the same line operator, and the reduction is
    # r^2 w, the alpha = -2 vacuum.
    got = radial_reduce(omega(Fraction(3, 2), 0), Fraction(-3, 2))
    check("vacuum-alpha-minus", got == solve_vacuum_1d(Fraction(-2)))
    h1 = build_op_1d("H1")
    ok = radial_hamiltonian(Fraction(3, 2)) == h1 and radial_hamiltonian(Fraction(-3, 2)) == h1
    check("radial-hamiltonian-matches-line", ok)
    return {"n_max": n_max, "checks": checks, "all_ok": all(c["ok"] for c in checks)}
