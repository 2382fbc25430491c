"""JSON codecs for scalars, states, operators, and analysis reports.

All encoders emit deterministic structures: term lists come out sorted
and rationals are strings "p/q" (plain "n" for integers) so no value is
ever approximated by a float, except the explicitly numeric fields.
``dumps`` prints every indented document the lab emits.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .algebra1d import State1D
from .algebra2d import Monomial2D, State2D
from .errors import DomainError
from .scalars import (
    EXACT_UNAVAILABLE,
    EpsScalar,
    GradedScalar,
    LaurentValue,
    _frac_text,
    _put,
    _rational_text,
)

# Highest eps power a loaded document may carry (DomainError above).  The
# lab writes degrees up to a sector's depth, at most 16; an eps
# polynomial's sort key is dense in its degree, so an unbounded power
# would stall sorting and export.
MAX_EPS_POWER = 1024

# Largest |j| and |k| of a loaded term q * 2^(j/2) * pi^(k/2) (DomainError
# above).  The lab writes j in {0, 1} and folds 2^(j//2) into q, a j/2-bit
# factor; a term's float mirror overflows from |k| ~ 1240 on.
MAX_GRADE = 1024


def frac_text(f: Fraction) -> str:
    return _frac_text(f)


def frac_from_text(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise DomainError("expected a rational string, got %r" % (s,))
    try:
        return _rational_text(s)
    except (ValueError, ZeroDivisionError):
        raise DomainError("malformed rational %r" % (s,))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def graded_to_json(v: GradedScalar) -> list:
    return [{"j": j, "k": k, "q": frac_text(q)} for (j, k), q in v.terms()]


def graded_from_json(data) -> GradedScalar:
    if not isinstance(data, list):
        raise DomainError("graded scalar JSON must be a list of terms")
    out = GradedScalar.zero()
    for item in data:
        if not isinstance(item, dict) or set(item) != {"j", "k", "q"}:
            raise DomainError("graded scalar term must have keys j, k, q")
        j, k = item["j"], item["k"]
        if type(j) is not int or type(k) is not int:
            raise DomainError("graded scalar grades j, k must be integers")
        if abs(j) > MAX_GRADE or abs(k) > MAX_GRADE:
            raise DomainError("graded scalar grade (%d, %d) exceeds the bound %d" % (j, k, MAX_GRADE))
        out = out + GradedScalar.monomial(frac_from_text(item["q"]), j, k)
    return out


def eps_to_json(v: EpsScalar) -> list:
    return [{"power": p, "coeff": graded_to_json(c)} for p, c in v.terms()]


def eps_from_json(data) -> EpsScalar:
    if not isinstance(data, list):
        raise DomainError("eps polynomial JSON must be a list of terms")
    coeffs: dict[int, GradedScalar] = {}
    for item in data:
        if not isinstance(item, dict) or set(item) != {"power", "coeff"}:
            raise DomainError("eps polynomial term must have keys power, coeff")
        p = item["power"]
        if not isinstance(p, int):
            raise DomainError("eps power must be an integer")
        if p < 0:
            raise DomainError("eps power must be non-negative")
        if p > MAX_EPS_POWER:
            raise DomainError("eps power %d exceeds the bound %d" % (p, MAX_EPS_POWER))
        _put(coeffs, p, graded_from_json(item["coeff"]))
    return EpsScalar.zero()._like(coeffs)


def laurent_to_json(v: LaurentValue) -> dict:
    if not math.isfinite(v.finite_num):
        raise DomainError("finite_numeric, the float mirror, is out of the float range")
    return {
        "pole": graded_to_json(v.pole),
        "finite": EXACT_UNAVAILABLE if v.finite is None else graded_to_json(v.finite),
        "finite_numeric": v.finite_num,
    }


# ---------------------------------------------------------------------------
# line states and operators
# ---------------------------------------------------------------------------


def state1d_to_json(s) -> dict:
    out = {
        "space": "1d",
        "terms": [
            {"exp": frac_text(e), "coeff": graded_to_json(c)} for e, c in s.terms()
        ],
    }
    if s.label:
        out["label"] = s.label
    return out


def state1d_from_json(data):
    if not isinstance(data, dict) or data.get("space") != "1d":
        raise DomainError('line state JSON must carry "space": "1d"')
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise DomainError("line state JSON needs a terms list")
    pairs = []
    for item in terms:
        if not isinstance(item, dict) or not {"exp", "coeff"} <= set(item):
            raise DomainError("line state term must have keys exp, coeff")
        pairs.append((frac_from_text(item["exp"]), graded_from_json(item["coeff"])))
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise DomainError("label must be a string")
    return State1D(pairs, label=label)


def op1d_to_json(op) -> dict:
    return {
        "space": "1d",
        "terms": [
            {"exp": frac_text(p), "dorder": q, "coeff": graded_to_json(c)}
            for (p, q), c in op.terms()
        ],
    }


# ---------------------------------------------------------------------------
# planar states and operators
# ---------------------------------------------------------------------------


def state2d_to_json(s) -> dict:
    return {
        "space": "2d",
        "renorm": frac_text(s.renorm_power),
        "terms": [
            {
                "lam": frac_text(m.lam),
                "lam_slope": m.lam_slope,
                "mu": frac_text(m.mu),
                "mu_slope": m.mu_slope,
                "coeff": eps_to_json(c),
            }
            for m, c in s.terms()
        ],
    }


def state2d_from_json(data):
    if not isinstance(data, dict) or data.get("space") != "2d":
        raise DomainError('planar state JSON must carry "space": "2d"')
    renorm = frac_from_text(data.get("renorm", "0"))
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise DomainError("planar state JSON needs a terms list")
    pairs = []
    for item in terms:
        if not isinstance(item, dict) or not {"lam", "lam_slope", "mu", "mu_slope", "coeff"} <= set(
            item
        ):
            raise DomainError(
                "planar state term must have keys lam, lam_slope, mu, mu_slope, coeff"
            )
        if not isinstance(item["lam_slope"], int) or not isinstance(item["mu_slope"], int):
            raise DomainError("eps slopes must be integers")
        mono = Monomial2D(
            frac_from_text(item["lam"]),
            item["lam_slope"],
            frac_from_text(item["mu"]),
            item["mu_slope"],
        )
        pairs.append((mono, eps_from_json(item["coeff"])))
    return State2D(pairs, renorm_power=renorm)


def op2d_to_json(op) -> dict:
    return {
        "space": "2d",
        "terms": [
            {
                "zbar": frac_text(pb),
                "z": frac_text(p),
                "dzbar": rb,
                "dz": r,
                "coeff": graded_to_json(c),
            }
            for (pb, p, rb, r), c in op.terms()
        ],
    }


def state_from_json(data):
    """Dispatch on the "space" tag."""
    if isinstance(data, dict) and data.get("space") == "1d":
        return state1d_from_json(data)
    if isinstance(data, dict) and data.get("space") == "2d":
        return state2d_from_json(data)
    raise DomainError('state JSON must carry "space": "1d" or "2d"')


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def verdict_to_json(v) -> dict:
    return {
        "identity_id": v.identity_id,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "status": v.status,
        "residual": v.residual,
        "corrected_form": v.corrected_form,
    }


def audit_to_json(verdicts) -> dict:
    return {
        "identities": [verdict_to_json(v) for v in verdicts],
        "passed": sum(1 for v in verdicts if v.holds),
        "failed": sum(1 for v in verdicts if not v.holds),
        "failed_ids": [v.identity_id for v in verdicts if not v.holds],
    }


def gram_to_json(g) -> dict:
    return {
        "charge": eps_to_json(g.charge),
        "charge_text": g.charge.text(),
        "nodes": list(g.node_indices),
        "entries": [[c.text() for c in row] for row in g.entries],
        "entries_exact": [[graded_to_json(c) for c in row] for row in g.entries],
        "signature": {
            "plus": g.signature[0],
            "minus": g.signature[1],
            "zero": g.signature[2],
        },
        "kernel": [[graded_to_json(c) for c in vec] for vec in g.kernel],
        "renormalized": g.renormalized,
    }


def quotient_to_json(q) -> dict:
    return {
        "dim_total": q.dim_total,
        "dim_null": q.dim_null,
        "dim_quotient": q.dim_total - q.dim_null,
        "blocks": [gram_to_json(b) for b in q.blocks],
    }


def dark_to_json(d) -> dict:
    return {
        "dark": d.is_dark,
        "max_degree": d.max_degree,
        "nodes": {"a": d.nodes_a, "b": d.nodes_b},
        "monomials": d.monomials,
        "pairs_checked": d.pairs_checked,
        "entries": [
            {
                "monomial": e.monomial,
                "node_a": e.node_a,
                "node_b": e.node_b,
                "value": None if e.value is None else e.value.text(),
                "value_exact": None if e.value is None else graded_to_json(e.value),
                "note": e.note,
            }
            for e in d.entries
        ],
    }


# ---------------------------------------------------------------------------
# the indented emitter
# ---------------------------------------------------------------------------


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, but faster.

    CPython's C encoder runs only when indent is None, so the indented
    form goes through the pure-Python one; this emitter builds each
    container as one string from its members' strings instead.  Floats
    and unsupported values are handed to json.dumps itself, so they print
    (or raise TypeError) the same way.  Keys must be str: json.dumps
    would coerce int, float, bool and None keys, this raises TypeError.
    """
    return _encode(obj, "\n")


def _encode(o, ind: str) -> str:
    """o at the indentation ``ind``: a newline and two spaces per level."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = ind + "  "
        parts = [_string(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        # the brackets go on the end parts, so the join is the only copy
        # of the container's text (a third less peak memory on an export)
        parts[0] = "{" + inner + parts[0]
        parts[-1] += ind + "}"
        return ("," + inner).join(parts)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = ind + "  "
        parts = [_encode(v, inner) for v in o]
        parts[0] = "[" + inner + parts[0]
        parts[-1] += ind + "]"
        return ("," + inner).join(parts)
    return json.dumps(o)
