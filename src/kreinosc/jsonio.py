"""JSON codecs for scalars, states, operators, and analysis reports.

All encoders emit deterministic structures: term lists come out sorted
and rationals are strings "p/q" (plain "n" for integers) so no value is
ever approximated by a float, except the explicitly numeric fields.
``dumps`` prints every indented document the lab emits but the dark
report and the json sector export, which ``dark_dumps`` and
``lattice_dumps`` write from fixed templates through ``_document``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .algebra1d import State1D
from .algebra2d import State2D
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


_parsed = functools.lru_cache(maxsize=1024)(_rational_text)  # raises, so caches no error


def frac_from_text(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise DomainError("expected a rational string, got %r" % (s,))
    try:
        return _parsed(s)
    except (ValueError, ZeroDivisionError):
        raise DomainError("malformed rational %r" % (s,))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def _term_items(items, what: str, keys: str, exact: bool = False):
    """Each term of items, checked to be a dict with at least (or exactly) the keys named."""
    need = set(keys.split(", "))
    for item in items:
        if not isinstance(item, dict) or not (set(item) == need if exact else need <= set(item)):
            raise DomainError("%s term must have keys %s" % (what, keys))
        yield item


def graded_to_json(v: GradedScalar) -> list:
    return [{"j": j, "k": k, "q": frac_text(q)} for (j, k), q in v.terms()]


def graded_from_json(data) -> GradedScalar:
    if not isinstance(data, list):
        raise DomainError("graded scalar JSON must be a list of terms")
    out: dict = {}
    for item in _term_items(data, "graded scalar", "j, k, q", exact=True):
        j, k = item["j"], item["k"]
        if type(j) is not int or type(k) is not int:
            raise DomainError("graded scalar grades j, k must be integers")
        if abs(j) > MAX_GRADE or abs(k) > MAX_GRADE:
            raise DomainError(
                "graded scalar grade (%d, %d) exceeds the bound %d" % (j, k, MAX_GRADE)
            )
        _put(out, *GradedScalar._term((j, k), frac_from_text(item["q"])))
    return GradedScalar.zero()._like(out)


def eps_to_json(v: EpsScalar) -> list:
    return [{"power": p, "coeff": graded_to_json(c)} for p, c in v.terms()]


def eps_from_json(data) -> EpsScalar:
    if not isinstance(data, list):
        raise DomainError("eps polynomial JSON must be a list of terms")
    coeffs: dict[int, GradedScalar] = {}
    for item in _term_items(data, "eps polynomial", "power, coeff", exact=True):
        p = item["power"]
        if type(p) is not int:
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
    for item in _term_items(terms, "line state", "exp, coeff"):
        pairs.append((frac_from_text(item["exp"]), graded_from_json(item["coeff"])))
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise DomainError("label must be a string")
    return State1D(pairs, label=label)


def _op_to_json(op, space: str, names: tuple) -> dict:
    """An operator of either space: each term's coordinate powers as rational
    text and its derivative orders as ints, under the space's field names."""
    n = len(names) // 2
    terms = []
    for key, c in op.terms():
        term = {name: frac_text(p) for name, p in zip(names[:n], key)}
        term.update(zip(names[n:], key[n:]))
        term["coeff"] = graded_to_json(c)
        terms.append(term)
    return {"space": space, "terms": terms}


def op1d_to_json(op) -> dict:
    return _op_to_json(op, "1d", ("exp", "dorder"))


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
    for item in _term_items(terms, "planar state", "lam, lam_slope, mu, mu_slope, coeff"):
        if type(item["lam_slope"]) is not int or type(item["mu_slope"]) is not int:
            raise DomainError("eps slopes must be integers")
        lam, mu = frac_from_text(item["lam"]), frac_from_text(item["mu"])
        key = (lam, item["lam_slope"], mu, item["mu_slope"])
        pairs.append((key, eps_from_json(item["coeff"])))
    return State2D(pairs, renorm_power=renorm)


def op2d_to_json(op) -> dict:
    return _op_to_json(op, "2d", ("zbar", "z", "dzbar", "dz"))


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


def audit_to_json(verdicts) -> dict:
    return {
        "identities": [dataclasses.asdict(v) for v in verdicts],
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
    return json.loads(dark_dumps(d))


# The one definition of a dark report's entry, at its fixed indent, keys sorted.
_DARK_ENTRY = (
    '\n    {\n      "monomial": %s,\n      "node_a": %d,\n      "node_b": %d,\n      "note": %s,%s'
)
_DARK_VALUE = '\n      "value": %s,\n      "value_exact": %s\n    }'


def _list(items: list, ind: str) -> str:
    """The JSON list of the written items, closed at the indentation ind."""
    return "[" + ",".join(items) + ind + "]" if items else "[]"


@functools.lru_cache(maxsize=None)
def _term_template(ind: str) -> str:
    """A graded term {"j", "k", "q"} opening at the indentation ind (newline and spaces)."""
    return '%s{%s  "j": %%d,%s  "k": %%d,%s  "q": "%%s"%s}' % ((ind,) * 5)


def _graded_json(v, ind: str) -> str:
    """graded_to_json(v) as dumps writes it after a key at the indentation ind."""
    term = _term_template(ind + "  ")
    return _list([term % (j, k, frac_text(q)) for (j, k), q in v.terms()], ind)


def _document(head: dict, lists: dict, end: str) -> str:
    """dumps of head and of the lists of written items, keys sorted, closed by end;
    a list's brackets go on its end items, so the join is the only copy of the text."""
    parts = []
    for key in sorted({**head, **lists}):
        text = "\n  " + _string(key) + ": "
        items = lists.get(key)
        if items is None:
            parts.append(text + _encode(head[key], "\n  "))
        elif items:
            parts += items
            parts[-len(items)] = text + "[" + items[0]
            parts[-1] += "\n  ]"
        else:
            parts.append(text + "[]")
    parts[0] = "{" + parts[0]
    parts[-1] += end
    return ",".join(parts)


def dark_dumps(d) -> str:
    """dumps(dark_to_json(d)) with no dict per entry, rendering each value object
    once: the scan reuses one value for every word of an operator class."""
    shown = {id(None): _DARK_VALUE % ("null", "null")}  # id(value) -> the entry's tail
    parts = []
    for e in d.entries:
        tail = shown.get(id(e.value))
        if tail is None:
            tail = shown[id(e.value)] = _DARK_VALUE % (_string(e.value.text()),
                                                       _graded_json(e.value, "\n      "))
        parts.append(_DARK_ENTRY % (_string(e.monomial), e.node_a, e.node_b, _string(e.note), tail))
    return _document({"dark": d.is_dark, "max_degree": d.max_degree, "monomials": d.monomials,
                      "nodes": {"a": d.nodes_a, "b": d.nodes_b},
                      "pairs_checked": d.pairs_checked}, {"entries": parts}, "\n}")


# The one definition of the lattice document's items, each at its fixed indent.
_EDGE = ('\n    {\n      "den": %s,\n      "dst": %d,\n      "generator": %s,\n      "num": %s,'
         '\n      "src": %d\n    }')
_NODE = ('\n    {\n      "charge": %s,\n      "depth": %d,\n      "energy": %s,\n      "index": %d,'
         '\n      "state": {\n        "renorm": "%s",\n        "space": "2d",\n        "terms": %s'
         '\n      }\n    }')
_STATE_TERM = ('\n          {\n            "coeff": %s,\n            "lam": "%s",'
               '\n            "lam_slope": %d,\n            "mu": "%s",\n            "mu_slope": %d'
               '\n          }')


def _eps_json(v, ind: str) -> str:
    """eps_to_json(v) as dumps writes it after a key at the indentation ind."""
    item, key = ind + "  ", ind + "    "
    term = item + "{" + key + '"coeff": %s,' + key + '"power": %d' + item + "}"
    return _list([term % (_graded_json(c, key), p) for p, c in v.terms()], ind)


def lattice_dumps(lattice, nodes, edges) -> str:
    """The lattice's json export, its nodes and edges in the given order: dumps of
    its document and a newline, with no dict per node, term or coefficient.  Each
    coefficient object is rendered once per indent it is written at."""
    memo = {(id(None), "\n      "): "null"}  # (id(v), indent) -> v written at that indent

    def shown(v, ind: str = "\n      ") -> str:  # by default a node's or an edge's field
        text = memo.get((id(v), ind))
        if text is None:
            text = memo[id(v), ind] = _eps_json(v, ind)
        return text

    def state(s) -> str:
        return _list([_STATE_TERM % (shown(c, "\n            "), frac_text(lam), ls,
                                     frac_text(mu), ms)
                      for (lam, ls, mu, ms), c in sorted(s._terms.items())], "\n        ")

    return _document(
        {"depth": lattice.depth, "generators": lattice.generators,
         "seed": lattice.seed_text, "warnings": lattice.warnings},
        {"edges": [_EDGE % (shown(e.den), e.dst, _string(e.generator), shown(e.num), e.src)
                   for e in edges],
         "nodes": [_NODE % (shown(n.charge), n.depth, shown(n.energy), n.index,
                            frac_text(n.state.renorm_power), state(n.state)) for n in nodes]},
        "\n}\n")


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
    """o at the indentation ``ind``: a newline and two spaces per level.

    A member that is exactly a str or an int is written with no call."""
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
        parts = [_string(k) + ": " + (_string(v) if type(v) is str else int.__repr__(v)
                                      if type(v) is int else _encode(v, inner))
                 for k, v in sorted(o.items())]
        # the brackets go on the end parts, so the join is the only copy
        # of the container's text (a third less peak memory on an export)
        parts[0] = "{" + inner + parts[0]
        parts[-1] += ind + "}"
        return ("," + inner).join(parts)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = ind + "  "
        parts = [_string(v) if type(v) is str else int.__repr__(v) if type(v) is int
                 else _encode(v, inner) for v in o]
        parts[0] = "[" + inner + parts[0]
        parts[-1] += ind + "]"
        return ("," + inner).join(parts)
    return json.dumps(o)
