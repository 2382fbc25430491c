"""Out-of-program tracing of the kreinosc layers.

``Tracer.install`` wraps the public functions of the lab's modules at every
module global that binds them (``from .algebra2d import apply_2d`` gives
``sectors``, ``cli`` and ``radial`` their own bindings) and patches the
scalar ring operations on their classes.  ``Tracer.uninstall`` puts every
original back.  No file of the lab changes.

Each wrapped call is a span: name, start, end, parent span and request id.
Spans stay in memory.  The four hot scalar operations (``+`` and ``*`` of
``GradedScalar`` and ``EpsScalar``) are not stored one by one; they are
aggregated per request, parent span and name.  Self time is a span's
duration minus the time of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Metric name of each wrapped function; other public functions of these
# modules are traced under "<module>.<function>".
FUNCTION_NAMES = {
    "scalars.gamma_exact": "scalars.gamma",
    "scalars.gamma_laurent": "scalars.gamma",
    "scalars.scalar_sign": "scalars.sign",
    "algebra1d.apply_1d": "algebra1d.apply",
    "algebra1d.compose_1d": "algebra1d.compose",
    "algebra1d.inner_1d": "algebra1d.inner",
    "algebra1d.ladder_state_1d": "algebra1d.ladder_state",
    "algebra2d.apply_2d": "algebra2d.apply",
    "algebra2d.compose_2d": "algebra2d.compose",
    "algebra2d.inner_2d": "algebra2d.inner",
    "algebra2d.renorm_inner": "algebra2d.renorm_inner",
    "algebra2d.eigencheck_2d": "algebra2d.eigencheck",
    "algebra2d.states_proportional": "algebra2d.proportional",
    "radial.bridge_audit": "radial.bridge_audit",
    "radial.radial_reduce": "radial.reduce",
    "sectors.generate_sector": "sectors.generate",
    "sectors.dark_check": "sectors.dark",
    "sectors.gram": "sectors.gram",
    "sectors.quotient_report": "sectors.gram",
    "sectors.identity_audit": "sectors.audit",
    "sectors.lattice_export": "sectors.export",
    "sectors.lattice_from_json": "sectors.load",
    "opexpr.parse_expr": "opexpr.parse",
    "opexpr.build_from_text": "opexpr.build",
    "cli.main": "cli.request",
}

# Class attributes patched in place: (module, class, attribute) -> name.
# ``__radd__``/``__rmul__`` are aliases of ``__add__``/``__mul__`` and are
# found by identity, like module globals.
METHOD_NAMES = {
    ("scalars", "EpsScalar", "__mul__"): "scalars.eps_mul",
    ("scalars", "EpsScalar", "__add__"): "scalars.eps_add",
    ("scalars", "GradedScalar", "__mul__"): "scalars.graded_mul",
    ("scalars", "GradedScalar", "__add__"): "scalars.graded_add",
    ("scalars", "EpsScalar", "try_div"): "scalars.try_div",
    ("scalars", "GradedScalar", "try_div"): "scalars.try_div",
}
HOT = {"scalars.eps_mul", "scalars.eps_add", "scalars.graded_mul", "scalars.graded_add"}

# The modules whose public functions are traced.  Only the CLI entry point
# is wrapped in ``cli``: its own helpers (argparse, spec parsing, json.dumps)
# are the front end's self time.
LAYERS = ("scalars", "algebra1d", "algebra2d", "radial", "sectors", "opexpr", "jsonio", "cli")

_MARK = "_kreinosc_bench_original"


def _jsonio_name(func: str) -> str:
    if func.endswith("_to_json") or func == "frac_text":
        return "jsonio.encode"
    if func.endswith("_from_json") or func == "frac_from_text":
        return "jsonio.decode"
    return "jsonio." + func


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "kreinosc" or n.startswith("kreinosc."))]


def _is_eps_constant(x) -> bool:
    coeffs = getattr(x, "coeffs", None)
    return coeffs is None or len(coeffs()) <= 1


class Tracer:
    """Spans and counters of one traced run; install, run, uninstall."""

    def __init__(self):
        self.request = None
        self.spans = []     # (id, name, start, end, parent id, request id)
        self.hot = {}       # (request id, parent id, name) -> [calls, total_s, self_s]
        self.calls = Counter()   # outermost calls per name
        self.busy = Counter()    # union of the spans of a name, seconds
        self.self_s = Counter()
        self.counts = Counter()  # work counters read off arguments and results
        self._stack = []    # open frames: [child seconds, span id]
        self._open = Counter()
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _wrap(self, name: str, fn, observe=None):
        stack, clock = self._stack, time.perf_counter
        if name in HOT:
            hot, self_s, calls = self.hot, self.self_s, self.calls

            def wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    own = dur - frame[0]
                    key = (self.request, self._parent_id(), name)
                    agg = hot.get(key)
                    if agg is None:
                        hot[key] = [1, dur, own]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += own
                    calls[name] += 1
                    self_s[name] += own
                if observe is not None:
                    observe(self, args, result)
                return result
        else:
            spans, open_, busy, self_s, calls = self.spans, self._open, self.busy, self.self_s, self.calls

            def wrapper(*args, **kwargs):
                self._next_id += 1
                span_id = self._next_id
                parent = self._parent_id()
                frame = [0.0, span_id]
                outermost = not open_[name]
                open_[name] += 1
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - start
                    if stack:
                        stack[-1][0] += dur
                    open_[name] -= 1
                    self_s[name] += dur - frame[0]
                    if outermost:
                        calls[name] += 1
                        busy[name] += dur
                    spans.append((span_id, name, start, end, parent, self.request))
                if observe is not None:
                    observe(self, args, result)
                return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        wrappers = {}   # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["kreinosc." + layer]
            for attr, value in sorted(vars(mod).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (layer, attr)
                if layer == "cli" and qual not in FUNCTION_NAMES:
                    continue
                if layer == "jsonio":
                    name = _jsonio_name(attr)
                else:
                    name = FUNCTION_NAMES.get(qual, qual)
                wrappers[id(value)] = (value, self._wrap(name, value, _OBSERVERS.get(name)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (layer, cls_name, attr), name in METHOD_NAMES.items():
            cls = getattr(sys.modules["kreinosc." + layer], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(name, original, _OBSERVERS.get(name))
            for alias, value in list(vars(cls).items()):
                if value is original:
                    self._patches.append((cls, alias, value))
                    setattr(cls, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def leftovers(self) -> list:
        """Names in the package still bound to a wrapper (empty when restored)."""
        found = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                if hasattr(value, _MARK):
                    found.append("%s.%s" % (mod.__name__, attr))
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for cattr, cvalue in vars(value).items():
                        if hasattr(cvalue, _MARK):
                            found.append("%s.%s.%s" % (mod.__name__, attr, cattr))
        return found

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans and the hot aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
            for (request, parent, name), (calls, total, own) in sorted(
                    self.hot.items(), key=lambda kv: (str(kv[0][0]), kv[0][1] or 0, kv[0][2])):
                fh.write(json.dumps({"name": name, "parent": parent, "request": request,
                                     "calls": calls, "total_s": total, "self_s": own}) + "\n")


def _count(key, test):
    def observe(tracer, args, result):
        if test(args, result):
            tracer.counts[key] += 1
    return observe


def _add(key, amount):
    def observe(tracer, args, result):
        tracer.counts[key] += amount(result)
    return observe


def _dark(tracer, args, result):
    tracer.counts["sectors.dark.pairs_checked"] += result.pairs_checked
    tracer.counts["sectors.dark.grid"] += result.monomials * result.nodes_a * result.nodes_b


_OBSERVERS = {
    "scalars.eps_mul": _count("scalars.eps_mul.const",
                              lambda args, r: all(_is_eps_constant(x) for x in args)),
    "algebra2d.apply": _count("algebra2d.apply.zero", lambda args, r: r.is_zero()),
    "algebra2d.proportional": _count("algebra2d.proportional.hit", lambda args, r: r is not None),
    "sectors.generate": _add("sectors.generate.nodes", lambda r: len(r.nodes)),
    "sectors.export": _add("sectors.export.bytes", len),
    "sectors.dark": _dark,
}


def children_of(tracer: Tracer, parent_name: str) -> Counter:
    """Stored spans per name whose parent span is named ``parent_name``."""
    names = {span[0]: span[1] for span in tracer.spans}
    out = Counter()
    for _, name, _, _, parent, _ in tracer.spans:
        if parent is not None and names.get(parent) == parent_name:
            out[name] += 1
    return out
