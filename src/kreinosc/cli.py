"""Command line interface.

Every subcommand prints one JSON document to stdout (except export,
which prints the chosen serialization verbatim).  Failures inside the
laboratory print {"error": code, "message": ...} to stderr and exit 1;
malformed command lines exit 2 via argparse.

State arguments accept:

    psi0            the planar vacuum
    omega:L,M       zbar^L z^M (rational exponents)
    eps:L           zbar^(L+eps), renormalized half-power pairing
    eps-conj:M      z^(M+eps), renormalized half-power pairing
    file:PATH       a state JSON document (line or planar)

Sector-building commands take either --preset vacuum|half-zbar|half-z
(seed and generator set together) or --seed with an optional --gens
override; gram and export also accept --sector FILE pointing at a
previously exported sector JSON document.  The dark command's --a/--b
accept any of preset name, seed spec, or file:PATH (state or sector
document).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebra1d import (
    State1D,
    apply_1d,
    build_op_1d,
    eigencheck_1d,
    inner_1d,
    ladder_states_1d,
    localization_1d,
    solve_vacuum_1d,
)
from .algebra2d import State2D, apply_2d, inner_2d, localization_2d, psi0, renorm_inner
from .errors import DomainError, LabError
from .jsonio import (
    audit_to_json,
    dark_dumps,
    dumps,
    frac_text,
    graded_to_json,
    gram_to_json,
    laurent_to_json,
    op1d_to_json,
    op2d_to_json,
    quotient_to_json,
    state1d_to_json,
    state2d_to_json,
    state_from_json,
)
from .opexpr import eval_expr, expr_text, parse_expr
from .radial import angular_decompose, bridge_audit, radial_reduce
from .scalars import _rational_text
from .sectors import (
    EXPORT_FORMATS,
    GENERATOR_ORDER,
    PRESET_NAMES,
    SEED_FORMS,
    TOWERS,
    classify_limit,
    dark_check,
    generate_sector,
    gram,
    identity_audit,
    lattice_export,
    lattice_from_json,
    preset_sector,
    quotient_report,
)


def _frac_arg(text: str) -> Fraction:
    try:
        return _rational_text(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text)


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
        raise DomainError("%s is not valid JSON: %s" % (path, exc))


def load_state_spec(spec: str):
    """Resolve a state argument; see the module docstring for the forms."""
    name, colon, body = spec.partition(":")
    if spec == "psi0":
        return psi0()
    if colon and name in SEED_FORMS:
        count, seed, _ = SEED_FORMS[name]
        parts = body.split(",") if count > 1 else [body]
        if len(parts) != count:  # only omega takes more than one
            raise DomainError("omega: takes two comma-separated rationals")
        try:
            exponents = [_rational_text(part) for part in parts]
        except (ValueError, ZeroDivisionError):
            raise DomainError("malformed exponent in %r" % spec)
        return seed(*exponents)
    if colon and name == "file":
        return state_from_json(_read_json(body))
    raise DomainError(
        "unrecognized state %r; use psi0, omega:L,M, eps:L, eps-conj:M, or file:PATH"
        % spec
    )


def _default_generators(spec: str) -> tuple:
    name = spec.partition(":")[0]
    gens = SEED_FORMS[name][2] if name in SEED_FORMS else GENERATOR_ORDER
    return TOWERS["vacuum"] if name == "psi0" else gens


def _add_lattice_args(sub, with_file=False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES, help="named tower")
    group.add_argument("--seed", help="seed state (psi0, omega:L,M, eps:L, eps-conj:M, file:PATH)")
    if with_file:
        group.add_argument("--sector", metavar="FILE", help="previously exported sector JSON")
    sub.add_argument(
        "--gens",
        help="comma-separated subset of %s (default: inferred from the seed)"
        % ",".join(GENERATOR_ORDER),
    )
    sub.add_argument("--depth", type=int, default=4, help="closure depth (default 4)")


def _resolve_lattice(args):
    if getattr(args, "sector", None):
        if args.gens:
            raise DomainError("--gens cannot be combined with --sector")
        return lattice_from_json(_read_json(args.sector))
    if args.preset:
        if args.gens:
            raise DomainError("--gens cannot be combined with --preset")
        return preset_sector(args.preset, args.depth)
    spec = args.seed
    state = load_state_spec(spec)
    if not isinstance(state, State2D):
        raise DomainError("sector seeds must be planar states")
    if args.gens:
        gens = tuple(g.strip() for g in args.gens.split(",") if g.strip())
    else:
        gens = _default_generators(spec)
    return generate_sector(state, gens, args.depth, seed_text=spec)


def _load_sector_source(spec: str, depth: int):
    """A dark-scan operand: preset name, seed spec, or a document path.

    file:PATH may hold either an exported sector (reloaded as-is) or a
    single planar state, which becomes its own zero-depth sector.
    """
    if spec in PRESET_NAMES:
        return preset_sector(spec, depth)
    if spec.startswith("file:"):
        data = _read_json(spec[len("file:") :])
        if isinstance(data, dict) and "nodes" in data and "edges" in data:
            return lattice_from_json(data)
        state = state_from_json(data)
        if not isinstance(state, State2D):
            raise DomainError("dark scan operands must be planar")
        return generate_sector(state, (), 0, seed_text=spec)
    # every other spec names a planar state
    return generate_sector(load_state_spec(spec), _default_generators(spec), depth, seed_text=spec)


# A run of small dark scans meets the same few operands again and again, so
# dark closes each non-file operand once per process, keyed by (spec text,
# depth).  Kept small: a scanned lattice holds the pairing indices of its states.
SECTOR_CACHE_SIZE = 4


@functools.lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _closed_operand(spec: str, depth: int):
    """_load_sector_source of a preset or seed spec, shared within the process."""
    return _load_sector_source(spec, depth)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_audit(args) -> None:
    out = audit_to_json(identity_audit())
    out["bridge"] = bridge_audit(args.bridge_depth)
    _emit(out)


def _cmd_spectrum(args) -> None:
    levels = [
        {"n": n, "energy": frac_text(energy), "state": state1d_to_json(state)}
        for n, (state, energy) in enumerate(ladder_states_1d(args.alpha, args.n))
    ]
    _emit({"alpha": frac_text(args.alpha), "levels": levels})


def _cmd_vacuum(args) -> None:
    state = solve_vacuum_1d(args.alpha)
    energy = eigencheck_1d(build_op_1d("H1"), state)
    _emit(
        {
            "alpha": frac_text(args.alpha),
            "state": state1d_to_json(state),
            "energy": None if energy is None else energy.text(),
        }
    )


def _cmd_inner(args) -> None:
    f = load_state_spec(args.lhs)
    g = load_state_spec(args.rhs)
    if isinstance(f, State1D) and isinstance(g, State1D):
        if args.renorm:
            raise DomainError("--renorm applies to planar states only")
        v = inner_1d(f, g)
        _emit({"space": "1d", "value": v.text(), "value_exact": graded_to_json(v)})
        return
    if isinstance(f, State1D) or isinstance(g, State1D):
        raise DomainError("cannot pair a line state with a planar state")
    if args.renorm:
        v = renorm_inner(f, g)
        exact = graded_to_json(v)
        _emit({"space": "2d", "renormalized": True, "value": v.text(), "value_exact": exact})
        return
    value = inner_2d(f, g)
    _emit(
        {
            "space": "2d",
            "renormalized": False,
            "value": laurent_to_json(value),
            "text": value.text(),
        }
    )


def _cmd_gram(args) -> None:
    lattice = _resolve_lattice(args)
    if args.charge is not None:
        _emit(gram_to_json(gram(lattice, args.charge)))
    else:
        _emit(quotient_to_json(quotient_report(lattice)))


def _cmd_dark(args) -> None:
    # a file: document can change between calls, so it is read every time
    lat_a, lat_b = (
        (_load_sector_source if spec.startswith("file:") else _closed_operand)(spec, args.depth)
        for spec in (args.a, args.b)
    )
    print(dark_dumps(dark_check(lat_a, lat_b, args.degree)))


def _cmd_localize(args) -> None:
    s = load_state_spec(args.state)
    if isinstance(s, State1D):
        out, localization = {"space": "1d"}, localization_1d
    else:
        out, localization = {"space": "2d", "deformed": s.has_slopes()}, localization_2d
    if out.get("deformed"):
        out["limit_class"] = classify_limit(s)
        s = s.limit_eps0()
        out["limit"] = state2d_to_json(s)
    if s or not out.get("deformed"):  # a deformed state whose limit vanishes has no class
        out["localized"], div = localization(s)
        order = None if div.order is None else frac_text(div.order)
        out["divergence"] = {"kind": div.kind, "order": order}
    _emit(out)


def _cmd_reduce(args) -> None:
    s = load_state_spec(args.state)
    if not isinstance(s, State2D):
        raise DomainError("reduce takes a planar state")
    if args.charge is None:
        blocks = angular_decompose(s)
        _emit(
            {
                "charges": [
                    {"charge": frac_text(q), "profile": state1d_to_json(blocks[q].profile)}
                    for q in sorted(blocks)
                ]
            }
        )
        return
    line = radial_reduce(s, args.charge)
    _emit({"charge": frac_text(args.charge), "state": state1d_to_json(line)})


def _cmd_export(args) -> None:
    lattice = _resolve_lattice(args)
    text = lattice_export(lattice, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a path open() refuses
            raise DomainError("cannot write %s: %s" % (args.out, exc))
        _emit({"written": args.out, "format": args.format, "bytes": len(text)})
    else:
        sys.stdout.write(text)


def _cmd_eval(args) -> None:
    ast = parse_expr(args.expr)
    space, op = eval_expr(ast)
    # built per call from the module globals, so a rebound global is the one called
    kind, word, op_json, apply, state_json = {
        "1d": (State1D, "line", op1d_to_json, apply_1d, state1d_to_json),
        "2d": (State2D, "planar", op2d_to_json, apply_2d, state2d_to_json),
    }[space]
    out = {"space": space, "expr": expr_text(ast), "text": op.text(), "operator": op_json(op)}
    if args.state is not None:
        state = load_state_spec(args.state)
        if not isinstance(state, kind):
            raise DomainError("expression is a %s operator; --state needs a %s state"
                              % (word, word))
        out["image"] = state_json(apply(op, state))
    _emit(out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Building it costs tens of times more than a parse, and parse_args
    keeps no state on it: each call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="kreinosc",
        description="Exact laboratory for singular oscillator ladders, "
        "regularized pairings, and sector lattices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("audit", help="verify the structural identities and the radial bridge")
    p.add_argument("--bridge-depth", type=int, default=4, help="tower height for the bridge check")
    p.set_defaults(func=_cmd_audit)

    p = subs.add_parser("spectrum", help="line ladder states and exact energies")
    p.add_argument("--alpha", type=_frac_arg, required=True, help="inverse-square coupling label")
    p.add_argument("--n", type=int, default=4, help="number of rungs (default 4)")
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("vacuum", help="line vacuum state for a coupling")
    p.add_argument("--alpha", type=_frac_arg, required=True)
    p.set_defaults(func=_cmd_vacuum)

    p = subs.add_parser("inner", help="regularized inner product of two states")
    p.add_argument("--lhs", required=True, help="left state spec")
    p.add_argument("--rhs", required=True, help="right state spec")
    p.add_argument("--renorm", action="store_true", help="renormalized limit value")
    p.set_defaults(func=_cmd_inner)

    p = subs.add_parser("sector", help="generate a sector lattice (JSON)")
    _add_lattice_args(p)
    p.set_defaults(func=_cmd_export, format="json", out=None)

    p = subs.add_parser("gram", help="Gram data of a charge block, or all blocks")
    _add_lattice_args(p, with_file=True)
    p.add_argument("--charge", type=_frac_arg, help="rational charge of one block")
    p.set_defaults(func=_cmd_gram)

    p = subs.add_parser("dark", help="scan two sectors for interaction elements")
    p.add_argument("--a", required=True, help="preset, seed spec, or file:PATH")
    p.add_argument("--b", required=True, help="preset, seed spec, or file:PATH")
    p.add_argument(
        "--degree", type=int, default=4, help="interaction monomial degree cap (default 4)"
    )
    p.add_argument(
        "--depth", type=int, default=4, help="closure depth for built sectors (default 4)"
    )
    p.set_defaults(func=_cmd_dark)

    p = subs.add_parser("localize", help="near-origin divergence class of a state")
    p.add_argument("--state", required=True, help="state spec")
    p.set_defaults(func=_cmd_localize)

    p = subs.add_parser("reduce", help="radial line state of one charge block")
    p.add_argument("--state", required=True, help="planar state spec")
    p.add_argument("--charge", type=_frac_arg, help="angular charge to keep")
    p.set_defaults(func=_cmd_reduce)

    p = subs.add_parser("export", help="serialize a sector lattice")
    _add_lattice_args(p, with_file=True)
    p.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export)

    p = subs.add_parser("eval", help="build an operator from an expression")
    p.add_argument("--expr", required=True, help="operator expression")
    p.add_argument("--state", help="state to apply the operator to")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads "--opt=--" as an empty list
            parser.error("argument --%s: expected one argument" % name.replace("_", "-"))
    try:
        args.func(args)
    except LabError as exc:
        sys.stderr.write(
            json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
