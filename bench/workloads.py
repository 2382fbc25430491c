"""Seeded request lists for the kreinosc benchmark.

Each workload is one pass: a list of CLI argv lists that the runner sends
through ``kreinosc.cli.main`` one after another.  A pass has a fixed part
that every seed shares and a seeded part whose parameters the seed draws
from small families of equal cost:

* every family member builds sectors of the same shape (no exponent can
  reach 0 within the depth plus degree used, so no ladder coefficient
  vanishes);
* every gamma argument the lab meets is a half-integer off the poles, so
  exact mode covers the whole list;
* a dark request keeps its cost class: ``pairs_checked`` is 0 for every
  ``dark-pruned`` request and positive for every ``dark-evaluated`` one;
* parameters are drawn without replacement, so no request repeats an
  earlier one by chance: the only repeats are the ones ``lab_mix`` marks.

The program receives only the generated argv lists.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("dark-pruned", "dark-evaluated", "lab-mix")

# Scratch directory, relative to the checkout root, for `export --out`.
OUT_DIR = ".kreinosc_bench"

# Families.  A half-odd exponent never reaches 0; an integer exponent of
# size at least 7 stays nonzero for up to 6 ladder steps, more than any
# depth plus degree used below.
HALF_ODD = tuple(Fraction(n, 2) for n in (-9, -7, -5, 5, 7, 9))
BIG_INT = (-9, -8, -7, 7, 8, 9)
EPS_CONST = (-1, -2, -3, -4)
EPS_SPECS = tuple("%s:%d" % (kind, c) for kind in ("eps", "eps-conj") for c in EPS_CONST)
# Shifts of (lam, mu) that move the charge mu - lam by exactly 1: a charge
# offset of 0 or 2 changes how many pairs a scan evaluates.
NEIGHBOUR_SHIFTS = ((1, 0), (0, 1), (-1, 0), (0, -1))

LAB_MIX_REPEAT_EVERY = 4


@dataclass(frozen=True)
class Request:
    """One CLI call.

    ``output`` names the stdout format ("json", "dot" or "csv"); ``pairs``
    is the expected ``pairs_checked`` class of a dark request ("zero" or
    "positive"), else None; ``repeat`` marks a re-run of an earlier request;
    ``seeded`` marks a request whose parameters the seed chose; ``error``
    is the code of the ``LabError`` a request is expected to exit 1 with.
    """

    argv: tuple
    output: str = "json"
    pairs: str | None = None
    repeat: bool = False
    seeded: bool = False
    error: str | None = None


def _q(x) -> str:
    return str(Fraction(x))


def _omega_generic(rng: random.Random) -> tuple:
    """(lam, mu): one half-odd and one large integer exponent, either order."""
    h = rng.choice(HALF_ODD)
    n = Fraction(rng.choice(BIG_INT))
    return (h, n) if rng.random() < 0.5 else (n, h)


def _distinct(draw, k: int) -> list:
    """``k`` distinct results of ``draw()``, in the order first drawn."""
    out = []
    while len(out) < k:
        x = draw()
        if x not in out:
            out.append(x)
    return out


def omega_spec(lam, mu) -> str:
    return "omega:%s,%s" % (_q(lam), _q(mu))


def _dark(a: str, b: str, depth: int, degree: int, pairs: str, seeded: bool) -> Request:
    argv = ("dark", "--a", a, "--b", b, "--depth", str(depth), "--degree", str(degree))
    return Request(argv, pairs=pairs, seeded=seeded)


def dark_pruned(seed: int) -> list:
    """Sector pairs that share no charge: superselection prunes every pair."""
    rng = random.Random("dark-pruned/%d" % seed)
    reqs = [
        _dark("vacuum", b, 3, 4, "zero", False) for b in ("half-zbar", "half-z", "eps:-1")
    ]
    # vacuum charges are integers; omega:L,M with L - M not an integer has
    # half-odd charges.  The small scans are many requests of one cost, so
    # that the tail percentile falls inside that group.
    specs = [omega_spec(*w) for w in _distinct(lambda: _omega_generic(rng), 29)]
    reqs.append(_dark("vacuum", specs[0], 2, 3, "zero", True))
    for spec in specs[1:]:
        reqs.append(_dark("vacuum", spec, 1, 2, "zero", True))
    rng.shuffle(reqs)
    return reqs


def _neighbour_pair(rng: random.Random) -> tuple:
    lam, mu = _omega_generic(rng)
    i, j = rng.choice(NEIGHBOUR_SHIFTS)
    a = omega_spec(lam, mu)
    b = omega_spec(lam + i, mu + j)
    return (a, b) if rng.random() < 0.5 else (b, a)


def dark_evaluated(seed: int) -> list:
    """Sector pairs that share charges, so pairs are evaluated."""
    rng = random.Random("dark-evaluated/%d" % seed)
    reqs = [
        _dark("vacuum", "vacuum", 3, 4, "positive", False),
        _dark("half-zbar", "half-z", 2, 4, "positive", False),
        _dark("half-zbar", "half-zbar", 2, 4, "positive", False),
        _dark("eps:-1", "eps:-1", 1, 4, "positive", False),
    ]
    # A unit shift of one exponent moves the charge by 1, so the two towers
    # meet; the exponent on the half-odd side keeps every gamma argument
    # half-odd.
    for a, b in _distinct(lambda: _neighbour_pair(rng), 24):
        reqs.append(_dark(a, b, 1, 2, "positive", True))
    rng.shuffle(reqs)
    return reqs


# Operator expressions for `eval`.  The seed picks, per template, whether to
# mirror it (zbar <-> z swaps b++ with b+- and b-+ with b--), which keeps
# its cost, and the planar state it acts on.  A template whose mirror is
# another template is never mirrored.
EXPR_2D = (
    "[b-+, b++]",
    "[b--, b+-]",
    "(b++ b--)^2",
    "(b++ b-+)^3",
    "b++^3 - [b++, b+-]",
    "b-+^4",
    "[H, b++] - 1 b++",
    "[Q, b--] - 2 b--",
)
EXPR_1D = (
    "a+@1 a-@1",
    "a+@-2 a-@-2",
    "(x D)^2 - [A-, A+]",
    "(x D)^3",
    "[A-, A+]",
    "H1^2",
)
_SIGN_SWAP = str.maketrans({"+": "-", "-": "+"})


def mirror(text: str) -> str:
    """The zbar <-> z image of a planar expression: b+s <-> b+s', b-s <-> b-s'."""
    out = []
    for tok in text.split(" "):
        core = tok.strip("[](),^0123456789")
        if core in ("b++", "b+-", "b-+", "b--"):
            tok = tok.replace(core, core[:2] + core[2].translate(_SIGN_SWAP))
        out.append(tok)
    return " ".join(out)


def _line_path(seed: int, k: int) -> str:
    return "%s/line-%d-%d.json" % (OUT_DIR, seed, k)


def line_documents(seed: int) -> dict:
    """Line states x^e exp(-x^2/2) that lab-mix pairs through `file:` specs.

    Three terms with distinct exponents in 0..6, so every moment
    gamma((e_f + e_g + 1)/2) is a half-integer off the poles.
    """
    rng = random.Random("lines/%d" % seed)
    docs = {}
    for k in range(4):
        terms = [
            {"exp": str(e), "coeff": [{"j": 0, "k": 0, "q": rng.choice(("1", "-2", "3/2", "-1/3"))}]}
            for e in sorted(rng.sample(range(7), 3))
        ]
        docs[_line_path(seed, k)] = json.dumps({"space": "1d", "terms": terms}) + "\n"
    return docs


# Requests that must exit 1 with a coded LabError, as a user's typo would.
FAILING = (
    (("dark", "--a", "vacuum", "--b", "vacuum", "--depth", "1", "--degree", "7"), "domain"),
    (("sector", "--preset", "vacuum", "--depth", "17"), "domain"),
    (("eval", "--expr", "b++ +"), "syntax"),
    (("eval", "--expr", "[b++]"), "arity"),
    (("eval", "--expr", "b++ foo"), "unknown-name"),
)


def lab_mix(seed: int) -> list:
    """Short and medium requests across every subcommand but large scans."""
    rng = random.Random("lab-mix/%d" % seed)
    e1, e2, e3 = (rng.choice(EPS_CONST) for _ in range(3))
    # Every omega: parameter of the pass is distinct.
    omegas = iter(_distinct(lambda: _omega_generic(rng), 35))
    w = [next(omegas) for _ in range(9)]
    preset_out = "%s/half-z-8.json" % OUT_DIR
    seeded_out = "%s/eps%d-4.json" % (OUT_DIR, e3)

    def R(*argv, output="json", seeded=False):
        return Request(tuple(argv), output=output, seeded=seeded)

    heavy = [
        R("sector", "--preset", "half-zbar", "--depth", "10"),
        R("sector", "--preset", "vacuum", "--depth", "10"),
        R("sector", "--preset", "half-z", "--depth", "8"),
        R("sector", "--seed", "eps:%d" % e1, "--depth", "6", seeded=True),
        R("sector", "--seed", omega_spec(*w[0]), "--depth", "4", seeded=True),
        R("gram", "--preset", "half-zbar", "--depth", "6", "--charge=-1/2"),
        R("gram", "--preset", "half-z", "--depth", "6"),
        R("gram", "--seed", "eps:%d" % e2, "--depth", "5", seeded=True),
        R("gram", "--seed", omega_spec(*w[1]), "--depth", "3", seeded=True),
        R("export", "--preset", "vacuum", "--depth", "8", "--format", "dot", output="dot"),
        R("export", "--preset", "half-zbar", "--depth", "8", "--format", "csv", output="csv"),
        R("export", "--seed", omega_spec(*w[2]), "--depth", "3", "--format", "json", seeded=True),
    ]
    # More requests of the cost of the deep ones above, so that the tail
    # percentile (the 11th slowest request of a pass) falls inside a band of
    # similar requests instead of on the edge between two of them.
    heavy += [R("sector", "--seed", omega_spec(*w[i]), "--depth", "4", seeded=True)
              for i in range(3, 7)]
    heavy += [R("gram", "--seed", omega_spec(*w[i]), "--depth", "3", seeded=True)
              for i in range(7, 9)]
    # Writers, each followed later in the pass by readers of its file.
    chains = [
        [
            R("export", "--preset", "half-z", "--depth", "8", "--format", "json",
              "--out", preset_out),
            R("gram", "--sector", preset_out),
            R("gram", "--sector", preset_out, "--charge=1/2"),
            R("export", "--sector", preset_out, "--format", "dot", output="dot"),
        ],
        [
            R("export", "--seed", "eps:%d" % e3, "--depth", "4", "--format", "json",
              "--out", seeded_out, seeded=True),
            R("gram", "--sector", seeded_out, seeded=True),
            R("export", "--sector", seeded_out, "--format", "csv", output="csv", seeded=True),
        ],
    ]
    light = []
    for depth in ("2", "3", "4"):
        light.append(R("audit", "--bridge-depth", depth))
    for alpha in ("1", "-2"):
        for n in ("4", "6", "8"):
            light.append(R("spectrum", "--alpha=" + alpha, "--n", n))
        light.append(R("vacuum", "--alpha=" + alpha))
    light.append(R("inner", "--lhs", "psi0", "--rhs", "psi0"))
    for k in range(4):
        lhs, rhs = _line_path(seed, k), _line_path(seed, (k + 1) % 4)
        light.append(R("inner", "--lhs", "file:" + lhs, "--rhs", "file:" + rhs, seeded=True))
    # Small dark scans only: one evaluated, one pruned.
    light.append(_dark("half-zbar", "half-z", 1, 2, "positive", False))
    light.append(_dark("vacuum", omega_spec(*next(omegas)), 1, 2, "zero", True))
    for _ in range(5):
        spec = omega_spec(*next(omegas))
        light.append(R("inner", "--lhs", spec, "--rhs", spec, seeded=True))
    for spec in rng.sample(EPS_SPECS, 5):
        light.append(R("inner", "--lhs", spec, "--rhs", spec, "--renorm", seeded=True))
    for spec in rng.sample(EPS_SPECS, 5):
        light.append(R("inner", "--lhs", spec, "--rhs", spec, seeded=True))
    for spec in rng.sample(EPS_SPECS, 4):
        light.append(R("localize", "--state", omega_spec(*next(omegas)), seeded=True))
        light.append(R("localize", "--state", spec, seeded=True))
        lam, mu = next(omegas)
        light.append(R("reduce", "--state", omega_spec(lam, mu), seeded=True))
        lam, mu = next(omegas)
        light.append(R("reduce", "--state", omega_spec(lam, mu), "--charge=" + _q(mu - lam),
                       seeded=True))
    for text in EXPR_2D:
        for with_state in (False, True):
            flip = rng.random() < 0.5 and mirror(text) not in EXPR_2D
            argv = ["eval", "--expr", mirror(text) if flip else text]
            if with_state:
                argv += ["--state", omega_spec(*next(omegas))]
            light.append(R(*argv, seeded=True))
    for text in EXPR_1D:
        light.append(R("eval", "--expr", text))

    # Re-runs, as when a user re-runs a cell: `sector --seed eps:L --depth 6`,
    # `gram --seed omega:.. --depth 3` and every LAB_MIX_REPEAT_EVERY-th light
    # request.  The choice is by position, so every seed repeats work of the
    # same cost.
    repeats = [heavy[3], heavy[8]] + light[::LAB_MIX_REPEAT_EVERY]

    failing = [Request(argv, error=code) for argv, code in FAILING]
    items = heavy + light + failing + [r for c in chains for r in c]
    rng.shuffle(items)
    # A writer comes before its readers: give each chain its own slots in
    # order of position.
    for chain in chains:
        slots = sorted(items.index(r) for r in chain)
        for slot, r in zip(slots, chain):
            items[slot] = r
    # Each repeat lands after its original.
    for r in repeats:
        first = items.index(r)
        again = Request(r.argv, r.output, r.pairs, repeat=True, seeded=r.seeded, error=r.error)
        items.insert(rng.randint(first + 1, len(items)), again)
    return items


_GENERATORS = {"dark-pruned": dark_pruned, "dark-evaluated": dark_evaluated, "lab-mix": lab_mix}


def repeat_count(reqs: list) -> int:
    """Requests whose argv already appeared earlier in the pass."""
    seen, count = set(), 0
    for r in reqs:
        count += r.argv in seen
        seen.add(r.argv)
    return count


def write_inputs(workload: str, seed: int) -> None:
    """Write the files the request list of ``workload`` reads."""
    os.makedirs(OUT_DIR, exist_ok=True)
    docs = line_documents(seed) if workload == "lab-mix" else {}
    for path, text in docs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def generate(workload: str, seed: int) -> list:
    """The request list of one pass of ``workload`` for ``seed``."""
    return _GENERATORS[workload](seed)
