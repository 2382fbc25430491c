"""Sector lattices, indefinite Gram analysis, and the identity audit.

A sector is generated from a seed state by repeatedly applying ladder
operators; states that agree up to an exact scalar are merged into one
node, so the result is a lattice of rays with labelled edges.  The Gram
matrix of a charge block is computed with the renormalized pairing and
diagonalized by exact congruence, giving an inertia triple and an
explicit null basis without ever leaving the graded field.

The identity audit re-derives the structural relations of the operator
algebra from the differential forms and reports PASS/FAIL per relation;
claims that fail are reported together with the exact residual and the
corrected form.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from types import MappingProxyType

from .algebra1d import apply_1d, build_op_1d, solve_vacuum_1d
from .algebra2d import (
    State2D,
    apply_2d,
    build_op_2d,
    commutator_2d,
    eigencheck_2d,
    inner_2d,
    ladder_closed_form,
    ladder_image,
    omega,
    psi0,
    renorm_inner,
    states_proportional,
)
from .errors import DepthExceeded, DomainError, NotConvergent, PoleError, UnsupportedFormat
from .jsonio import eps_from_json, eps_to_json, state2d_from_json, state2d_to_json
from .opexpr import build_from_text
from .scalars import (
    GS_ZERO,
    EpsScalar,
    GradedScalar,
    _as_fraction,
    _HALF,
    scalar_sign,
)

GENERATOR_ORDER = ("b_pp", "b_pm", "b_mp", "b_mm")
_GEN_RANK = {g: i for i, g in enumerate(GENERATOR_ORDER)}

MAX_DEPTH = 16
MAX_DARK_DEGREE = 6

# Node budget of one sector closure.  Closure and eigenvalues cost 1-4 ms
# per node, and an omega seed under all four generators grows fast
# (omega:1/2,3: 652 nodes at depth 6, 2803 at depth 8).  The presets stay
# below it at every depth up to MAX_DEPTH (289 nodes at most).
MAX_SECTOR_NODES = 1000

# Work budget of one dark scan: the word images plus the pair evaluations
# that charge reachability predicts before any image is built (see
# dark_check).  The largest scans in use, vacuum@3 x vacuum@3 at degree 4
# and 5, predict 2774 and 6490; a unit costs 0.03-0.2 ms, so an accepted
# scan ends within about 3 s.
MAX_DARK_WORK = 12_000


def _gen_ops() -> dict:
    return {g: build_op_2d(g) for g in GENERATOR_ORDER}


@functools.cache
def _ladder_shifts(name: str) -> MappingProxyType:
    """Read-only {generator: d} with [op, b] = d b, d rational, for op = H or Q.

    Read off the commutators and checked for exact proportionality, once
    per process and on first use.  So op (b s) = (e + d) (b s) whenever
    op s = e s.  Q is diagonal on monomials, so b also moves the charge
    -L + M of every monomial by its Q shift.
    """
    op = build_op_2d(name)
    shifts = {}
    for g, b in _gen_ops().items():
        comm = commutator_2d(op, b)
        key = min(b._terms)
        d = comm._terms.get(key, GS_ZERO).try_div(b._terms[key])
        d = None if d is None else d.as_fraction()
        exact = d is not None and comm == b.scaled(d)
        assert exact, "[%s, %s] is not a rational multiple of %s" % (name, g, g)
        shifts[g] = d
    return MappingProxyType(shifts)


def _eps_text(v) -> str:
    return "?" if v is None else v.text()


# ---------------------------------------------------------------------------
# lattice construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    index: int
    state: State2D
    energy: EpsScalar | None
    charge: EpsScalar | None
    depth: int

    def label(self) -> str:
        return "E=%s, Q=%s" % (_eps_text(self.energy), _eps_text(self.charge))


@dataclass(frozen=True)
class Edge:
    """apply(generator, node src) = (num/den) * (node dst)."""

    src: int
    dst: int
    generator: str
    num: EpsScalar
    den: EpsScalar

    def coeff_text(self) -> str:
        if self.den == EpsScalar.one():
            return self.num.text()
        return "(%s)/(%s)" % (self.num.text(), self.den.text())


@dataclass(frozen=True)
class SectorLattice:
    seed_text: str
    generators: tuple
    depth: int
    nodes: tuple
    edges: tuple
    warnings: tuple = ()

    def node_count(self) -> int:
        return len(self.nodes)


def generate_sector(seed: State2D, generators, depth: int = 4, seed_text=None) -> SectorLattice:
    """Breadth-first closure of the seed ray under the named generators.

    Images come from the closed-form ladder action (ladder_image).  An
    image proportional to a known node becomes an edge onto it; zero
    images are dropped.  A newly discovered node is stored monic in its
    highest monomial whenever that rescaling is exactly invertible (a
    deformed leading coefficient like -1+e is not, and then the raw
    image is kept), with the scale recorded on the discovering edge.
    A closure that would pass MAX_SECTOR_NODES nodes raises
    DepthExceeded before any eigenvalue is computed.

    Every node is keyed by its exact (energy, charge) eigenvalues, taken
    from the ladder algebra: [H, b] = dE(b) b and [Q, b] = dQ(b) b for
    each generator b, so a node discovered as b s from a parent s with
    H s = E s has H (b s) = (E + dE(b)) (b s), and likewise for Q; the
    monic rescaling keeps this.  The seed, and any node whose parent has
    no eigenvalue of that operator, is checked by applying H or Q (the
    children of a non-eigenstate can still be eigenstates).  A node
    failing either check is kept and reported in the lattice warnings.
    """
    depth = int(depth)
    if depth < 0 or depth > MAX_DEPTH:
        raise DomainError("depth must be between 0 and %d" % MAX_DEPTH)
    gens = tuple(g for g in GENERATOR_ORDER if g in set(generators))
    if len(gens) != len(set(generators)):
        bad = sorted(set(generators) - set(GENERATOR_ORDER))
        raise DomainError("unknown generator(s): %s" % ", ".join(map(str, bad)))
    if seed.is_zero():
        raise DomainError("seed state is zero")

    states: list[State2D] = [seed]
    depths: list[int] = [0]
    parents: list[tuple] = [(None, None)]  # (discovering node, generator)
    edges: list[Edge] = []
    # proportional states share their monomial keys, so an image is only
    # compared with the nodes of its own key set, in index order
    by_keys = {frozenset(seed._terms): [0]}
    frontier = [0]
    for d in range(1, depth + 1):
        new_frontier = []
        for i in frontier:
            for g in gens:
                img = ladder_image(g, states[i])
                if img.is_zero():
                    continue
                bucket = by_keys.setdefault(frozenset(img._terms), [])
                for j in bucket:
                    ratio = states_proportional(img, states[j])
                    if ratio is not None:
                        edges.append(Edge(i, j, g, ratio[0], ratio[1]))
                        break
                else:
                    if len(states) == MAX_SECTOR_NODES:
                        raise DepthExceeded(
                            "sector closure passes %d nodes at depth %d of %d; "
                            "lower the depth" % (MAX_SECTOR_NODES, d, depth)
                        )
                    lead = img._terms[max(img._terms)]
                    inv = EpsScalar.one().try_div(lead)
                    if inv is not None and inv != EpsScalar.one():
                        states.append(img.scaled(inv))
                        num = lead
                    else:
                        states.append(img)
                        num = EpsScalar.one()
                    depths.append(d)
                    parents.append((i, g))
                    j = len(states) - 1
                    bucket.append(j)
                    edges.append(Edge(i, j, g, num, EpsScalar.one()))
                    new_frontier.append(j)
        frontier = new_frontier

    op_h = build_op_2d("H")
    op_q = build_op_2d("Q")
    energies, charges, warnings = [], [], []
    for i, (s, (p, g)) in enumerate(zip(states, parents)):
        for op, shifts, values, what in (
            (op_h, _ladder_shifts("H"), energies, "an energy"),
            (op_q, _ladder_shifts("Q"), charges, "a charge"),
        ):
            if p is not None and values[p] is not None:
                v = values[p] + shifts[g]
            else:
                v = eigencheck_2d(op, s)
                if v is None:
                    warnings.append("node %d is not %s eigenstate" % (i, what))
            values.append(v)
    nodes = [
        Node(i, s, e, q, d) for i, (s, e, q, d) in enumerate(zip(states, energies, charges, depths))
    ]

    return SectorLattice(
        seed_text=seed_text if seed_text is not None else seed.text(),
        generators=gens,
        depth=depth,
        nodes=tuple(nodes),
        edges=tuple(edges),
        warnings=tuple(warnings),
    )


# Named towers.  The vacuum tower is closed under the two raising
# operators alone; the half-power towers add the one lowering operator
# that moves the deformed exponent.
PRESET_NAMES = ("vacuum", "half-zbar", "half-z")


def preset_sector(name: str, depth: int = 2) -> SectorLattice:
    if name == "vacuum":
        return generate_sector(psi0(), ("b_pp", "b_pm"), depth, seed_text="psi0")
    if name == "half-zbar":
        return generate_sector(
            omega(_HALF, 0), ("b_pp", "b_pm", "b_mm"), depth, seed_text="omega:1/2,0"
        )
    if name == "half-z":
        return generate_sector(
            omega(0, _HALF), ("b_pp", "b_pm", "b_mp"), depth, seed_text="omega:0,1/2"
        )
    raise DomainError("unknown preset %r; choose from %s" % (name, ", ".join(PRESET_NAMES)))


def eps_sector(lam_const, depth: int = 2) -> SectorLattice:
    """Deformed tower seeded on zbar^(lam_const + eps), renormalized pairing."""
    seed = omega(_as_fraction(lam_const), 0, lam_slope=1).with_renorm(_HALF)
    return generate_sector(
        seed, ("b_pp", "b_pm", "b_mm"), depth, seed_text="eps:%s" % _as_fraction(lam_const)
    )


def eps_conj_sector(mu_const, depth: int = 2) -> SectorLattice:
    """Mirror deformation on the z exponent."""
    seed = omega(0, _as_fraction(mu_const), mu_slope=1).with_renorm(_HALF)
    return generate_sector(
        seed, ("b_pp", "b_pm", "b_mp"), depth, seed_text="eps-conj:%s" % _as_fraction(mu_const)
    )


# ---------------------------------------------------------------------------
# Gram analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramResult:
    charge: EpsScalar
    node_indices: tuple
    entries: tuple  # tuple of tuples of GradedScalar
    signature: tuple  # (n_plus, n_minus, n_zero)
    kernel: tuple  # tuple of vectors (tuples of GradedScalar)
    renormalized: bool


def _congruence_diagonalize(mat):
    """Exact symmetric congruence: returns (diagonal, transform columns).

    mat is a list of GradedScalar rows.  The transform E satisfies
    E^T mat E = diag; column i of E is a null vector of mat whenever
    diag[i] is zero.  Division-free: pivots multiply through.
    """
    n = len(mat)
    m = [list(row) for row in mat]
    ecols = [[GS_ZERO] * n for _ in range(n)]
    for i in range(n):
        ecols[i][i] = GradedScalar.one()

    def col_op(j, p, a, i):
        # col_j <- p*col_j - a*col_i, applied to m (both sides) and E
        for r in range(n):
            m[r][j] = m[r][j] * p - m[r][i] * a
        for c in range(n):
            m[j][c] = m[j][c] * p - m[i][c] * a
        for r in range(n):
            ecols[j][r] = ecols[j][r] * p - ecols[i][r] * a

    def col_swap(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        ecols[i], ecols[j] = ecols[j], ecols[i]

    for i in range(n):
        if not m[i][i]:
            swap = next((j for j in range(i + 1, n) if m[j][j]), None)
            if swap is not None:
                col_swap(i, swap)
            else:
                off = next((j for j in range(i + 1, n) if m[i][j]), None)
                if off is None:
                    continue  # fully split off: null direction
                col_op(i, 1, -1, off)  # col_i <- col_i + col_off
        p = m[i][i]
        for j in range(i + 1, n):
            a = m[i][j]
            if a:
                col_op(j, p, a, i)
    diag = tuple(m[i][i] for i in range(n))
    return diag, ecols


def _block_result(lattice, charge, indices) -> GramResult:
    states = [lattice.nodes[i].state for i in indices]
    n = len(states)
    entries = [[GS_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = renorm_inner(states[i], states[j])
    diag, ecols = _congruence_diagonalize(entries)
    n_plus = n_minus = n_zero = 0
    kernel = []
    for i, d in enumerate(diag):
        sgn = scalar_sign(d)
        if sgn > 0:
            n_plus += 1
        elif sgn < 0:
            n_minus += 1
        else:
            n_zero += 1
            kernel.append(tuple(ecols[i]))
    return GramResult(
        charge=charge,
        node_indices=tuple(indices),
        entries=tuple(map(tuple, entries)),
        signature=(n_plus, n_minus, n_zero),
        kernel=tuple(kernel),
        renormalized=any(s.renorm_power or s.has_slopes() for s in states),
    )


def gram(lattice: SectorLattice, charge) -> GramResult:
    """Gram data of the charge block addressed by a rational charge.

    The block is the set of nodes whose charge has the given constant
    part; within one lattice the deformation slope is uniform, so this
    addressing is unambiguous (ambiguity raises DomainError).
    """
    q = _as_fraction(charge)
    matched = []
    keys = set()
    for node in lattice.nodes:
        if node.charge is None:
            continue
        const = node.charge.coeff(0).as_fraction()
        if const == q:
            matched.append(node.index)
            keys.add(node.charge.sort_key())
    if not matched:
        raise DomainError("no nodes with charge %s" % q)
    if len(keys) > 1:
        raise DomainError(
            "charge %s is ambiguous in this lattice: several eps-dependent "
            "charges share that constant part" % q
        )
    full = lattice.nodes[matched[0]].charge
    return _block_result(lattice, full, matched)


@dataclass(frozen=True)
class QuotientReport:
    dim_total: int
    dim_null: int
    blocks: tuple  # of GramResult


def quotient_report(lattice: SectorLattice) -> QuotientReport:
    """Null content of every charge block.

    The pairing never mixes distinct charges, so the radical of the full
    Gram form is the direct sum of the blockwise kernels; the quotient
    dimension is dim_total - dim_null.
    """
    groups: dict = {}
    order = []
    for node in lattice.nodes:
        if node.charge is None:
            raise DomainError(
                "node %d has no charge eigenvalue; quotient analysis needs "
                "charge-homogeneous nodes" % node.index
            )
        k = node.charge.sort_key()
        if k not in groups:
            groups[k] = (node.charge, [])
            order.append(k)
        groups[k][1].append(node.index)
    blocks = []
    for k in sorted(order):
        charge, indices = groups[k]
        blocks.append(_block_result(lattice, charge, indices))
    dim_total = len(lattice.nodes)
    dim_null = sum(b.signature[2] for b in blocks)
    return QuotientReport(dim_total=dim_total, dim_null=dim_null, blocks=tuple(blocks))


def classify_limit(s: State2D) -> str:
    """Behaviour of a deformed state as the regulator is removed.

    "singular" when the termwise limit exists but its plain squared norm
    hits a gamma pole; "ordinary" otherwise (a vanishing limit counts as
    ordinary).  Requires a deformed state.
    """
    if not s.has_slopes():
        raise DomainError("classification applies to eps-deformed states")
    lim = s.limit_eps0()
    if lim.is_zero():
        return "ordinary"
    try:
        inner_2d(lim, lim)
    except PoleError:
        return "singular"
    return "ordinary"


# ---------------------------------------------------------------------------
# dark sector scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DarkEntry:
    monomial: str
    node_a: int
    node_b: int
    value: GradedScalar | None
    note: str = ""


@dataclass(frozen=True)
class DarkReport:
    is_dark: bool
    max_degree: int
    nodes_a: int
    nodes_b: int
    monomials: int
    pairs_checked: int
    entries: tuple


def _word_text(w) -> str:
    return " ".join(w) if w else "1"


def _ladder_algebra() -> tuple:
    """(charge shift of each generator, ordered pairs of generators that commute)."""
    shifts = {}
    for g, d in _ladder_shifts("Q").items():
        assert d.denominator == 1, "%s shifts charges by a fraction" % g
        shifts[g] = int(d)
    ops = _gen_ops()
    commuting = set()
    for g, h in combinations(ops, 2):
        if commutator_2d(ops[g], ops[h]).is_zero():
            commuting |= {(g, h), (h, g)}
    return shifts, frozenset(commuting)


def _normal_form(word, commuting) -> tuple:
    """The lexicographically least word equal to ``word`` under commuting swaps.

    Greedy: the next letter is the least one that commutes with every
    letter before it.
    """
    rest = list(word)
    out = []
    while rest:
        movable = [k for k, g in enumerate(rest) if all((h, g) in commuting for h in rest[:k])]
        out.append(rest.pop(min(movable, key=lambda k: _GEN_RANK[rest[k]])))
    return tuple(out)


@functools.cache
def _scan_words(max_degree: int) -> tuple:
    """(word, its normal form, its charge shift) for every word up to max_degree.

    Words come in scan order: by degree, then lexicographically in
    GENERATOR_ORDER, so a normal form precedes the rest of its class.
    """
    shifts, commuting = _ladder_algebra()
    return tuple(
        (word, _normal_form(word, commuting), sum(shifts[g] for g in word))
        for degree in range(max_degree + 1)
        for word in product(GENERATOR_ORDER, repeat=degree)
    )


def dark_check(a: SectorLattice, b: SectorLattice, max_degree: int = 4) -> DarkReport:
    """Test every <node of a, M (node of b)> element for vanishing.

    M runs over the monomials of degree up to max_degree in the four
    ladder generators (the identity included), modelling a polynomial
    interaction term.  The pair of sectors is dark when every
    renormalized element is exactly zero; the report lists only the
    nonzero survivors, word by word in lexicographic order of
    GENERATOR_ORDER, then by node of a and node of b.  Charge
    superselection prunes the scan: a pair whose charge supports are
    disjoint vanishes without evaluation.  Pairings without a finite
    renormalized value (surviving pole, or a bare gamma pole with no
    regulator) are recorded as obstructions and count as non-dark.

    Two facts of the algebra keep the scan small without changing the
    report:

    * Charge reachability.  Each generator shifts the charge of every
      monomial by the same integer (b_pp +1, b_pm -1, b_mp -1, b_mm +1)
      and keeps the eps slopes, so a word w of degree d with total shift
      sigma(w) maps a charge (c, s) of node j to (c + sigma(w), s).  The
      image of node j under w is built only when some charge (c, s) of j
      and some charge (c', s) of sector a leave t = c' - c - sigma(w) an
      integer with |t| <= max_degree - d, and then only when a pairing
      needs it (t = 0 for w or for an extension of w).
    * Commutation classes.  [b_pp, b_pm] = [b_mp, b_mm] = [b_pm, b_mp] =
      [b_pp, b_mm] = 0, so words that differ by swapping such neighbours
      are one operator.  Only the lexicographically least word of each
      class is extended and evaluated; the others repeat its pairs and
      entries under their own text.

    Before any image is built, the images and pair evaluations that the
    reachability rule predicts are counted; a scan above MAX_DARK_WORK
    raises DepthExceeded.
    """
    max_degree = int(max_degree)
    if max_degree < 0 or max_degree > MAX_DARK_DEGREE:
        raise DomainError("max_degree must be between 0 and %d" % MAX_DARK_DEGREE)
    states_a = [n.state for n in a.nodes]
    states_b = [n.state for n in b.nodes]
    charges_a = [frozenset(s.charges()) for s in states_a]
    charges_b = [s.charges() for s in states_b]
    # offsets[i][j]: the word shifts that carry a charge of node j of b
    # onto a charge of node i of a
    offsets = [
        [
            {
                int(t)
                for t in (qa - qb for qa, sa in ca for qb, sb in cb if sa == sb)
                if t.denominator == 1
            }
            for cb in charges_b
        ]
        for ca in charges_a
    ]
    reach = [set().union(*(row[j] for row in offsets)) for j in range(len(states_b))]

    words = _scan_words(max_degree)
    # (degree, shift) -> number of normal forms
    classes = Counter((len(word), shift) for word, canon, shift in words if word == canon)
    hits = Counter(t for row in offsets for cell in row for t in cell)
    n_images = n_evaluations = 0
    for (degree, shift), n in classes.items():
        n_evaluations += n * hits[shift]
        if degree:
            left = max_degree - degree
            n_images += n * sum(any(abs(t - shift) <= left for t in r) for r in reach)
    if n_images + n_evaluations > MAX_DARK_WORK:
        raise DepthExceeded(
            "dark scan predicts %d word images and %d pair evaluations, above the "
            "budget of %d; lower the degree or the sector depth"
            % (n_images, n_evaluations, MAX_DARK_WORK)
        )

    built = {((), j): s for j, s in enumerate(states_b)}

    def image(word, j):
        # extend the longest prefix already built; prefixes of a normal
        # form are normal forms
        k = len(word)
        while (word[:k], j) not in built:
            k -= 1
        img = built[word[:k], j]
        for m in range(k, len(word)):
            img = built[word[: m + 1], j] = ladder_image(word[m], img)
        return img

    found = {}  # normal form -> (pairs checked, [(node a, node b, value, note)])
    entries = []
    pairs = 0
    for word, canon, shift in words:
        if canon not in found:  # the first word of its class is its normal form
            images = {j: image(word, j) for j, r in enumerate(reach) if shift in r}
            image_charges = {
                j: frozenset(img.charges()) for j, img in images.items() if not img.is_zero()
            }
            n = 0
            survivors = []
            for i, sa in enumerate(states_a):
                for j, qb in image_charges.items():
                    if not charges_a[i] & qb:
                        continue
                    n += 1
                    try:
                        v = renorm_inner(sa, images[j])
                    except NotConvergent:
                        survivors.append((i, j, None, "divergent"))
                        continue
                    except PoleError:
                        survivors.append((i, j, None, "gamma-pole"))
                        continue
                    if v:
                        survivors.append((i, j, v, ""))
            found[canon] = (n, survivors)
        n, survivors = found[canon]
        pairs += n
        text = _word_text(word)
        entries += [DarkEntry(text, i, j, v, note) for i, j, v, note in survivors]
    return DarkReport(
        is_dark=not entries,
        max_degree=max_degree,
        nodes_a=len(states_a),
        nodes_b=len(states_b),
        monomials=len(words),
        pairs_checked=pairs,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# identity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of one audited relation.

    residual is the exact text of (lhs - rhs); "0" exactly when the
    relation holds.  corrected_form, when present, is a replacement
    right-hand side that does hold; where the operators have expression
    names it is written in that syntax so it can be re-evaluated.
    """

    identity_id: str
    lhs: str
    rhs: str
    status: str
    residual: str = "0"
    corrected_form: str | None = None

    @property
    def holds(self) -> bool:
        return self.status == "PASS"


_PROBE_GRID = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(2)),
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(-3, 2), Fraction(0)),
    (Fraction(-2), Fraction(3)),
    (Fraction(5, 2), Fraction(-1, 2)),
)


# The operator relations the audit checks, in verdict order: (id, the
# (lhs, rhs) pairs in the expression language, the corrected form of a
# relation that fails).  Each pair is checked by building lhs - (rhs).
_RELATIONS = (
    ("plus-ladder-commutator", (("[b-+, b++]", "1"),)),
    ("minus-ladder-commutator", (("[b--, b+-]", "1"),)),
    (
        "cross-ladder-commutators",
        (("[b-+, b+-]", "0"), ("[b--, b++]", "0"), ("[b++, b+-]", "0"), ("[b-+, b--]", "0")),
    ),
    (
        "hamiltonian-ladder-action",
        (("[H, b++]", "b++"), ("[H, b+-]", "b+-"), ("[H, b-+]", "-b-+"), ("[H, b--]", "-b--")),
    ),
    (
        "charge-ladder-action",
        (("[Q, b++]", "b++"), ("[Q, b+-]", "-b+-"), ("[Q, b-+]", "-b-+"), ("[Q, b--]", "b--")),
    ),
    ("charge-hamiltonian-commute", (("[Q, H]", "0"),)),
    (
        "hamiltonian-bilinear-form",
        (("H", "1/2 (b++ b-+ + b+- b--) + 1"),),
        "b++ b-+ + b+- b-- + 1",
    ),
    ("charge-bilinear-form", (("Q", "1/2 (b++ b-+ - b+- b--)"),), "b++ b-+ - b+- b--"),
    # the line algebra factorizations at the two distinguished couplings
    ("line-factorization-alpha-plus", (("a+@1 a-@1", "H1 + 1/2"),)),
    ("line-factorization-alpha-minus", (("a+@-2 a-@-2", "H1 - 5/2"),)),
)


def identity_audit() -> tuple:
    """Re-derive the structural relations and report a verdict for each.

    All checks are exact.  A failed claim carries the residual
    (claim LHS minus claim RHS) and, where one exists, the corrected
    relation that does hold.
    """
    verdicts: list[IdentityVerdict] = []

    def verdict(id_, lhs_text, rhs_text, cases, corrected=None):
        # cases: (label, residual) pairs; the relation holds when all vanish
        bad = [label + r.text() for label, r in cases if not r.is_zero()]
        verdicts.append(
            IdentityVerdict(
                identity_id=id_,
                lhs=lhs_text,
                rhs=rhs_text,
                status="FAIL" if bad else "PASS",
                residual="; ".join(bad) if bad else "0",
                corrected_form=corrected if bad else None,
            )
        )

    def relation(id_, pairs, corrected=None):
        lhs, rhs = zip(*pairs)
        rhs_text = rhs[0] if len(set(rhs)) == 1 else ", ".join(rhs)
        cases = [("", build_from_text("%s - (%s)" % pair)[1]) for pair in pairs]
        verdict(id_, ", ".join(lhs), rhs_text, cases, corrected)

    def probe(checks):
        # (label, operator, closed form) on each probe-grid monomial Om(lam, mu);
        # a closed form gives the image as (coeff, lam', mu') terms
        return [
            (
                label + "at (%s,%s): " % (lam, mu),
                apply_2d(build_op_2d(name), omega(lam, mu))
                - State2D([((lam2, 0, mu2, 0), c) for c, lam2, mu2 in closed(lam, mu)]),
            )
            for lam, mu in _PROBE_GRID
            for label, name, closed in checks
        ]

    for rel in _RELATIONS[:8]:  # the planar ones
        relation(*rel)
    for gen_name, g, tag in (("b-+", "b_mp", "plus"), ("b--", "b_mm", "minus")):
        cases = [("", apply_2d(build_op_2d(g), psi0()))]
        verdict("vacuum-annihilation-%s" % tag, "%s Psi0" % gen_name, "0", cases)

    verdict(
        "hamiltonian-closed-action",
        "H Om(lam,mu)",
        "(lam+mu+1) Om(lam,mu) - 2 lam mu Om(lam-1,mu-1)",
        # the second term's zero coefficient drops out of the State2D when lam mu = 0
        probe(
            [("", "H", lambda lam, mu: ((lam + mu + 1, lam, mu), (-2 * lam * mu, lam - 1, mu - 1)))]
        ),
    )
    verdict(
        "charge-closed-action",
        "Q Om(lam,mu)",
        "(mu-lam) Om(lam,mu)",
        probe([("", "Q", lambda lam, mu: ((mu - lam, lam, mu),))]),
    )
    verdict(
        "ladder-closed-action",
        "b Om(lam,mu) for each ladder generator b",
        "the two-branch exponent-shift closed form",
        probe([(g + " ", g, functools.partial(ladder_closed_form, g)) for g in GENERATOR_ORDER]),
    )

    # each line factorization, then the vacuum of its coupling
    line_couplings = ((Fraction(1), "plus"), (Fraction(-2), "minus"))
    for rel, (alpha, tag) in zip(_RELATIONS[8:], line_couplings):
        relation(*rel)
        cases = [("", apply_1d(build_op_1d("a_minus", alpha), solve_vacuum_1d(alpha)))]
        lhs = "a-@%s vacuum(alpha=%s)" % (alpha, alpha)
        verdict("line-vacuum-annihilation-alpha-%s" % tag, lhs, "0", cases)

    return tuple(verdicts)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

EXPORT_FORMATS = ("dot", "json", "csv")


def _sorted_nodes(lattice: SectorLattice):
    def key(n: Node):
        e = n.energy.sort_key() if n.energy is not None else None
        q = n.charge.sort_key() if n.charge is not None else None
        return (e is None or q is None, e or (), q or (), n.index)

    return sorted(lattice.nodes, key=key)


def _sorted_edges(lattice: SectorLattice):
    return sorted(lattice.edges, key=lambda e: (e.src, e.dst, _GEN_RANK[e.generator]))


def lattice_export(lattice: SectorLattice, fmt: str) -> str:
    """Serialize the lattice deterministically as dot, json, or csv."""
    if fmt == "dot":
        lines = ["digraph sector {"]
        lines.append('  rankdir="BT";')
        for n in _sorted_nodes(lattice):
            lines.append('  n%d [label="%d: %s"];' % (n.index, n.index, n.label()))
        for e in _sorted_edges(lattice):
            lines.append(
                '  n%d -> n%d [label="%s: %s"];'
                % (e.src, e.dst, e.generator, e.coeff_text())
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "seed": lattice.seed_text,
            "generators": list(lattice.generators),
            "depth": lattice.depth,
            "nodes": [
                {
                    "index": n.index,
                    "depth": n.depth,
                    "energy": None if n.energy is None else eps_to_json(n.energy),
                    "charge": None if n.charge is None else eps_to_json(n.charge),
                    "state": state2d_to_json(n.state),
                }
                for n in _sorted_nodes(lattice)
            ],
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "generator": e.generator,
                    "num": eps_to_json(e.num),
                    "den": eps_to_json(e.den),
                }
                for e in _sorted_edges(lattice)
            ],
            "warnings": list(lattice.warnings),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["kind", "index", "depth", "energy", "charge", "src", "dst", "generator", "num", "den"]
        )
        for n in _sorted_nodes(lattice):
            w.writerow(
                [
                    "node",
                    n.index,
                    n.depth,
                    _eps_text(n.energy),
                    _eps_text(n.charge),
                    "",
                    "",
                    "",
                    "",
                    "",
                ]
            )
        for e in _sorted_edges(lattice):
            w.writerow(
                ["edge", "", "", "", "", e.src, e.dst, e.generator, e.num.text(), e.den.text()]
            )
        return buf.getvalue()
    raise UnsupportedFormat(
        "unsupported export format %r; choose from %s" % (fmt, ", ".join(EXPORT_FORMATS))
    )


def _field(item, key: str, kind: type):
    """item[key], which must be of exactly this JSON type (so a bool is no int)."""
    v = item[key]
    if type(v) is not kind:
        raise DomainError("sector document field %r must be %s, got %r" % (key, kind.__name__, v))
    return v


def lattice_from_json(payload) -> SectorLattice:
    """Rebuild a lattice from its json export."""
    if not isinstance(payload, dict):
        raise DomainError("sector document must be a JSON object")
    try:
        seed_text = _field(payload, "seed", str)
        generators = tuple(_field(payload, "generators", list))
        depth = _field(payload, "depth", int)
        nodes_raw = payload["nodes"]
        edges_raw = payload["edges"]
    except (KeyError, TypeError) as exc:
        raise DomainError("malformed sector document: %s" % exc)
    for g in generators:
        if g not in GENERATOR_ORDER:
            raise DomainError("unknown generator %r in sector document" % g)
    try:
        nodes = [
            Node(
                index=_field(item, "index", int),
                state=state2d_from_json(item["state"]),
                energy=None if item["energy"] is None else eps_from_json(item["energy"]),
                charge=None if item["charge"] is None else eps_from_json(item["charge"]),
                depth=_field(item, "depth", int),
            )
            for item in nodes_raw
        ]
        edges = [
            Edge(
                src=_field(item, "src", int),
                dst=_field(item, "dst", int),
                generator=_field(item, "generator", str),
                num=eps_from_json(item["num"]),
                den=eps_from_json(item["den"]),
            )
            for item in edges_raw
        ]
    except (KeyError, TypeError) as exc:
        raise DomainError("malformed sector document: %s" % exc)
    if not nodes:
        raise DomainError("sector document has no nodes")
    nodes.sort(key=lambda n: n.index)
    if [n.index for n in nodes] != list(range(len(nodes))):
        raise DomainError("sector document node indices must be 0..n-1")
    for e in edges:
        if not (0 <= e.src < len(nodes) and 0 <= e.dst < len(nodes)):
            raise DomainError("sector document edge endpoint out of range")
        if e.generator not in GENERATOR_ORDER:
            raise DomainError("unknown generator %r in sector document" % e.generator)
    warnings = payload.get("warnings", [])
    if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
        raise DomainError("sector document warnings must be a list of strings")
    return SectorLattice(
        seed_text=seed_text,
        generators=generators,
        depth=depth,
        nodes=tuple(nodes),
        edges=tuple(edges),
        warnings=tuple(warnings),
    )
