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
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .algebra1d import _COUPLINGS, _known, apply_1d, build_op_1d, solve_vacuum_1d
from .algebra2d import (
    State2D,
    _LADDER,
    apply_2d,
    build_op_2d,
    closed_form,
    eigencheck_2d,
    inner_2d,
    ladder_image,
    omega,
    psi0,
    renorm_inner,
    states_proportional,
)
from .errors import DepthExceeded, DomainError, NotConvergent, PoleError, UnsupportedFormat
from .jsonio import dumps, eps_from_json, eps_to_json, state2d_from_json, state2d_to_json
from .opexpr import build_from_text
from .scalars import (
    GS_ZERO,
    EpsScalar,
    GradedScalar,
    _as_count,
    _as_fraction,
    _HALF,
    scalar_sign,
)

GENERATOR_ORDER = tuple(_LADDER)

MAX_DEPTH = 16
MAX_DARK_DEGREE = 6

# Node budget of one sector closure.  Closure and eigenvalues cost 0.3-3 ms
# per node, and an omega seed under all four generators grows fast
# (omega:1/2,3: 652 nodes at depth 6, 2803 at depth 8).  The presets stay
# below it at every depth up to MAX_DEPTH (289 nodes at most).
MAX_SECTOR_NODES = 1000

# Work budget of one dark scan: the word images plus the pair evaluations
# that charge reachability predicts before any image is built (see
# dark_check).  The largest scans in use, vacuum@3 x vacuum@3 at degree 4
# and 5, predict 2722 and 6162; a unit costs 0.03-0.2 ms, so an accepted
# scan ends within about 3 s.
MAX_DARK_WORK = 12_000

# Work budget of one Gram analysis, predicted before any pairing: n(n+1)/2
# pairings plus ~n^3 elimination steps per charge block of n nodes.  The
# presets at MAX_DEPTH predict 43690 at most, omega:1/2,3 at depth 4 74451
# (0.6 s) and at depth 5 760298 (~2 s).
MAX_GRAM_WORK = 100_000


def _gen_ops() -> dict:
    return {g: build_op_2d(g) for g in GENERATOR_ORDER}


def _ladder_shifts(name: str) -> dict:
    """{generator: d} with [op, b] = d b, for op = H or Q, from _LADDER.

    So op (b s) = (e + d) (b s) whenever op s = e s.  Q is diagonal on
    monomials, so b also moves the charge -L + M of every monomial by its
    Q shift.  The identity audit checks both columns.
    """
    return {g: row.dE if name == "H" else row.dQ for g, row in _LADDER.items()}


@functools.cache
def _lifted_shifts(name: str) -> dict:
    """_ladder_shifts(name) as EpsScalars, lifted once for closure's eigenvalue sums."""
    return {g: EpsScalar.of(d) for g, d in _ladder_shifts(name).items()}


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
    from the ladder table algebra2d._LADDER: [H, b] = dE(b) b and
    [Q, b] = dQ(b) b for each generator b, so a node discovered as b s
    from a parent s with H s = E s has H (b s) = (E + dE(b)) (b s), and
    likewise for Q; the monic rescaling keeps this.  The seed, and any
    node whose parent has no eigenvalue of that operator, goes through
    eigencheck_2d, which reads the images of H and Q from their closed
    forms and applies no operator (the children of a non-eigenstate can
    still be eigenstates).  A node failing either check is kept and
    reported in the lattice warnings.

    ``depth`` must be an int (not a bool), ``generators`` a collection
    of generator names (not one bare name); DomainError otherwise.
    """
    if _as_count(depth, "depth") < 0 or depth > MAX_DEPTH:
        raise DomainError("depth must be between 0 and %d" % MAX_DEPTH)
    if (
        isinstance(generators, str)
        or not isinstance(generators, Collection)
        or not all(isinstance(g, str) for g in generators)
    ):
        raise DomainError("generators must be a collection of names, got %r" % (generators,))
    names = set(generators)
    gens = tuple(g for g in GENERATOR_ORDER if g in names)
    if len(gens) != len(names):
        bad = sorted(names - set(GENERATOR_ORDER))
        raise DomainError("unknown generator(s): %s" % ", ".join(bad))
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

    energies, charges, warnings = [], [], []
    checks = (
        (build_op_2d("H"), _lifted_shifts("H"), energies, "an energy"),
        (build_op_2d("Q"), _lifted_shifts("Q"), charges, "a charge"),
    )
    for i, (s, (p, g)) in enumerate(zip(states, parents)):
        for op, shifts, values, what in checks:
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


# Tower generator sets, and the named towers: name -> (seed, seed text,
# generators).  The vacuum tower is closed under the two raising operators
# alone; a tower seeded on a power of zbar (of z) adds the one lowering
# operator that moves that exponent.
TOWERS = {
    "vacuum": ("b_pp", "b_pm"), "zbar": ("b_pp", "b_pm", "b_mm"), "z": ("b_pp", "b_pm", "b_mp")
}
_PRESETS = {
    "vacuum": (psi0(), "psi0", TOWERS["vacuum"]),
    "half-zbar": (omega(_HALF, 0), "omega:1/2,0", TOWERS["zbar"]),
    "half-z": (omega(0, _HALF), "omega:0,1/2", TOWERS["z"]),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_sector(name: str, depth: int = 2) -> SectorLattice:
    name = _known(name, _PRESETS, "unknown preset %r; choose from " + ", ".join(PRESET_NAMES))
    seed, seed_text, gens = _PRESETS[name]
    return generate_sector(seed, gens, depth, seed_text=seed_text)


def eps_sector(lam_const, depth: int = 2) -> SectorLattice:
    """Deformed tower seeded on zbar^(lam_const + eps), renormalized pairing."""
    seed = omega(_as_fraction(lam_const), 0, lam_slope=1).with_renorm(_HALF)
    text = "eps:%s" % _as_fraction(lam_const)
    return generate_sector(seed, TOWERS["zbar"], depth, seed_text=text)


def eps_conj_sector(mu_const, depth: int = 2) -> SectorLattice:
    """Mirror deformation on the z exponent."""
    seed = omega(0, _as_fraction(mu_const), mu_slope=1).with_renorm(_HALF)
    text = "eps-conj:%s" % _as_fraction(mu_const)
    return generate_sector(seed, TOWERS["z"], depth, seed_text=text)


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

    A block whose entries are all rational multiples of one unit
    u = 2^(j/2) pi^(k/2) is mat = B t with B an integer matrix and
    t = u/L, L the lcm of the denominators.  Then the elimination runs
    on the ints of B: column c of E carries t^e_c, entry (r, c) carries
    t^(e_r + e_c + 1) (an op on column j by pivot i adds 2 e_i + 1 to
    e_j), and the values come back as monomials.  Any other block, or a
    zero-pivot repair that would add columns of unequal power of a t
    other than 1, runs on the GradedScalar entries.
    """
    grades = {g for row in mat for x in row for g in x._terms}
    if len(grades) <= 1 and all(len(x._terms) <= 1 for row in mat for x in row):
        j, k = grades.pop() if grades else (0, 0)
        den = lcm(*(x._terms[j, k].denominator for row in mat for x in row if x))
        ints = [[int(den * x._terms[j, k]) if x else 0 for x in row] for row in mat]
        out = _eliminate(ints, 1, strict=(j, k, den) != (0, 0, 1))
        if out is not None:
            diag, ecols, powers = out

            def lift(v, e):
                return GradedScalar.monomial(Fraction(v, den**e), j * e, k * e) if v else GS_ZERO

            diag = tuple(lift(d, 2 * e + 1) for d, e in zip(diag, powers))
            return diag, [[lift(v, e) for v in col] for col, e in zip(ecols, powers)]
    return _eliminate([list(row) for row in mat], GradedScalar.one())[:2]


def _eliminate(m, one, strict=False):
    """Division-free congruence of the symmetric matrix m (changed in place).

    Entries are ints or GradedScalars, and ``one`` is their 1.  Returns
    (diagonal, transform columns, powers): powers[c] is the power of t
    that column c carries (see _congruence_diagonalize).  When
    ``strict``, a repair that would add columns of unequal power returns
    None.
    """
    n = len(m)
    ecols = [[one if r == c else one * 0 for r in range(n)] for c in range(n)]
    powers = [0] * n

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
        powers[i], powers[j] = powers[j], powers[i]

    for i in range(n):
        if not m[i][i]:
            swap = next((j for j in range(i + 1, n) if m[j][j]), None)
            if swap is not None:
                col_swap(i, swap)
            else:
                off = next((j for j in range(i + 1, n) if m[i][j]), None)
                if off is None:
                    continue  # fully split off: null direction
                if strict and powers[i] != powers[off]:
                    return None
                col_op(i, 1, -1, off)  # col_i <- col_i + col_off
        p = m[i][i]
        for j in range(i + 1, n):
            a = m[i][j]
            if a:
                col_op(j, p, a, i)
                powers[j] += 2 * powers[i] + 1
    return tuple(m[i][i] for i in range(n)), ecols, powers


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


def _analyse(lattice, blocks) -> list:
    """GramResults of the (charge, node indices) blocks, within MAX_GRAM_WORK."""
    work = sum(len(ix) * (len(ix) + 1) // 2 + len(ix) ** 3 for _, ix in blocks)
    if work > MAX_GRAM_WORK:
        raise DepthExceeded(
            "gram analysis predicts %d units of pairing and elimination, above the "
            "budget of %d; lower the depth" % (work, MAX_GRAM_WORK)
        )
    return [_block_result(lattice, charge, indices) for charge, indices in blocks]


def gram(lattice: SectorLattice, charge) -> GramResult:
    """Gram data of the charge block addressed by a rational charge.

    The block is the set of nodes whose charge has the given constant
    part; within one lattice the deformation slope is uniform, so this
    addressing is unambiguous (ambiguity raises DomainError).
    """
    q = _as_fraction(charge)
    matched = [
        n for n in lattice.nodes if n.charge is not None and n.charge.coeff(0).as_fraction() == q
    ]
    if not matched:
        raise DomainError("no nodes with charge %s" % q)
    if len({n.charge.sort_key() for n in matched}) > 1:
        raise DomainError(
            "charge %s is ambiguous in this lattice: several eps-dependent "
            "charges share that constant part" % q
        )
    return _analyse(lattice, [(matched[0].charge, [n.index for n in matched])])[0]


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
    groups: dict = {}  # charge sort key -> (charge, node indices)
    for node in lattice.nodes:
        if node.charge is None:
            raise DomainError(
                "node %d has no charge eigenvalue; quotient analysis needs "
                "charge-homogeneous nodes" % node.index
            )
        groups.setdefault(node.charge.sort_key(), (node.charge, []))[1].append(node.index)
    blocks = _analyse(lattice, [groups[k] for k in sorted(groups)])
    dim_null = sum(b.signature[2] for b in blocks)
    return QuotientReport(dim_total=len(lattice.nodes), dim_null=dim_null, blocks=tuple(blocks))


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
    """(charge shift of each generator, ordered pairs of generators that commute), from _LADDER."""
    conjugate = {(g, row.conj) for g, row in _LADDER.items() if row.conj}
    conjugate |= {(c, g) for g, c in conjugate}
    commuting = frozenset((g, h) for g in _LADDER for h in _LADDER if g != h) - conjugate
    return _ladder_shifts("Q"), commuting


def _operator_key(word) -> tuple:
    """Equal for two words exactly when they are one operator, read from _LADDER.

    Each raising b acts as x and its conjugate c ([c, b] = 1) as d/dx, and
    the pairs commute: with h = #b - #c so far in application order, a word
    sends x^n to x^(n + final h) times the product of (n + h) at its c letters.
    """
    key = []
    for b, c in ((b, row.conj) for b, row in _LADDER.items() if row.conj):
        h, at = 0, []
        for g in word:
            if g == c:
                at.append(h)
            h += (g == b) - (g == c)
        key.append((h, tuple(sorted(at))))
    return tuple(key)


@functools.cache
def _scan_words(max_degree: int) -> tuple:
    """(word, the first word of its operator class, its charge shift) up to max_degree.

    Words come in scan order (by degree, then lexicographically in
    GENERATOR_ORDER), so every prefix of a first word is a first word.
    """
    shifts, first = _ladder_shifts("Q"), {}
    return tuple(
        (word, first.setdefault(_operator_key(word), word), sum(shifts[g] for g in word))
        for degree in range(max_degree + 1)
        for word in product(GENERATOR_ORDER, repeat=degree)
    )


@functools.cache
def _scan_classes(max_degree: int) -> Counter:
    """(degree, charge shift) -> number of operator classes, from _scan_words."""
    return Counter((len(w), shift) for w, canon, shift in _scan_words(max_degree) if w == canon)


def _offsets(states_a, states_b) -> list:
    """offsets[i][j]: the word shifts that carry a charge of node j of b onto one of node i of a.

    Read off the charge keys (numerator, denominator, slope) of the states'
    pairing indices: two charges differ by an integer only over one denominator.
    """
    keys_b = [s._pairing()[1].keys() for s in states_b]
    return [
        [
            {(na - nb) // d for na, d, sa in ka for nb, db, sb in kb
             if db == d and sb == sa and not (na - nb) % d}
            for kb in keys_b
        ]
        for ka in (s._pairing()[1].keys() for s in states_a)
    ]


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
      monomial by the same integer, its dQ in algebra2d._LADDER, and
      keeps the eps slopes, so a word w of degree d with total shift
      sigma(w) maps a charge (c, s) of node j to (c + sigma(w), s).  The
      image of node j under w is built only when some charge (c, s) of j
      and some charge (c', s) of sector a leave t = c' - c - sigma(w) an
      integer with |t| <= max_degree - d, and then only when a pairing
      needs it (t = 0 for w or for an extension of w).
    * Operator classes.  Words with one _operator_key are one operator;
      only the first of each class in scan order is extended and
      evaluated, and the others repeat its pairs and entries under their
      own text.

    Before any image is built, the images and pair evaluations that the
    reachability rule predicts are counted; a scan above MAX_DARK_WORK
    raises DepthExceeded.
    """
    if _as_count(max_degree, "max_degree") < 0 or max_degree > MAX_DARK_DEGREE:
        raise DomainError("max_degree must be between 0 and %d" % MAX_DARK_DEGREE)
    states_a = [n.state for n in a.nodes]
    states_b = [n.state for n in b.nodes]
    offsets = _offsets(states_a, states_b)
    reach = [set().union(*(row[j] for row in offsets)) for j in range(len(states_b))]

    words = _scan_words(max_degree)
    classes = _scan_classes(max_degree)
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
        # extend the longest prefix already built; prefixes of first words are first words
        k = len(word)
        while (word[:k], j) not in built:
            k -= 1
        img = built[word[:k], j]
        for m in range(k, len(word)):
            img = ladder_image(word[m], img)
            if m + 1 < max_degree:  # a full-degree image is never extended: let it go
                built[word[: m + 1], j] = img
        return img

    found = {}  # first word of a class -> (pairs checked, [(node a, node b, value, note)])
    entries = []
    pairs = 0
    for word, canon, shift in words:
        if canon not in found:  # word is the first of its class
            images = {j: image(word, j) for j, r in enumerate(reach) if shift in r}
            # charge supports as the pairing index's keys, which the pairing then reads
            image_keys = {j: img._pairing()[1] for j, img in images.items() if not img.is_zero()}
            n = 0
            survivors = []
            for i, sa in enumerate(states_a):
                for j, kb in image_keys.items():
                    if kb.keys().isdisjoint(sa._pairing()[1]):
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


def _raising() -> dict:
    """{tag: generator} for the raising rows of _LADDER, tagged plus and minus."""
    return dict(zip(("plus", "minus"), (g for g, row in _LADDER.items() if row.conj)))


def _ladder_relations() -> tuple:
    """The rows of _RELATIONS that restate _LADDER, written from it.

    The cross row lists each lowering generator with the raising one it
    commutes with, then the raising pair, then the lowering pair.
    """
    name = {g: row.name for g, row in _LADDER.items()}
    raising = list(_raising().values())
    lowering = [g for g in _LADDER if g not in raising]
    pairs = [(g, h) for g in lowering for h in raising] + [tuple(raising), tuple(lowering)]
    _, commuting = _ladder_algebra()
    rows = [
        ("%s-ladder-commutator" % tag, (("[%s, %s]" % (name[_LADDER[g].conj], name[g]), "1"),))
        for tag, g in _raising().items()
    ]
    cross = tuple(("[%s, %s]" % (name[g], name[h]), "0") for g, h in pairs if (g, h) in commuting)
    rows.append(("cross-ladder-commutators", cross))
    for id_, op in (("hamiltonian-ladder-action", "H"), ("charge-ladder-action", "Q")):
        # d b, with a coefficient of 1 or -1 written as a sign
        action = [(g, {1: "", -1: "-"}.get(d, "%s " % d)) for g, d in _ladder_shifts(op).items()]
        rows.append((id_, tuple(("[%s, %s]" % (op, name[g]), c + name[g]) for g, c in action)))
    return tuple(rows)


def _line_relations() -> tuple:
    """The line factorization rows of _RELATIONS, written from _COUPLINGS."""
    return tuple(
        (
            "line-factorization-alpha-%s" % tag,
            (("a+@%s a-@%s" % (a, a), "H1 %s %s" % ("-+"[c > 0], abs(c))),),
        )
        for a, (tag, c) in _COUPLINGS.items()
    )


# The operator relations the audit checks, in verdict order: (id, the
# (lhs, rhs) pairs in the expression language, the corrected form of a
# relation that fails).  Each pair is checked by building lhs - (rhs).
# The first five restate _LADDER and the last two _COUPLINGS;
# identity_audit writes those afresh.
_RELATIONS = _ladder_relations() + (
    ("charge-hamiltonian-commute", (("[Q, H]", "0"),)),
    (
        "hamiltonian-bilinear-form",
        (("H", "1/2 (b++ b-+ + b+- b--) + 1"),),
        "b++ b-+ + b+- b-- + 1",
    ),
    ("charge-bilinear-form", (("Q", "1/2 (b++ b-+ - b+- b--)"),), "b++ b-+ - b+- b--"),
) + _line_relations()


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
        # (label, operator name) on each probe-grid monomial Om(lam, mu),
        # against the image terms of its closed form
        return [
            (
                label + "at (%s,%s): " % (lam, mu),
                apply_2d(build_op_2d(name), omega(lam, mu))
                - State2D([((lam2, 0, mu2, 0), c) for c, lam2, mu2 in closed_form(name, lam, mu)]),
            )
            for lam, mu in _PROBE_GRID
            for label, name in checks
        ]

    ladder, line = _ladder_relations(), _line_relations()
    for rel in ladder + _RELATIONS[len(ladder) : -len(line)]:  # the planar ones
        relation(*rel)
    for tag, g in _raising().items():
        c = _LADDER[g].conj
        cases = [("", apply_2d(build_op_2d(c), psi0()))]
        verdict("vacuum-annihilation-%s" % tag, "%s Psi0" % _LADDER[c].name, "0", cases)

    for id_, name, rhs in (
        ("hamiltonian-closed-action", "H", "(lam+mu+1) Om(lam,mu) - 2 lam mu Om(lam-1,mu-1)"),
        ("charge-closed-action", "Q", "(mu-lam) Om(lam,mu)"),
    ):
        # a zero lowering coefficient drops out of the State2D when lam mu = 0
        cases = probe([("", name)])
        verdict(id_, "%s Om(lam,mu)" % name, rhs, cases)
    verdict(
        "ladder-closed-action",
        "b Om(lam,mu) for each ladder generator b",
        "the two-branch exponent-shift closed form",
        probe([(g + " ", g) for g in GENERATOR_ORDER]),
    )

    # each line factorization, then the vacuum of its coupling
    for rel, (alpha, (tag, _c)) in zip(line, _COUPLINGS.items()):
        relation(*rel)
        cases = [("", apply_1d(build_op_1d("a_minus", alpha), solve_vacuum_1d(alpha)))]
        lhs = "a-@%s vacuum(alpha=%s)" % (alpha, alpha)
        verdict("line-vacuum-annihilation-alpha-%s" % tag, lhs, "0", cases)

    return tuple(verdicts)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

EXPORT_FORMATS = ("dot", "json", "csv")
_CSV_COLUMNS = "kind index depth energy charge src dst generator num den".split()


def _sorted_nodes(lattice: SectorLattice):
    def key(n: Node):
        e = n.energy.sort_key() if n.energy is not None else None
        q = n.charge.sort_key() if n.charge is not None else None
        return (e is None or q is None, e or (), q or (), n.index)

    return sorted(lattice.nodes, key=key)


def _sorted_edges(lattice: SectorLattice):
    return sorted(lattice.edges, key=lambda e: (e.src, e.dst, GENERATOR_ORDER.index(e.generator)))


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
        return dumps(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, _CSV_COLUMNS, lineterminator="\n")  # a missing column is blank
        w.writeheader()
        for n in _sorted_nodes(lattice):
            energy, charge = _eps_text(n.energy), _eps_text(n.charge)
            w.writerow(
                dict(kind="node", index=n.index, depth=n.depth, energy=energy, charge=charge)
            )
        for e in _sorted_edges(lattice):
            num, den = e.num.text(), e.den.text()
            w.writerow(
                dict(kind="edge", src=e.src, dst=e.dst, generator=e.generator, num=num, den=den)
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
