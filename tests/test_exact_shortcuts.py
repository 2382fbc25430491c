"""Closure and the Gram congruence skip arithmetic that the structure decides.

``states_proportional`` against a node stored monic in its top key reads
the quotient off that key and checks one product per key; no ``try_div``
runs.  ``_congruence_diagonalize`` runs a block whose entries share one
unit 2^(j/2) pi^(k/2) on Python ints and lifts the results back as
monomials.  Both must give what the general paths give: the same
verdicts and values, the same diagonals and transform columns, and the
same stored terms.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_congruence import ZERO_PIVOT_CASES

from kreinosc import sectors
from kreinosc.algebra1d import _ratio
from kreinosc.cli import _load_sector_source
from kreinosc.scalars import GS_ZERO, EpsScalar, GradedScalar
from kreinosc.sectors import _congruence_diagonalize, _eliminate, quotient_report

# (sector spec, depth): the closure-test sectors; the eps ones hold nodes
# whose deformed lead (like -1+e) has no inverse, so they are not monic
SECTORS = [
    ("half-zbar", 10),
    ("eps:-1", 6),
    ("eps-conj:-2", 6),
    ("omega:-1,2", 5),
    ("omega:1/2,3", 4),
]


def _reference(a, b):
    """The general path: cross-multiplied ratio, reduced when it divides."""
    ratio = _ratio(a, b)
    if ratio is None:
        return None
    q = ratio[0].try_div(ratio[1])
    return ratio if q is None else (q, EpsScalar.one())


def _layout(v: EpsScalar) -> list:
    return [(p, c.terms(), float(c)) for p, c in v.terms()]


def _monic(s) -> bool:
    return s._terms[max(s._terms)] == EpsScalar.one()


@pytest.mark.parametrize("spec, depth", SECTORS, ids=["%s@%d" % p for p in SECTORS])
def test_proportionality_agrees_with_the_general_path(monkeypatch, spec, depth):
    seen = {"monic": 0, "other": 0, "hits": 0}
    real = sectors.states_proportional

    def spy(a, b):
        got = real(a, b)
        want = _reference(a, b)
        seen["monic" if _monic(b) else "other"] += 1
        assert (got is None) == (want is None)
        if got is not None:
            seen["hits"] += 1
            assert got == want
            assert [_layout(x) for x in got] == [_layout(x) for x in want]
        return got

    monkeypatch.setattr(sectors, "states_proportional", spy)
    _load_sector_source(spec, depth)
    assert seen["monic"] and seen["hits"]
    if spec.startswith("eps"):
        assert seen["other"]


def _count_calls(monkeypatch, cls, *names) -> list:
    calls = []
    for name in names:
        real = cls.__dict__[name]

        def spy(*args, _real=real):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(cls, name, spy)
    return calls


def test_proportionality_to_a_monic_node_divides_nothing(monkeypatch):
    lattice = _load_sector_source("omega:1/2,3", 2)
    nodes = [n.state for n in lattice.nodes if _monic(n.state)]
    assert len(nodes) > 4
    q = EpsScalar.affine(GradedScalar.sqrt_pi(), Fraction(3, 2))
    calls = _count_calls(monkeypatch, EpsScalar, "try_div")
    calls += _count_calls(monkeypatch, GradedScalar, "try_div")
    hits = [sectors.states_proportional(b.scaled(q), b) for b in nodes]
    misses = []
    for b in nodes:
        if len(b._terms) > 1:
            # q b, off by one at the lowest key: the same keys, not proportional
            terms = {key: c * q for key, c in b._terms.items()}
            terms[min(terms)] += 1
            misses.append(sectors.states_proportional(b._like(terms), b))
    assert calls == []
    assert all(h == (q, EpsScalar.one()) for h in hits)
    assert misses and misses == [None] * len(misses)


def _stored(x: GradedScalar) -> list:
    return list(x._terms.items())


def _general(mat):
    """The congruence on the GradedScalar entries, whatever their units."""
    return _eliminate([list(row) for row in mat], GradedScalar.one())[:2]


def _assert_paths_agree(mat):
    diag, ecols = _congruence_diagonalize(mat)
    want_diag, want_cols = _general(mat)
    assert [_stored(x) for x in diag] == [_stored(x) for x in want_diag]
    assert [[_stored(x) for x in c] for c in ecols] == [[_stored(x) for x in c] for c in want_cols]


def _one_unit(mat) -> bool:
    grades = {g for row in mat for x in row for g in x._terms}
    return len(grades) <= 1 and all(len(x._terms) <= 1 for row in mat for x in row)


# the same sectors for the Gram blocks, but omega:-1,2 only at depth 1: from
# depth 2 on its pairing meets a gamma pole
GRAM_SECTORS = [(spec, 1 if spec == "omega:-1,2" else depth) for spec, depth in SECTORS]


@pytest.mark.parametrize("spec, depth", GRAM_SECTORS, ids=["%s@%d" % p for p in GRAM_SECTORS])
def test_sector_blocks_agree_on_both_paths(spec, depth):
    blocks = [b.entries for b in quotient_report(_load_sector_source(spec, depth)).blocks]
    for mat in blocks:
        _assert_paths_agree(mat)
    assert any(len(mat) > 1 for mat in blocks)
    assert all(_one_unit(mat) for mat in blocks)


@pytest.mark.parametrize("mat, diag, cols", ZERO_PIVOT_CASES)
def test_zero_pivot_cases_agree_on_both_paths(mat, diag, cols):
    _assert_paths_agree(mat)


PI = GradedScalar.pi()


def test_a_repair_that_mixes_powers_runs_on_graded_scalars(monkeypatch):
    # pi * [[1,1,0],[1,1,1],[0,1,0]]: one unit, but the zero pivot at 1 adds
    # column 2 (power 0 of pi) to column 1 (power 1)
    mat = [[PI, PI, GS_ZERO], [PI, PI, PI], [GS_ZERO, PI, GS_ZERO]]
    calls = _count_calls(monkeypatch, GradedScalar, "__mul__", "__rmul__")
    diag, ecols = _congruence_diagonalize(mat)
    assert calls
    assert [_stored(x) for x in diag] == [[((0, 2), 1)], [((0, 4), 2)], [((0, 12), -2)]]
    assert [[_stored(x) for x in c] for c in ecols] == [
        [[((0, 0), 1)], [], []],
        [[((0, 2), -1)], [((0, 2), 1)], [((0, 0), 1)]],
        [[((0, 6), 1)], [((0, 6), -1)], [((0, 4), 1)]],
    ]
    _assert_paths_agree(mat)


@pytest.mark.parametrize(
    "unit, products",
    [((2, 0, 0), False), ((Fraction(1, 2), 0, 0), True), ((1, 1, 0), True), ((1, 0, 1), True)],
    ids=["two", "half", "sqrt2", "sqrt-pi"],
)
def test_the_mixed_repair_falls_back_unless_the_unit_is_one(monkeypatch, unit, products):
    # t = u/L is 1 for the entries 2 A (L = 1) and 1/2 for A/2 (L = 2)
    u = GradedScalar.monomial(*unit)
    mat = [[u * a for a in row] for row in ([1, 1, 0], [1, 1, 1], [0, 1, 0])]
    calls = _count_calls(monkeypatch, GradedScalar, "__mul__", "__rmul__")
    _congruence_diagonalize(mat)
    assert bool(calls) == products
    _assert_paths_agree(mat)


def test_a_one_unit_block_makes_no_graded_product(monkeypatch):
    u = GradedScalar.monomial(Fraction(1, 3), 1, -1)
    mat = [[u * a for a in row] for row in ([2, 1, 0], [1, 0, 5], [0, 5, -7])]
    want = _general(mat)
    calls = _count_calls(monkeypatch, GradedScalar, "__mul__", "__rmul__")
    diag, ecols = _congruence_diagonalize(mat)
    assert calls == []
    assert (diag, ecols) == want


# units 2^(j/2) pi^(k/2), among them 2^(1/2) and pi^(1/2)
UNITS = [(0, 0), (1, 0), (0, 1), (1, 1), (0, -3), (1, 2)]
_rationals = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)])


@st.composite
def _one_unit_blocks(draw):
    n = draw(st.integers(1, 5))
    j, k = draw(st.sampled_from(UNITS))
    scale = draw(st.sampled_from([1, Fraction(1, 2), Fraction(-2, 3)]))
    mat = [[GS_ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            # zero pivots are frequent, so the repairs that add a column are too
            q = draw(st.sampled_from([0, 0, 0, 1]) if r == c else _rationals)
            x = GradedScalar.monomial(scale * q, j, k)
            mat[r][c] = mat[c][r] = x
    return mat


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_unit_blocks())
def test_drawn_one_unit_blocks_agree_on_both_paths(mat):
    _assert_paths_agree(mat)
