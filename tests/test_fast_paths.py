"""Fast paths for constants and one-term values.

A value that is one term, or a plain rational, is computed directly
instead of through the general ring machinery: division by a one-term
eps polynomial, the one-term constructors, closure's eigenvalue shifts and
the dark scan's integer charge offsets.  Each must give the value and the
stored term order of the general path, and must skip the work it exists
to skip.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from test_dark_scan import SOURCES, _mixed_sector
from test_ladder_image import BYTE_CASES

from kreinosc import scalars, sectors
from kreinosc.cli import _load_sector_source
from kreinosc.errors import DomainError
from kreinosc.scalars import EpsScalar, GradedScalar, _long_div
from kreinosc.sectors import preset_sector

HALF = Fraction(1, 2)


def _stored(v):
    """The stored terms of a scalar, in order, down to the Fractions and their types."""
    if v is None:
        return None
    if isinstance(v, EpsScalar):
        return [(p, _stored(c)) for p, c in v._terms.items()]
    return [(key, q, type(q)) for key, q in v._terms.items()]


# ---------------------------------------------------------------------------
# division by a one-term eps polynomial


def G(*terms):
    return GradedScalar({(j, k): q for q, j, k in terms})


# dividends: zero, constants, gaps in the powers, multi-term coefficients
DIVIDENDS = [
    EpsScalar(),
    EpsScalar.one(),
    EpsScalar((Fraction(-3, 4),)),
    EpsScalar((0, G((2, 1, -1)))),
    EpsScalar((G((1, 0, 0), (-2, 1, 1)), 0, G((HALF, 0, 3)))),
    EpsScalar((0, 0, G((5, 1, -3), (1, 0, 2)), -1)),
    EpsScalar((G((1, 0, 0), (1, 0, 1)), G((-1, 1, 2)), 7)),
]

# one-term divisors q 2^(j/2) pi^(k/2) eps^p, and two whose one
# coefficient has several terms (1 + pi^(1/2) divides only its multiples)
DIVISORS = [
    EpsScalar((0,) * p + (GradedScalar.monomial(q, j, k),))
    for p in range(3)
    for j in (0, 1)
    for k in range(-3, 4)
    for q in (1, Fraction(-2, 3))
] + [EpsScalar((G((1, 0, 0), (1, 0, 1)),)), EpsScalar((0, G((1, 0, 0), (1, 1, 0))))]


def test_one_term_division_is_the_long_division():
    nones = 0
    for f, g in product(DIVIDENDS, DIVISORS):
        assert len(g._terms) == 1
        general = _long_div(f._terms, g._terms, GradedScalar.try_div, laurent=False)
        fast = f.try_div(g)
        if general is None:
            nones += 1
            assert fast is None, (f, g)
            continue
        assert fast == EpsScalar._like(f, general)
        assert _stored(fast) == [(p, _stored(c)) for p, c in general.items()], (f, g)
    assert nones > 100  # negative shifts and a coefficient that does not divide


def test_closure_runs_no_long_division(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_long_div called")

    monkeypatch.setattr(scalars, "_long_div", refuse)
    assert preset_sector("vacuum", 3).node_count() == 10
    assert _load_sector_source("omega:-7/2,8", 1).node_count() == 5


# ---------------------------------------------------------------------------
# one-term constructors


RATIONALS = (0, 1, -5, Fraction(0), Fraction(-3, 4), Fraction(7, 2), "5/2", "-0")


def test_one_term_constructors_store_the_general_terms():
    for q in RATIONALS:
        assert _stored(GradedScalar.rational(q)) == _stored(GradedScalar({(0, 0): q}))
        for j, k in product(range(-3, 4), (-2, 0, 3)):
            fast = GradedScalar.monomial(q, j, k)
            assert _stored(fast) == _stored(GradedScalar([((j, k), q)]))
    values = [q for q in RATIONALS if not isinstance(q, str)]
    values += [GradedScalar(), G((2, 1, -1)), G((1, 0, 0), (-1, 1, 3))]
    for v in values:
        assert _stored(EpsScalar.of(v)) == _stored(EpsScalar((v,)))


@pytest.mark.parametrize("bad", [1.5, True, None, "x", "1e3", [1]])
def test_one_term_constructors_refuse_as_the_general_ones(bad):
    cases = [
        (lambda: GradedScalar.rational(bad), lambda: GradedScalar({(0, 0): bad})),
        (lambda: GradedScalar.monomial(bad, 1, 2), lambda: GradedScalar([((1, 2), bad)])),
        (lambda: GradedScalar.monomial(1, bad, 0), lambda: GradedScalar([((bad, 0), 1)])),
        (lambda: EpsScalar.of(bad), lambda: EpsScalar((bad,))),
    ]
    for fast, general in cases:
        with pytest.raises(DomainError) as want:
            general()
        with pytest.raises(DomainError) as got:
            fast()
        assert str(got.value) == str(want.value)


def test_rational_lifts_compute_no_power_of_two(monkeypatch):
    calls = []
    power = Fraction.__pow__

    def counted(a, b, *rest):
        calls.append(b)
        return power(a, b, *rest)

    monkeypatch.setattr(Fraction, "__pow__", counted)
    GradedScalar.rational(3)
    GradedScalar.monomial(3, 1, 0)
    EpsScalar.of(Fraction(1, 3))
    assert GradedScalar.monomial(3, -1, 2) == GradedScalar({(1, 2): Fraction(3, 2)})
    assert calls == [-1]


def test_closure_lifts_no_ladder_shift(monkeypatch):
    calls = []
    lift = EpsScalar._lift

    def counted(other):
        calls.append(other)
        return lift(other)

    preset_sector("vacuum", 1)  # the shifts are lifted once per process
    monkeypatch.setattr(EpsScalar, "_lift", staticmethod(counted))
    vacuum = preset_sector("vacuum", 3)
    _load_sector_source("omega:-7/2,8", 1)
    assert calls == []
    monkeypatch.undo()
    assert [(n.energy, n.charge) for n in vacuum.nodes[:3]] == [(1, 0), (2, 1), (2, -1)]


# ---------------------------------------------------------------------------
# the dark scan's integer charge offsets


def _fraction_offsets(a, b) -> list:
    """The offsets as dark_check computed them from charges(), Fractions subtracted."""
    return [
        [
            {int(t) for t in (qa - qb for qa, sa in sa_.charges() for qb, sb in sb_.charges()
                              if sa == sb) if t.denominator == 1}
            for sb_ in (n.state for n in b.nodes)
        ]
        for sa_ in (n.state for n in a.nodes)
    ]


def _scan_pairs():
    """The operand pairs of tests/test_dark_scan.py and tests/test_ladder_image.py."""
    load = _load_sector_source
    small = [load(spec, 1) for spec in SOURCES] + [_mixed_sector()]
    pairs = list(product(small, repeat=2))
    depth2 = [load(spec, 2) for spec in SOURCES] + [_mixed_sector()]
    pairs += [(a, a) for a in depth2] + [(depth2[0], b) for b in depth2] + [
        (b, depth2[0]) for b in depth2
    ]
    vacuum4 = preset_sector("vacuum", 4)
    pairs += [(vacuum4, load(spec, 4)) for spec in ("half-zbar", "half-z", "eps:-1", "omega:1/3,0")]
    pairs.append((preset_sector("half-zbar", 1), preset_sector("half-z", 1)))
    for spec, depth, _ in BYTE_CASES:
        other = load(spec, depth)
        pairs += [(other, other), (load("vacuum", depth), other)]
    return pairs


def test_integer_offsets_are_the_fraction_offsets():
    pairs = _scan_pairs()
    assert len(pairs) > 80
    shifted = 0
    for a, b in pairs:
        states_a, states_b = [n.state for n in a.nodes], [n.state for n in b.nodes]
        got = sectors._offsets(states_a, states_b)
        assert got == _fraction_offsets(a, b), (a.seed_text, b.seed_text)
        assert all(type(t) is int for row in got for cell in row for t in cell)
        shifted += any(t for row in got for cell in row for t in cell)
    assert shifted > 10


def test_a_scan_over_indexed_states_subtracts_no_fraction(monkeypatch):
    a = preset_sector("vacuum", 1)
    b = _load_sector_source("omega:-7/2,8", 1)
    for n in a.nodes + b.nodes:
        n.state._pairing()
    calls = []
    sub = Fraction.__sub__

    def counted(x, y):
        calls.append((x, y))
        return sub(x, y)

    monkeypatch.setattr(Fraction, "__sub__", counted)
    report = sectors.dark_check(a, b, 2)
    assert report.is_dark and report.pairs_checked == 0
    assert calls == []


def test_class_counts_come_from_the_scan_table():
    for degree in range(sectors.MAX_DARK_DEGREE + 1):
        words = sectors._scan_words(degree)
        expected = Counter((len(w), shift) for w, canon, shift in words if w == canon)
        assert sectors._scan_classes(degree) == expected
        assert sectors._scan_classes(degree) is sectors._scan_classes(degree)


# ---------------------------------------------------------------------------
# the pairing index of a one-charge state


def test_a_one_charge_index_has_one_list():
    lattice = _load_sector_source("omega:1/2,3", 2)
    several = 0
    for n in lattice.nodes + _mixed_sector().nodes:
        entries, buckets = n.state._pairing()
        assert [e for bucket in buckets.values() for e in bucket] == sorted(
            entries, key=lambda e: list(buckets).index(e[0])
        )
        if len(buckets) == 1:
            assert next(iter(buckets.values())) is entries
        else:
            several += 1
            assert all(bucket is not entries for bucket in buckets.values())
    assert several > 0
