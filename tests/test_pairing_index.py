"""The pairing index a planar state keeps, and the in-place pairing sums.

A state builds its index (``State2D._pairing``: each term's charge key,
exponent sum, slope sum and coefficient, in term order and by charge) the
first time it is paired, and keeps it.  ``renorm_inner`` adds each pair's
product into plain term dicts.  Neither may change a value, its stored
terms, an error or the state's value contract; and both must save the
work they exist to save.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from test_pairing import outcome

from kreinosc import sectors
from kreinosc.algebra2d import State2D, _matched, inner_2d, omega, renorm_inner
from kreinosc.cli import _load_sector_source
from kreinosc.errors import DomainError, PoleError
from kreinosc.scalars import GradedScalar

from _oracles import reference_renorm_inner

HALF = Fraction(1, 2)


def _recorded(monkeypatch, run) -> list:
    """The (f, g) pairs that run() sends through the sectors binding of renorm_inner."""
    pairs = []
    original = sectors.renorm_inner

    def record(f, g):
        pairs.append((f, g))
        return original(f, g)

    monkeypatch.setattr(sectors, "renorm_inner", record)
    run()
    monkeypatch.setattr(sectors, "renorm_inner", original)
    return pairs


def _scanned_and_gram_pairs(monkeypatch) -> list:
    """Every pair two dark scans evaluate and every entry of two Gram analyses.

    half-zbar x half-z takes the shifted-charge path of the scan, eps:-1 x
    eps:-1 the pole moments under the eps^(1/2) + eps^(1/2) shift.
    """
    load = _load_sector_source

    def run():
        sectors.dark_check(load("half-zbar", 2), load("half-z", 2), 4)
        sectors.dark_check(load("eps:-1", 1), load("eps:-1", 1), 4)
        sectors.quotient_report(load("eps:-1", 6))
        sectors.quotient_report(load("omega:1/2,3", 3))

    return _recorded(monkeypatch, run)


def _fresh(s: State2D) -> State2D:
    """An equal state built anew, with no pairing index."""
    return State2D({m.key(): c for m, c in s.terms()}, s.renorm_power)


def test_scanned_pairs_and_gram_entries_match_the_double_loop(monkeypatch):
    pairs = _scanned_and_gram_pairs(monkeypatch)
    assert len(pairs) == 1703
    for f, g in pairs:
        # both indices were built by the scan or the Gram block
        expected = outcome(reference_renorm_inner, f, g)
        assert outcome(renorm_inner, f, g) == expected
        assert outcome(renorm_inner, _fresh(f), _fresh(g)) == expected


@pytest.mark.parametrize("spec, depth", [("half-zbar", 3), ("eps:-1", 2)])
def test_states_paired_before_and_remarked_match_the_double_loop(spec, depth):
    states = [n.state for n in _load_sector_source(spec, depth).nodes]
    for f in states:
        for g in states:
            outcome(renorm_inner, f, g)
    for power in (Fraction(0), HALF):
        for f in states:
            shifted = f.with_renorm(power)
            for g in states:
                for lhs, rhs in ((shifted, g), (g, shifted), (shifted, shifted)):
                    expected = outcome(reference_renorm_inner, lhs, rhs)
                    assert outcome(renorm_inner, lhs, rhs) == expected


# ---------------------------------------------------------------------------
# the value contract of a state that holds an index


def test_a_paired_state_keeps_its_value_contract():
    for node in _load_sector_source("eps:-1", 3).nodes:
        s = node.state
        renorm_inner(s, s)
        index = s._pairing()
        fresh = _fresh(s)
        assert not hasattr(fresh, "_index")
        assert s == fresh and fresh == s
        assert hash(s) == hash(fresh)
        renorm_inner(fresh, fresh)
        assert s == fresh and hash(s) == hash(fresh)
        for name in ("_index", "renorm_power", "_terms"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert s._pairing() is index
        assert s.with_renorm(0) != s


def test_errors_keep_their_order_with_indices_already_built():
    # the pole pair (charge 1, base 0) comes first in either order
    f = omega(-1, 0) + omega(Fraction(1, 3), Fraction(1, 3))
    g = omega(-1, 0) + omega(Fraction(-2, 3), Fraction(-2, 3))
    f._pairing(), g._pairing()
    for lhs, rhs in ((f, g), (g, f)):
        for pairing in (inner_2d, renorm_inner):
            with pytest.raises(DomainError, match="gamma argument 2/3 is not a half-integer"):
                pairing(lhs, rhs)


def test_errors_are_raised_again_with_indices_already_built():
    s = omega(-1, 0)
    for _ in range(2):
        for pairing in (inner_2d, renorm_inner):
            with pytest.raises(PoleError):
                pairing(s, s)
    unit = omega(0, 0)
    renorm_inner(unit, unit)
    bad = unit + omega(Fraction(1, 3), Fraction(1, 3))
    for _ in range(2):
        for pairing in (inner_2d, renorm_inner):
            with pytest.raises(DomainError):
                pairing(bad, bad)


# ---------------------------------------------------------------------------
# the work saved, by counts


def test_a_dark_scan_builds_each_index_once(monkeypatch):
    builds, reads, kept = Counter(), Counter(), []
    original = State2D._pairing

    def counted(self):
        (reads if hasattr(self, "_index") else builds)[id(self)] += 1
        kept.append(self)  # no id is reused while counting
        return original(self)

    monkeypatch.setattr(State2D, "_pairing", counted)
    a, b = (_load_sector_source("vacuum", 3) for _ in range(2))
    report = sectors.dark_check(a, b, 4)
    assert report.pairs_checked > 0
    assert builds and max(builds.values()) == 1
    assert sum(reads.values()) > sum(builds.values())


def test_a_dark_scan_reads_each_a_node_index_once_plus_once_per_evaluation(monkeypatch):
    reads, evaluations = Counter(), Counter()
    original, inner = State2D._pairing, sectors.renorm_inner

    def counted(self):
        reads[id(self)] += 1
        return original(self)

    def evaluated(f, g):
        evaluations[id(f)] += 1
        return inner(f, g)

    a, b = (_load_sector_source("vacuum", 3) for _ in range(2))
    monkeypatch.setattr(State2D, "_pairing", counted)
    monkeypatch.setattr(sectors, "renorm_inner", evaluated)
    report = sectors.dark_check(a, b, 4)
    assert report.pairs_checked == 2798 and sum(evaluations.values()) > 1000
    # the seed state is one object in both lattices, and b's side reads it too
    own = [id(n.state) for n in a.nodes if all(m.state is not n.state for m in b.nodes)]
    assert len(own) == len(a.nodes) - 1
    # once for the scan's charge offsets, once for its pruning, once per evaluation
    assert all(reads[i] == 2 + evaluations[i] for i in own)


def _eps0_one_term(s: State2D) -> bool:
    return all(len(c.coeff(0)._terms) == 1 for c in s._terms.values())


def test_one_term_coefficients_make_one_product_per_pair_and_no_sum(monkeypatch):
    pairs = [
        (f, g)
        for f, g in _scanned_and_gram_pairs(monkeypatch)
        if _eps0_one_term(f) and _eps0_one_term(g)
    ]
    assert len(pairs) > 1000
    calls = Counter()
    mul, add = GradedScalar.__mul__, GradedScalar.__add__

    def counted_mul(x, y):
        calls["mul"] += 1
        return mul(x, y)

    def counted_add(x, y):
        calls["add"] += 1
        return add(x, y)

    monkeypatch.setattr(GradedScalar, "__mul__", counted_mul)
    monkeypatch.setattr(GradedScalar, "__add__", counted_add)
    for f, g in pairs:
        n_pairs = len(_matched(f, g))
        calls.clear()
        renorm_inner(f, g)  # every moment is cached by the first pairing
        assert calls["mul"] <= n_pairs
        assert calls["add"] == 0
