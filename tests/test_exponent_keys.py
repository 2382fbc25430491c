"""Planar term keys hold interned exponents that keep their hash.

``algebra2d._Exp`` is a ``Fraction`` that computes its hash once, and
``algebra2d._exp`` hands out one object per value from a bounded cache.
Every key of a planar state, and every shifted key of a ladder image or an
operator image, is built from ints through that cache, so equal exponents
are one object and closure never runs ``Fraction.__hash__``.  To a caller
an exponent is indistinguishable from its ``Fraction``, and plain
``Fraction`` keys stay legal and equal.
"""

from __future__ import annotations

import copy
import functools
import json
import pickle
from fractions import Fraction

import pytest

from kreinosc import algebra2d
from kreinosc.algebra2d import (
    EXPONENT_CACHE_SIZE,
    Monomial2D,
    State2D,
    _Exp,
    _exp,
    apply_2d,
    build_op_2d,
    ladder_image,
    omega,
    psi0,
)
from kreinosc.jsonio import state2d_from_json, state2d_to_json
from kreinosc.scalars import EpsScalar, _as_fraction
from kreinosc.sectors import (
    GENERATOR_ORDER,
    eps_sector,
    generate_sector,
    lattice_export,
    lattice_from_json,
    preset_sector,
)

VALUES = [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-5, 2), Fraction(7, 3),
    Fraction(-9), Fraction(10**30 + 1, 7), Fraction(-(2**61) + 1, 3), Fraction(2**61 - 1),
]


def interned(q: Fraction) -> _Exp:
    return _exp(q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# the contract: an exponent is indistinguishable from its Fraction


@pytest.mark.parametrize("q", VALUES, ids=str)
def test_an_exponent_behaves_as_its_fraction(q):
    e = interned(q)
    assert isinstance(e, Fraction) and e == q and q == e
    assert hash(e) == hash(q)
    assert (str(e), repr(e), bool(e)) == (str(q), repr(q), bool(q))
    assert (e.numerator, e.denominator) == (q.numerator, q.denominator)
    for other in (Fraction(-3, 2), Fraction(0), Fraction(5, 2), 2, 0.5):
        assert (e < other, e <= other, e > other, e >= other) == (
            q < other, q <= other, q > other, q >= other
        )
        assert (e == other, e != other) == (q == other, q != other)


@pytest.mark.parametrize("q", VALUES, ids=str)
def test_an_exponent_survives_pickling_and_copying(q):
    e = interned(q)
    for back in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert back == q and hash(back) == hash(q)
        assert (str(back), repr(back)) == (str(q), repr(q))


@pytest.mark.parametrize("q", VALUES, ids=str)
def test_the_arithmetic_of_an_exponent_gives_plain_fractions(q):
    e = interned(q)
    results = [e + 1, 1 + e, e - Fraction(1, 2), 2 - e, e * 3, e / 5, -e, +e, abs(e)]
    expected = [q + 1, 1 + q, q - Fraction(1, 2), 2 - q, q * 3, q / 5, -q, +q, abs(q)]
    assert results == expected
    assert all(type(r) is Fraction for r in results)


def test_an_exponent_is_its_own_rational():
    e = interned(Fraction(-5, 2))
    assert _as_fraction(e) is e


def test_the_cache_is_bounded_and_eviction_costs_identity_only(monkeypatch):
    assert algebra2d._exp.cache_info().maxsize == EXPONENT_CACHE_SIZE
    # a cache of this test's own, so the process's interned exponents stay
    cache = functools.lru_cache(maxsize=EXPONENT_CACHE_SIZE)(_Exp)
    monkeypatch.setattr(algebra2d, "_exp", cache)
    before = omega(Fraction(3, 7), 1)
    cache.cache_clear()
    after = omega(Fraction(3, 7), 1)
    (k1,), (k2,) = before._terms, after._terms
    assert k1[0] is not k2[0]
    assert k1 == k2 and hash(k1) == hash(k2) and before == after
    assert ladder_image("b_pp", before) == ladder_image("b_pp", after)


# ---------------------------------------------------------------------------
# equal exponents are one object, whatever built the key


def exponents(*states):
    return [x for s in states for key in s._terms for x in (key[0], key[2])]


def test_equal_exponents_are_one_object_across_key_sources():
    by_omega = omega(Fraction(1, 2), 3)
    by_constructor = State2D({Monomial2D(Fraction(1, 2), 0, Fraction(3), 0): 1})
    by_text = State2D([(("1/2", 0, "3", 0), 1)])
    by_json = state2d_from_json(json.loads(json.dumps(state2d_to_json(by_omega))))
    lattice = preset_sector("half-zbar", 2)
    reloaded = lattice_from_json(json.loads(lattice_export(lattice, "json")))
    # b_mm lowers zbar^(3/2) z^3 onto zbar^(1/2) z^3; d/dzbar of it too
    by_ladder = ladder_image("b_mm", omega(Fraction(3, 2), 3))
    by_apply = apply_2d(build_op_2d("DZBAR"), omega(Fraction(3, 2), 3))
    states = [by_omega, by_constructor, by_text, by_json, by_ladder, by_apply]
    states += [n.state for n in lattice.nodes] + [n.state for n in reloaded.nodes]
    seen = {}
    for x in exponents(*states):
        assert type(x) is _Exp
        assert seen.setdefault(x, x) is x
    assert {Fraction(1, 2), Fraction(3)} <= seen.keys()


def test_reloaded_lattice_keys_are_the_closed_keys():
    lattice = eps_sector(-2, 3)
    reloaded = lattice_from_json(json.loads(lattice_export(lattice, "json")))
    for a, b in zip(lattice.nodes, reloaded.nodes):
        assert list(a.state._terms) == list(b.state._terms)
        for ka, kb in zip(a.state._terms, b.state._terms):
            assert all(x is y for x, y in zip(ka, kb))


# ---------------------------------------------------------------------------
# plain Fraction keys stay legal and equal


def plain(s: State2D) -> State2D:
    """s with every exponent a plain Fraction, built past the key coercion."""
    terms = {
        (Fraction(lam), ls, Fraction(mu), ms): c for (lam, ls, mu, ms), c in s._terms.items()
    }
    assert all(type(k[0]) is Fraction for k in terms)
    return s._like(terms)


def test_plain_and_interned_tuple_keys_find_each_other():
    s = generate_sector(omega(-9, Fraction(-5, 2)), GENERATOR_ORDER, 2).nodes[-1].state
    by_plain = dict(plain(s)._terms)
    for key, c in s._terms.items():
        assert by_plain[key] == c
        assert s._terms[(Fraction(key[0]), key[1], Fraction(key[2]), key[3])] == c
    assert by_plain.keys() == s._terms.keys()


STATES = {
    "vacuum": psi0(),
    "half": omega(Fraction(1, 2), 3),
    "eps": omega(-2, 0, lam_slope=1).with_renorm(Fraction(1, 2)),
    "thirds": omega(Fraction(-5, 2), Fraction(7, 3))
    + omega(1, Fraction(1, 3)).scaled(EpsScalar.affine(1, 2)),
}


@pytest.mark.parametrize("state", STATES.values(), ids=STATES.keys())
def test_equal_states_hash_equal_whichever_keys_built_them(state):
    other = plain(state)
    assert other == state and state == other
    assert hash(other) == hash(state)
    assert {state: 1}[other] == 1
    for g in GENERATOR_ORDER:
        assert ladder_image(g, other) == ladder_image(g, state)
    assert other._pairing()[0] == state._pairing()[0]


# ---------------------------------------------------------------------------
# the mechanism: no Fraction hashing in closure, no Fraction sums in the index

CLOSURES = {
    "vacuum@3": lambda: preset_sector("vacuum", 3),
    "half-zbar@10": lambda: preset_sector("half-zbar", 10),
    "eps:-2@6": lambda: eps_sector(-2, 6),
    "omega:-9,-5/2@4": lambda: generate_sector(omega(-9, Fraction(-5, 2)), GENERATOR_ORDER, 4),
}


@pytest.mark.parametrize("close", CLOSURES.values(), ids=CLOSURES.keys())
def test_a_warm_closure_hashes_no_plain_fraction(monkeypatch, close):
    close()  # warm: the named operators, the exponent and moment caches
    calls = []
    original = Fraction.__hash__

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", spy)
    lattice = close()
    monkeypatch.undo()
    assert calls == []
    assert lattice == close()


def oracle_index(s: State2D) -> list:
    """(charge key, 2(lam + mu), slope sum) per term, by Fraction arithmetic."""
    out = []
    for lam, ls, mu, ms in s._terms:
        q, t = mu - lam, 2 * (lam + mu)
        out.append(((q.numerator, q.denominator, ms - ls), int(t) if t.denominator == 1 else t,
                    ls + ms))
    return out


def test_the_pairing_index_does_no_fraction_sums(monkeypatch):
    states = [n.state for n in preset_sector("half-zbar", 4).nodes]
    states += [n.state for n in eps_sector(Fraction(-1, 2), 3).nodes]
    states = [s._like(dict(s._terms)) for s in states]  # no index built yet
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        original = getattr(Fraction, name)

        def spy(a, b, name=name, original=original):
            calls.append(name)
            return original(a, b)

        monkeypatch.setattr(Fraction, name, spy)
    indices = [s._pairing()[0] for s in states]
    monkeypatch.undo()
    assert calls == []
    for s, entries in zip(states, indices):
        assert [e[:3] for e in entries] == oracle_index(s)
        assert all(type(e[1]) is int for e in entries)


def test_the_pairing_index_of_other_exponents_matches_fraction_arithmetic():
    s = omega(Fraction(1, 3), Fraction(-2, 5)) + omega(Fraction(7, 6), Fraction(1, 2), 1, 0)
    s = s + omega(Fraction(-4, 3), Fraction(2, 3))
    assert [e[:3] for e in s._pairing()[0]] == oracle_index(s)


def test_an_int_shift_is_the_interned_sum():
    xs = [Fraction(n, d) for n in range(-7, 8) for d in (1, 2)]
    for x in xs + [interned(x) for x in xs]:
        for k in range(-3, 4):
            got = algebra2d._plus(x, k)
            assert got is _exp(*(x + k).as_integer_ratio()), (x, k)
