"""The dark scan against a brute-force reference, and what it builds.

``reference_dark_check`` is the scan loop as it stood before charge
reachability and commutation classes: it builds the image of every word
on every node of sector b and tests charges afterwards.  The scan in
``kreinosc.sectors`` must give the same report, entry for entry.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from kreinosc import DepthExceeded, DomainError, generate_sector, omega
from kreinosc import sectors
from kreinosc.algebra2d import DiffOp2D, apply_2d, compose_2d, renorm_inner
from kreinosc.cli import _load_sector_source
from kreinosc.errors import NotConvergent, PoleError
from kreinosc.sectors import (
    GENERATOR_ORDER,
    MAX_DARK_DEGREE,
    MAX_DARK_WORK,
    DarkEntry,
    DarkReport,
    dark_check,
    preset_sector,
)


def reference_dark_check(a, b, max_degree):
    ops = sectors._gen_ops()
    states_a = [n.state for n in a.nodes]
    charges_a = [frozenset(s.charges()) for s in states_a]
    entries = []
    pairs = 0
    n_words = 0
    level = {(): [n.state for n in b.nodes]}
    for degree in range(max_degree + 1):
        for word, images in level.items():
            n_words += 1
            text = " ".join(word) if word else "1"
            image_charges = [frozenset(s.charges()) for s in images]
            for i, sa in enumerate(states_a):
                for j, img in enumerate(images):
                    if img.is_zero() or not (charges_a[i] & image_charges[j]):
                        continue
                    pairs += 1
                    try:
                        v = renorm_inner(sa, img)
                    except NotConvergent:
                        entries.append(DarkEntry(text, i, j, None, "divergent"))
                        continue
                    except PoleError:
                        entries.append(DarkEntry(text, i, j, None, "gamma-pole"))
                        continue
                    if v:
                        entries.append(DarkEntry(text, i, j, v))
        if degree == max_degree:
            break
        level = {
            word + (g,): [apply_2d(ops[g], s) for s in images]
            for word, images in level.items()
            for g in GENERATOR_ORDER
        }
    return DarkReport(
        is_dark=not entries,
        max_degree=max_degree,
        nodes_a=len(states_a),
        nodes_b=len(b.nodes),
        monomials=n_words,
        pairs_checked=pairs,
        entries=tuple(entries),
    )


# presets, both deformations, and two omega seeds (all four generators)
# with one half-odd and one integer exponent each
SOURCES = ("vacuum", "half-zbar", "half-z", "eps:-1", "eps-conj:-1", "omega:1/2,3", "omega:-7,5/2")


def _mixed_sector():
    """Nodes that carry several charges, integral and half-odd apart."""
    seed = omega(0, 0) + omega(1, 0) + omega(Fraction(1, 2), 2)
    return generate_sector(seed, GENERATOR_ORDER, 1, seed_text="mixed")


def _operand_pairs(depth, kinds):
    """Pairs of operand lattices: "all" ordered pairs, or each operand
    against "itself" and both ways against the "vacuum"."""
    lattices = [_load_sector_source(spec, depth) for spec in SOURCES] + [_mixed_sector()]
    if kinds == "all":
        return list(product(lattices, repeat=2))
    vacuum = lattices[0]
    pairs = [(a, a) for a in lattices] if "itself" in kinds else []
    if "vacuum" in kinds:
        pairs += [pair for other in lattices[1:] for pair in ((vacuum, other), (other, vacuum))]
    return pairs


# The reference's cost grows with nodes x 4^degree, so the largest
# operands (the omega seeds at depth 2 have 17 nodes) are scanned at
# degree 3 only against the vacuum.
@pytest.mark.parametrize(
    "depth, degrees, kinds",
    [
        (1, (0, 1, 2), "all"),
        (1, (3,), "itself, vacuum"),
        (2, (2,), "itself"),
        (2, (3,), "vacuum"),
    ],
)
def test_scan_matches_the_brute_force_reference(depth, degrees, kinds):
    for a, b in _operand_pairs(depth, kinds):
        for degree in degrees:
            assert dark_check(a, b, degree) == reference_dark_check(a, b, degree), (
                a.seed_text, b.seed_text, degree)


def test_pruned_scans_build_no_image(monkeypatch):
    calls = []

    def counting_apply(op, s):
        calls.append(op)
        return apply_2d(op, s)

    vacuum = preset_sector("vacuum", 4)
    specs = ("half-zbar", "half-z", "eps:-1", "omega:1/3,0")
    partners = [_load_sector_source(spec, 4) for spec in specs]
    monkeypatch.setattr(sectors, "apply_2d", counting_apply)
    start = time.perf_counter()
    for partner in partners:
        report = dark_check(vacuum, partner, MAX_DARK_DEGREE)
        assert report.is_dark
        assert report.monomials == sum(4**d for d in range(MAX_DARK_DEGREE + 1))
        assert report.pairs_checked == 0
    assert calls == []
    assert time.perf_counter() - start < 10


def test_normal_forms_are_the_operator_classes():
    ops = sectors._gen_ops()
    shifts, commuting = sectors._ladder_algebra()
    assert shifts == {"b_pp": 1, "b_pm": -1, "b_mp": -1, "b_mm": 1}
    assert commuting == {
        (g, h)
        for pair in (("b_pp", "b_pm"), ("b_mp", "b_mm"), ("b_pm", "b_mp"), ("b_pp", "b_mm"))
        for g, h in (pair, pair[::-1])
    }

    def operator(word):
        out = DiffOp2D.identity()
        for g in word:
            out = compose_2d(ops[g], out)
        return out

    words = [w for d in range(5) for w in product(GENERATOR_ORDER, repeat=d)]
    forms = {}
    for w in words:
        canon = sectors._normal_form(w, commuting)
        assert sorted(canon) == sorted(w)
        assert [sectors._GEN_RANK[g] for g in canon] <= [sectors._GEN_RANK[g] for g in w]
        assert sectors._normal_form(canon, commuting) == canon
        forms.setdefault(canon, operator(canon))
        assert operator(w) == forms[canon]
    assert len(forms) == 129


def test_scan_budget_is_checked_before_any_image(monkeypatch):
    calls = []
    vacuum = preset_sector("vacuum", 6)
    monkeypatch.setattr(sectors, "apply_2d", lambda op, s: calls.append(op))
    with pytest.raises(DepthExceeded) as exc:
        dark_check(vacuum, vacuum, 5)
    assert exc.value.code == "depth-exceeded"
    assert "budget of %d" % MAX_DARK_WORK in str(exc.value)
    assert calls == []
    with pytest.raises(DomainError):
        dark_check(vacuum, vacuum, MAX_DARK_DEGREE + 1)
