"""The closed-form ladder action against general operator application.

``algebra2d.ladder_image(g, s)`` raises a state by one ladder generator
without going through ``apply_2d``.  It must give the same state, and
the CLI must print the same bytes whichever of the two builds the images
of sector closure and the dark scan.  The counters at the end pin that
closure and the dark scan build every image through ``ladder_image``,
in the numbers the scan's pruning predicts.
"""

import contextlib
import io
import time
from fractions import Fraction

import pytest

from kreinosc import DepthExceeded
from kreinosc import sectors
from kreinosc.algebra2d import apply_2d, build_op_2d, ladder_image, omega, psi0
from kreinosc.cli import _load_sector_source, main
from kreinosc.sectors import GENERATOR_ORDER, MAX_DARK_DEGREE, dark_check, preset_sector

SPECS = (
    "vacuum",
    "half-zbar",
    "half-z",
    "eps:-1",
    "eps:-3",
    "eps-conj:-2",
    "omega:1/2,3",
    "omega:-1,2",
    "omega:7/2,-8",
)


def general(g, s):
    return apply_2d(build_op_2d(g), s)


def assert_same_image(g, s):
    got, want = ladder_image(g, s), general(g, s)
    assert got == want, (g, s.text())
    assert got.renorm_power == want.renorm_power


@pytest.mark.parametrize("spec", SPECS)
def test_images_of_sector_nodes_match_apply(spec):
    nodes = [n.state for n in _load_sector_source(spec, 2).nodes]
    # the nodes, their degree <= 2 images, and what one more generator makes of those
    states = list(nodes)
    for s in nodes:
        for g in GENERATOR_ORDER:
            img = general(g, s)
            states.append(img)
            states.extend(general(h, img) for h in GENERATOR_ORDER)
    for s in states:
        for g in GENERATOR_ORDER:
            assert_same_image(g, s)


@pytest.mark.parametrize("spec", SPECS)
def test_images_of_scaled_node_sums_match_apply(spec):
    nodes = [n.state for n in _load_sector_source(spec, 2).nodes][:8]
    scales = (1, -1, 2, -2, Fraction(1, 2))
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            for a in scales:
                for g in GENERATOR_ORDER:
                    assert_same_image(g, s + t.scaled(a))
                    assert_same_image(g, s.scaled(a) + t)


def test_images_that_cancel_between_branches_match_apply():
    # b_pp lowers zbar^2 z onto zbar z, where it raises 2 zbar z^0: they cancel
    s = omega(2, 1) + omega(1, 0).scaled(2)
    assert (1, 0, 1, 0) not in ladder_image("b_pp", s)._terms
    # likewise for b_pm, with the roles of lam and mu swapped
    t = omega(1, 2) + omega(0, 1).scaled(2)
    assert (1, 0, 1, 0) not in ladder_image("b_pm", t)._terms
    for state in (s, t, s - t, s.scaled(Fraction(-1, 2)) + t.scaled(2)):
        for g in GENERATOR_ORDER:
            assert_same_image(g, state)


def test_zero_images_match_apply():
    vacuum = psi0()
    for g in ("b_mm", "b_mp"):
        assert ladder_image(g, vacuum).is_zero()
        assert_same_image(g, vacuum)
    marked = vacuum.with_renorm(Fraction(1, 2))
    assert ladder_image("b_mm", marked) == general("b_mm", marked)
    assert ladder_image("b_pp", marked).renorm_power == Fraction(1, 2)
    assert ladder_image("b_pp", vacuum.scaled(0)).is_zero()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _lattice_args(spec):
    if spec in sectors.PRESET_NAMES:
        return ["--preset", spec]
    return ["--seed", spec]


# (spec, closure depth, dark degree); the omega seeds, under all four
# generators, stay at depth 3 to bound the gram blocks
BYTE_CASES = (
    ("vacuum", 5, 4),
    ("half-zbar", 4, 3),
    ("half-z", 3, 4),
    ("eps:-1", 5, 2),
    ("eps:-3", 4, 3),
    ("eps-conj:-2", 3, 4),
    ("omega:1/2,3", 3, 2),
    ("omega:-1,2", 4, 2),
    ("omega:7/2,-8", 3, 3),
)


def _outputs(spec, depth, degree):
    lattice = _lattice_args(spec) + ["--depth", str(depth)]
    charge = _load_sector_source(spec, depth).nodes[-1].charge
    charge = charge.coeff(0).as_fraction() if charge is not None else 0
    argvs = [["sector", *lattice]]
    argvs += [["export", *lattice, "--format", fmt] for fmt in ("dot", "json", "csv")]
    argvs += [["gram", *lattice], ["gram", *lattice, "--charge=%s" % charge]]
    argvs += [
        ["dark", "--a", a, "--b", b, "--depth", str(depth), "--degree", str(degree)]
        for a, b in dict.fromkeys(((spec, spec), ("vacuum", spec)))
    ]
    return [(argv, _run(argv)) for argv in argvs]


@pytest.mark.parametrize("spec, depth, degree", BYTE_CASES)
def test_cli_output_does_not_depend_on_the_image_path(monkeypatch, spec, depth, degree):
    shipped = _outputs(spec, depth, degree)
    monkeypatch.setattr(sectors, "ladder_image", general)
    assert _outputs(spec, depth, degree) == shipped
    assert any(rc == 0 for _, (rc, _, _) in shipped)


# ---------------------------------------------------------------------------
# which images closure and the dark scan build


@pytest.fixture
def image_calls(monkeypatch):
    calls = []

    def counting_image(g, s):
        calls.append(g)
        return ladder_image(g, s)

    monkeypatch.setattr(sectors, "ladder_image", counting_image)
    monkeypatch.setattr(sectors, "apply_2d", lambda op, s: pytest.fail("apply_2d called"))
    return calls


def test_pruned_scans_build_no_ladder_image(monkeypatch):
    vacuum = preset_sector("vacuum", 4)
    specs = ("half-zbar", "half-z", "eps:-1", "omega:1/3,0")
    partners = [_load_sector_source(spec, 4) for spec in specs]
    calls = []
    monkeypatch.setattr(sectors, "ladder_image", lambda g, s: calls.append(g))
    for partner in partners:
        report = dark_check(vacuum, partner, MAX_DARK_DEGREE)
        assert report.is_dark and report.pairs_checked == 0
    assert calls == []


def test_budget_refusal_builds_no_ladder_image(monkeypatch):
    vacuum = preset_sector("vacuum", 6)
    calls = []
    monkeypatch.setattr(sectors, "ladder_image", lambda g, s: calls.append(g))
    with pytest.raises(DepthExceeded):
        dark_check(vacuum, vacuum, 5)
    assert calls == []


def test_dark_scans_build_the_predicted_images(image_calls):
    half_zbar, half_z = preset_sector("half-zbar", 1), preset_sector("half-z", 1)
    vacuum = preset_sector("vacuum", 3)
    image_calls.clear()
    dark_check(half_zbar, half_z, 2)
    assert len(image_calls) == 38
    image_calls.clear()
    report = dark_check(vacuum, vacuum, 4)
    assert len(image_calls) == 1124
    assert report.pairs_checked == 2798


def test_closure_raises_each_frontier_node_once_per_generator(image_calls):
    lattice = preset_sector("vacuum", 6)
    # the 21 nodes of depth < 6, each under b_pp and b_pm
    assert sum(n.depth < 6 for n in lattice.nodes) == 21
    assert image_calls == ["b_pp", "b_pm"] * 21


def test_oversized_closure_stops_within_the_node_budget(image_calls, monkeypatch):
    checks = []
    monkeypatch.setattr(sectors, "eigencheck_2d", lambda op, s: checks.append(op))
    start = time.perf_counter()
    with pytest.raises(DepthExceeded):
        _load_sector_source("omega:1/2,3", 16)
    assert 0 < len(image_calls) <= 4 * sectors.MAX_SECTOR_NODES
    assert checks == []
    assert time.perf_counter() - start < 10
