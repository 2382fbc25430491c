"""H and Q eigenchecks by their closed forms, against general application.

``eigencheck_2d`` builds the images of H and Q from algebra2d._CLOSED and
refuses H without a multiply when its lowering term leaves the keys of
the state.  Drawn states must get the value ``_eigenvalue`` finds through
``apply_2d``, down to the stored terms, and every other operator still
goes through ``apply_2d``.  The counters at the end pin that sector
closure applies no operator at all.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kreinosc import DomainError, algebra2d, sectors
from kreinosc.algebra1d import _eigenvalue
from kreinosc.algebra2d import DiffOp2D, State2D, apply_2d, build_op_2d, eigencheck_2d, ladder_image
from kreinosc.cli import _load_sector_source
from kreinosc.opexpr import build_from_text
from kreinosc.scalars import EpsScalar, GradedScalar, _TermMap
from kreinosc.sectors import GENERATOR_ORDER, PRESET_NAMES, preset_sector

PROPERTY = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

H, Q = build_op_2d("H"), build_op_2d("Q")
# the same operators built by the expression language, and two others
OTHERS = (build_op_2d("b_pp"), build_from_text("2 H")[1])
SAME = (build_from_text("H")[1], build_from_text("Q")[1])


def layout(v):
    """The eps terms and their graded terms in stored order (float() sums in it)."""
    return None if v is None else [(p, list(c._terms.items())) for p, c in v._terms.items()]


# half-odd and integer exponents, zero often, so that lam mu = 0 is common
EXPONENTS = st.sampled_from([Fraction(k, 2) for k in range(-4, 7)] + [Fraction(0)] * 4)
# State2D admits only the eps slopes 0 and 1
SLOPES = st.sampled_from([0, 1])
RATIONALS = st.sampled_from([Fraction(k, 2) for k in (-4, -2, -1, 1, 2, 3)])
COEFFS = st.one_of(
    RATIONALS.map(EpsScalar.of),
    st.tuples(RATIONALS, RATIONALS).map(lambda t: EpsScalar.affine(*t)),
    RATIONALS.map(lambda q: EpsScalar.of(GradedScalar.monomial(q, 1, 0))),
)
TERMS = st.lists(st.tuples(st.tuples(EXPONENTS, SLOPES, EXPONENTS, SLOPES), COEFFS), min_size=1, max_size=4)


@st.composite
def planar_states(draw):
    s = State2D(draw(TERMS), draw(st.sampled_from([0, Fraction(1, 2)])))
    for g in draw(st.lists(st.sampled_from(GENERATOR_ORDER), max_size=3)):
        s = ladder_image(g, s)
    return s


def assert_same_eigencheck(op, s):
    if s.is_zero():
        with pytest.raises(DomainError) as want:
            _eigenvalue(apply_2d, op, s)
        with pytest.raises(DomainError) as got:
            eigencheck_2d(op, s)
        assert str(got.value) == str(want.value)
        return
    want = _eigenvalue(apply_2d, op, s)
    got = eigencheck_2d(op, s)
    assert (got is None) == (want is None), s.text()
    assert got == want and layout(got) == layout(want), s.text()


@PROPERTY
@given(planar_states())
def test_closed_form_eigencheck_matches_apply(s):
    for op in (H, Q) + SAME + OTHERS:
        assert_same_eigencheck(op, s)


def test_drawn_states_include_eigenstates_and_zero():
    found = {"energy": 0, "none": 0, "zero": 0}

    @PROPERTY
    @given(planar_states())
    def tally(s):
        if s.is_zero():
            found["zero"] += 1
        elif eigencheck_2d(H, s) is None:
            found["none"] += 1
        else:
            found["energy"] += 1

    tally()
    assert min(found.values()) > 0, found


def test_the_zero_state_raises_the_same_error():
    for renorm in (0, Fraction(1, 2)):
        zero = State2D.zero().with_renorm(renorm)
        for op in (H, Q) + OTHERS:
            assert_same_eigencheck(op, zero)


def test_other_operators_go_through_apply(monkeypatch):
    calls = []

    def counting_apply(op, s):
        calls.append(op)
        return apply_2d(op, s)

    monkeypatch.setattr(algebra2d, "apply_2d", counting_apply)
    vacuum = preset_sector("vacuum", 0).nodes[0].state
    assert eigencheck_2d(H, vacuum) == 1 and eigencheck_2d(SAME[0], vacuum) == 1
    assert eigencheck_2d(OTHERS[1], vacuum) == 2
    assert eigencheck_2d(OTHERS[0], vacuum) is None
    assert calls == [OTHERS[1], OTHERS[0]]


CLOSURES = [(name, 6) for name in PRESET_NAMES] + [
    ("eps:-1", 5),
    ("eps-conj:-2", 5),
    ("omega:1/2,3", 4),
]


def test_closure_applies_no_operator(monkeypatch):
    calls = []

    def counting_apply(op, s):
        calls.append(op)
        return apply_2d(op, s)

    monkeypatch.setattr(algebra2d, "apply_2d", counting_apply)
    monkeypatch.setattr(sectors, "apply_2d", counting_apply)
    for spec, depth in CLOSURES:
        lattice = _load_sector_source(spec, depth)
        assert lattice.node_count() > 1
    assert calls == []


# (seed, depth, H eigenchecks, of them refused, H images built).  The key
# test refuses a non-eigenstate when a key with lam mu != 0 lowers off the
# state.  With a large integer exponent (the benchmark's omega seeds) no
# lowering chain reaches lam mu = 0 within the depth, so every refusal
# builds no image; omega:1/2,3 from depth 3 on has nodes whose chains end
# at mu = 0, 24 of its 122 refusals at depth 4, and those build the image.
KEY_TEST_CASES = [
    ("omega:1/2,9", 4, 127, 127, 0),
    ("omega:7/2,-8", 4, 127, 127, 0),
    ("omega:1/2,3", 2, 17, 17, 0),
    ("omega:1/2,3", 4, 124, 122, 26),
]


@pytest.mark.parametrize("spec, depth, checks, refused, images", KEY_TEST_CASES)
def test_the_key_test_refuses_before_any_image(monkeypatch, spec, depth, checks, refused, images):
    built, values = [], []
    closed_image = algebra2d._closed_image

    def counting_image(row, s):
        built.append((row, s))
        return closed_image(row, s)

    def counting_eigencheck(op, s):
        v = eigencheck_2d(op, s)
        values.append((op, v))
        return v

    monkeypatch.setattr(algebra2d, "_closed_image", counting_image)
    monkeypatch.setattr(sectors, "eigencheck_2d", counting_eigencheck)
    lattice = _load_sector_source(spec, depth)
    energies = [v for op, v in values if op is H]
    assert (len(energies), energies.count(None)) == (checks, refused)
    assert sum("energy" in w for w in lattice.warnings) == refused
    h_row, q_row = algebra2d._CLOSED["H"], algebra2d._CLOSED["Q"]
    assert sum(row is h_row for row, _ in built) == images
    # the seed's charge, and no more: every other charge is a ladder shift
    assert [row for row, _ in built if row is q_row] == [q_row]


# closures that run 258 H and Q eigenchecks between them
HASHED_CLOSURES = [("omega:1/2,9", 4), ("omega:7/2,-8", 4), ("psi0", 4)]


def test_closure_hashes_each_operator_at_most_once(monkeypatch):
    hashed = []
    term_map_hash = _TermMap.__hash__

    def counting_hash(self):
        if isinstance(self, DiffOp2D):
            hashed.append(id(self))
        return term_map_hash(self)

    monkeypatch.setattr(_TermMap, "__hash__", counting_hash)
    for spec, depth in HASHED_CLOSURES:
        assert _load_sector_source(spec, depth).node_count() > 1
    assert max(Counter(hashed).values(), default=0) <= 1


def test_expression_built_h_and_q_take_the_closed_path(monkeypatch):
    # an operator equal to build_op_2d's own H or Q, but another object, is found by equality
    monkeypatch.setattr(algebra2d, "apply_2d", lambda op, s: pytest.fail("applied %s" % op.text()))
    vacuum = preset_sector("vacuum", 0).nodes[0].state
    h, q = DiffOp2D(H._terms), build_from_text("Q + 0")[1]
    assert h == H and h is not H and q == Q and q is not Q
    assert eigencheck_2d(h, vacuum) == 1 and eigencheck_2d(q, vacuum) == 0
