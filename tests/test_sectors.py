"""Sector lattices: generation, Gram data, darkness, the identity audit."""

from fractions import Fraction

import pytest

from kreinosc import (
    DarkEntry,
    DomainError,
    EpsScalar,
    GradedScalar,
    State2D,
    UnsupportedFormat,
    build_op_2d,
    omega,
    psi0,
)
from kreinosc.opexpr import build_from_text
from kreinosc.sectors import (
    GENERATOR_ORDER,
    MAX_DARK_DEGREE,
    MAX_DEPTH,
    PRESET_NAMES,
    _RELATIONS,
    Node,
    SectorLattice,
    classify_limit,
    dark_check,
    eps_sector,
    generate_sector,
    gram,
    identity_audit,
    lattice_export,
    lattice_from_json,
    preset_sector,
    quotient_report,
)

HALF = Fraction(1, 2)


def eq_pairs(lattice):
    return [(n.energy.text(), n.charge.text()) for n in lattice.nodes]


# ---------------------------------------------------------------------------
# generation


def test_preset_inventory():
    assert PRESET_NAMES == ("vacuum", "half-zbar", "half-z")
    assert GENERATOR_ORDER == ("b_pp", "b_pm", "b_mp", "b_mm")
    with pytest.raises(DomainError):
        preset_sector("fig-1", 1)


def test_vacuum_sector_depth_two():
    lat = preset_sector("vacuum", 2)
    assert lat.seed_text == "psi0"
    assert lat.generators == ("b_pp", "b_pm")
    assert lat.warnings == ()
    assert lat.node_count() == 6
    assert eq_pairs(lat) == [
        ("1", "0"),
        ("2", "1"),
        ("2", "-1"),
        ("3", "2"),
        ("3", "0"),
        ("3", "-2"),
    ]
    # the charge-zero excited node is a genuine two-term combination
    assert lat.nodes[4].state.text() == "-1*zbar^(0)*z^(0) + 1*zbar^(1)*z^(1)"
    first = lat.edges[0]
    assert (first.src, first.dst, first.generator) == (0, 1, "b_pp")
    assert first.num == EpsScalar.one() and first.den == EpsScalar.one()


def test_commuting_raises_merge_into_one_node():
    # b_pp b_pm and b_pm b_pp reach the same state, so node 4 collects
    # one edge from each branch instead of splitting
    lat = preset_sector("vacuum", 2)
    into_four = [e for e in lat.edges if e.dst == 4]
    assert sorted(e.generator for e in into_four) == ["b_pm", "b_pp"]
    assert {e.src for e in into_four} == {1, 2}


def test_half_zbar_sector_depth_one():
    lat = preset_sector("half-zbar", 1)
    assert [n.state.text() for n in lat.nodes] == [
        "1*zbar^(1/2)*z^(0)",
        "-1/2*zbar^(-1/2)*z^(0) + 1*zbar^(1/2)*z^(1)",
        "1*zbar^(3/2)*z^(0)",
        "1*zbar^(-1/2)*z^(0)",
    ]
    assert eq_pairs(lat) == [
        ("3/2", "-1/2"),
        ("5/2", "1/2"),
        ("5/2", "-3/2"),
        ("1/2", "1/2"),
    ]
    lowering = [e for e in lat.edges if e.generator == "b_mm"]
    assert len(lowering) == 1
    edge = lowering[0]
    assert (edge.src, edge.dst) == (0, 3)
    # node states are kept monic, so the half survives on the edge
    assert edge.num == EpsScalar.of(HALF) and edge.den == EpsScalar.one()


def test_generation_is_deterministic():
    a = generate_sector(psi0(), ("b_pp", "b_pm"), depth=3)
    b = generate_sector(psi0(), ("b_pp", "b_pm"), depth=3)
    assert [n.state.text() for n in a.nodes] == [n.state.text() for n in b.nodes]
    assert a.edges == b.edges
    assert lattice_export(a, "json") == lattice_export(b, "json")


def test_generation_guards():
    with pytest.raises(DomainError):
        generate_sector(psi0(), ("b_pp",), depth=MAX_DEPTH + 1)
    with pytest.raises(DomainError):
        generate_sector(psi0(), ("b_pp",), depth=-1)
    with pytest.raises(DomainError):
        generate_sector(psi0(), ("b_xx",), depth=1)
    with pytest.raises(DomainError):
        generate_sector(State2D.zero(), ("b_pp",), depth=1)


def test_seed_eigenstate_warnings():
    skew = generate_sector(omega(2, 3), ("b_pp",), depth=0)
    assert skew.warnings == ("node 0 is not an energy eigenstate",)
    mixed = State2D(omega(1, 0).terms() + omega(0, 1).terms())
    assert generate_sector(mixed, ("b_pp",), depth=0).warnings == (
        "node 0 is not a charge eigenstate",
    )


# ---------------------------------------------------------------------------
# Gram data


def test_gram_half_zbar_negative_charge_block():
    g = gram(preset_sector("half-zbar", 2), Fraction(-1, 2))
    assert g.node_indices == (0, 5)
    assert not g.renormalized
    assert [[x.text() for x in row] for row in g.entries] == [
        ["1/2*pi^(3/2)", "0"],
        ["0", "3/4*pi^(3/2)"],
    ]
    assert g.signature == (2, 0, 0)
    assert g.kernel == ()


def test_gram_half_zbar_positive_charge_block():
    g = gram(preset_sector("half-zbar", 2), HALF)
    assert g.node_indices == (1, 3)
    assert [[x.text() for x in row] for row in g.entries] == [
        ["1/2*pi^(3/2)", "0"],
        ["0", "1*pi^(3/2)"],
    ]
    assert g.signature == (2, 0, 0)


def test_gram_charge_addressing_errors():
    lat = preset_sector("vacuum", 1)
    with pytest.raises(DomainError):
        gram(lat, Fraction(7))
    # two eps-dependent charges sharing a constant part cannot be
    # addressed by that constant alone
    n0 = Node(0, omega(-2, 0), EpsScalar.of(-1), EpsScalar.affine(2, 0), 0)
    n1 = Node(
        1,
        omega(-2, 0, lam_slope=1),
        EpsScalar.affine(-1, 1),
        EpsScalar.affine(2, -1),
        0,
    )
    manual = SectorLattice(
        seed_text="manual",
        generators=("b_pp",),
        depth=0,
        nodes=(n0, n1),
        edges=(),
    )
    with pytest.raises(DomainError):
        gram(manual, 2)


def test_gram_skips_and_quotient_report_refuses_a_charge_less_node():
    # psi0 + z is no charge eigenstate; b-+ lowers it onto psi0, which is one
    lat = generate_sector(psi0() + omega(0, 1), ("b_mp",), 1)
    assert [n.charge is None for n in lat.nodes] == [True, False]
    assert gram(lat, 0).node_indices == (1,)
    with pytest.raises(DomainError, match="node 0 has no charge eigenvalue"):
        quotient_report(lat)


# ---------------------------------------------------------------------------
# deformed sectors


def test_eps_sector_depth_one():
    lat = eps_sector(-1, 1)
    assert lat.seed_text == "eps:-1"
    assert lat.generators == ("b_pp", "b_pm", "b_mm")
    assert eq_pairs(lat) == [
        ("e", "1-e"),
        ("1+e", "2-e"),
        ("1+e", "-e"),
        ("-1+e", "2-e"),
    ]
    assert [n.state.text() for n in lat.nodes] == [
        "1*zbar^(-1+e)*z^(0)",
        "(1-e)*zbar^(-2+e)*z^(0) + 1*zbar^(-1+e)*z^(1)",
        "1*zbar^(0+e)*z^(0)",
        "(-1+e)*zbar^(-2+e)*z^(0)",
    ]
    assert [classify_limit(n.state) for n in lat.nodes] == [
        "singular",
        "singular",
        "ordinary",
        "singular",
    ]


def test_classify_limit_on_raw_states():
    assert classify_limit(omega(0, 0, lam_slope=1)) == "ordinary"
    assert classify_limit(omega(-1, 0, lam_slope=1)) == "singular"


def test_classify_limit_calls_a_vanishing_limit_ordinary():
    s = omega(0, 0, lam_slope=1).scaled(EpsScalar.affine(0, 1))  # coefficient e
    assert s.limit_eps0().is_zero()
    assert classify_limit(s) == "ordinary"


def test_eps_quotient_depth_two():
    report = quotient_report(eps_sector(-1, 2))
    assert report.dim_total == 9
    assert report.dim_null == 3
    assert report.dim_total - report.dim_null == 6
    by_charge = {block.charge.text(): block for block in report.blocks}
    assert set(by_charge) == {"-1-e", "-e", "1-e", "2-e", "3-e"}
    for block in report.blocks:
        assert block.renormalized
    # the ordinary node is null in the renormalized pairing
    lone = by_charge["-e"]
    assert lone.node_indices == (2,)
    assert lone.entries[0][0].is_zero()
    assert lone.signature == (0, 0, 1)
    assert lone.kernel == ((GradedScalar.one(),),)
    hyper = by_charge["2-e"]
    assert [[x.text() for x in row] for row in hyper.entries] == [
        ["1*pi", "0"],
        ["0", "-1*pi"],
    ]
    assert hyper.signature == (1, 1, 0)
    assert hyper.kernel == ()
    tail = by_charge["1-e"]
    assert tail.signature == (1, 0, 1)
    assert tail.kernel == ((GradedScalar.zero(), GradedScalar.one()),)


# ---------------------------------------------------------------------------
# darkness


def test_dark_check_between_the_half_sectors():
    report = dark_check(preset_sector("half-zbar", 1), preset_sector("half-z", 1), 2)
    assert not report.is_dark
    assert (report.nodes_a, report.nodes_b) == (4, 4)
    assert report.monomials == 21
    assert report.pairs_checked == 51
    assert len(report.entries) == 51
    head = [
        (e.monomial, e.node_a, e.node_b, e.value.text()) for e in report.entries[:8]
    ]
    assert head == [
        ("1", 0, 2, "1/2*pi"),
        ("1", 0, 3, "1*pi"),
        ("1", 1, 0, "1/2*pi"),
        ("1", 3, 0, "1*pi"),
        ("b_pp", 1, 2, "3/4*pi"),
        ("b_pp", 1, 3, "1/2*pi"),
        ("b_pp", 3, 2, "-1/2*pi"),
        ("b_pp", 3, 3, "1*pi"),
    ]
    assert all(isinstance(e, DarkEntry) and e.note == "" for e in report.entries)


def test_integer_and_half_integer_charges_never_talk():
    report = dark_check(preset_sector("vacuum", 1), preset_sector("half-zbar", 1), 2)
    assert report.is_dark
    assert report.pairs_checked == 0
    assert report.entries == ()


def test_dark_entry_of_a_divergent_pairing():
    b = generate_sector(omega(-1, 0, lam_slope=1), (), 0)
    report = dark_check(eps_sector(-1, 1), b, 0)
    assert not report.is_dark
    assert report.pairs_checked == 1
    assert [(e.monomial, e.node_a, e.node_b, e.note) for e in report.entries] == [
        ("1", 0, 0, "divergent")
    ]
    assert report.entries[0].value is None


def test_dark_degree_bounds():
    a = preset_sector("vacuum", 1)
    with pytest.raises(DomainError):
        dark_check(a, a, MAX_DARK_DEGREE + 1)
    with pytest.raises(DomainError):
        dark_check(a, a, -1)


# ---------------------------------------------------------------------------
# export and import


def test_export_formats_are_stable():
    for fmt in ("dot", "json", "csv"):
        one = lattice_export(preset_sector("half-zbar", 2), fmt)
        two = lattice_export(preset_sector("half-zbar", 2), fmt)
        assert one == two


def test_dot_export_shape():
    text = lattice_export(preset_sector("vacuum", 1), "dot")
    assert text.startswith("digraph sector {")
    assert 'n0 [label="0: E=1, Q=0"];' in text
    assert 'n0 -> n1 [label="b_pp: 1"];' in text


def test_unknown_format_is_refused():
    with pytest.raises(UnsupportedFormat):
        lattice_export(preset_sector("vacuum", 1), "pdf")


def test_json_round_trip_preserves_everything():
    import json as jsonlib

    lat = eps_sector(-1, 2)
    doc = lattice_export(lat, "json")
    back = lattice_from_json(jsonlib.loads(doc))
    assert lattice_export(back, "json") == doc
    assert [n.state.text() for n in back.nodes] == [n.state.text() for n in lat.nodes]
    # exports order edges canonically; compare as multisets
    key = lambda e: (e.src, e.dst, e.generator)
    assert sorted(back.edges, key=key) == sorted(lat.edges, key=key)


def test_lattice_from_json_rejects_malformed_documents():
    import json as jsonlib

    good = jsonlib.loads(lattice_export(preset_sector("vacuum", 1), "json"))
    for mutate in (
        lambda d: d.pop("nodes"),
        lambda d: d["nodes"].clear(),
        lambda d: d.update(generators=["b_xx"]),
        lambda d: d["nodes"][0].update(index=5),
        lambda d: d["edges"][0].update(dst=99),
    ):
        doc = jsonlib.loads(jsonlib.dumps(good))
        mutate(doc)
        with pytest.raises(DomainError):
            lattice_from_json(doc)
    with pytest.raises(DomainError):
        lattice_from_json(["not", "a", "mapping"])


@pytest.mark.parametrize("warnings", [None, 0, "ab", {"a": 1}, ["ok", 3], [None]])
def test_lattice_warnings_must_be_a_list_of_strings(warnings):
    import json as jsonlib

    doc = jsonlib.loads(lattice_export(preset_sector("vacuum", 1), "json"))
    doc["warnings"] = warnings
    with pytest.raises(DomainError) as err:
        lattice_from_json(doc)
    assert str(err.value) == "sector document warnings must be a list of strings"


def test_lattice_warnings_may_be_absent():
    import json as jsonlib

    doc = jsonlib.loads(lattice_export(preset_sector("vacuum", 1), "json"))
    doc["warnings"] = ["node 0 is not an energy eigenstate"]
    assert lattice_from_json(doc).warnings == ("node 0 is not an energy eigenstate",)
    del doc["warnings"]
    assert lattice_from_json(doc).warnings == ()


# ---------------------------------------------------------------------------
# identity audit


def test_audit_inventory_and_failures():
    verdicts = identity_audit()
    assert len(verdicts) == 17
    by_id = {v.identity_id: v for v in verdicts}
    failed = sorted(v.identity_id for v in verdicts if v.status == "FAIL")
    assert failed == ["charge-bilinear-form", "hamiltonian-bilinear-form"]
    for v in verdicts:
        if v.status == "PASS":
            assert v.residual == "0"
            assert v.corrected_form is None
            assert v.holds
        else:
            assert v.residual != "0"
            assert v.corrected_form is not None
            assert not v.holds
    h = by_id["hamiltonian-bilinear-form"]
    assert h.residual == "-1/2 + 1/4*zbar^(1)*z^(1) - 1/4*dzbar*dz"
    assert h.corrected_form == "b++ b-+ + b+- b-- + 1"
    q = by_id["charge-bilinear-form"]
    assert q.residual == "1/4*z^(1)*dz - 1/4*zbar^(1)*dzbar"
    assert q.corrected_form == "b++ b-+ - b+- b--"


def test_audit_checks_the_operator_relations_it_prints():
    verdicts = {v.identity_id: v for v in identity_audit()}
    assert len(_RELATIONS) == 10
    for id_, pairs, *corrected in _RELATIONS:
        v = verdicts[id_]
        lhs, rhs = zip(*pairs)
        assert v.lhs == ", ".join(lhs)
        assert v.rhs == (rhs[0] if len(set(rhs)) == 1 else ", ".join(rhs))
        residuals = [build_from_text("%s - (%s)" % pair)[1] for pair in pairs]
        assert v.holds == all(r.is_zero() for r in residuals)
        assert v.corrected_form == (None if v.holds else corrected[0])


def test_corrected_forms_parse_back_to_the_generators():
    verdicts = {v.identity_id: v for v in identity_audit()}
    space, h_op = build_from_text(
        verdicts["hamiltonian-bilinear-form"].corrected_form
    )
    assert space == "2d"
    assert h_op.terms() == build_op_2d("H").terms()
    space, q_op = build_from_text(verdicts["charge-bilinear-form"].corrected_form)
    assert space == "2d"
    assert q_op.terms() == build_op_2d("Q").terms()


def test_line_factorizations_are_machine_checkable():
    verdicts = {v.identity_id: v for v in identity_audit()}
    for key in ("line-factorization-alpha-plus", "line-factorization-alpha-minus"):
        v = verdicts[key]
        assert v.status == "PASS"
        lhs_space, lhs = build_from_text(v.lhs)
        rhs_space, rhs = build_from_text(v.rhs)
        assert lhs_space == rhs_space == "1d"
        assert lhs.terms() == rhs.terms()
