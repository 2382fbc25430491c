"""The dot and csv sector exports print what the writers they replaced printed.

``lattice_export`` writes both forms as a list of lines from format
strings, joined once, after one sort of the nodes and edges.  The writers
it replaced are kept here as the oracle: the dot loop, and the csv form of
``csv.DictWriter`` over one dict per row.  No field of either form needs
quoting (each is an int, ``?``, a generator name or an ``EpsScalar`` text),
so the csv module reads every line back as the plain split on commas.
"""

import csv
import io
import json
from fractions import Fraction
from functools import partial

import pytest

from kreinosc import Edge, EpsScalar, Node, SectorLattice, UnsupportedFormat, omega, sectors
from kreinosc.sectors import (
    GENERATOR_ORDER,
    PRESET_NAMES,
    eps_conj_sector,
    eps_sector,
    generate_sector,
    lattice_export,
    lattice_from_json,
    preset_sector,
)

COLUMNS = "kind index depth energy charge src dst generator num den".split()


def eps_text(v) -> str:
    return "?" if v is None else v.text()


def oracle_dot(lattice) -> str:
    lines = ["digraph sector {"]
    lines.append('  rankdir="BT";')
    for n in sectors._sorted_nodes(lattice):
        lines.append('  n%d [label="%d: %s"];' % (n.index, n.index, n.label()))
    for e in sectors._sorted_edges(lattice):
        lines.append(
            '  n%d -> n%d [label="%s: %s"];'
            % (e.src, e.dst, e.generator, e.coeff_text())
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_csv(lattice) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, COLUMNS, lineterminator="\n")  # a missing column is blank
    w.writeheader()
    for n in sectors._sorted_nodes(lattice):
        energy, charge = eps_text(n.energy), eps_text(n.charge)
        w.writerow(dict(kind="node", index=n.index, depth=n.depth, energy=energy, charge=charge))
    for e in sectors._sorted_edges(lattice):
        num, den = e.num.text(), e.den.text()
        w.writerow(dict(kind="edge", src=e.src, dst=e.dst, generator=e.generator, num=num, den=den))
    return buf.getvalue()


def hand_built() -> SectorLattice:
    """Two nodes joined by an edge whose factor has a deformed denominator."""
    a, b = omega(-1, 0, lam_slope=1), omega(-2, 0, lam_slope=1)
    nodes = (
        Node(0, a, EpsScalar.affine(-1, 1), EpsScalar.affine(1, -1), 0),
        Node(1, b, None, None, 1),
    )
    edge = Edge(0, 1, "b_mm", EpsScalar.affine(Fraction(-3, 2), 2), EpsScalar.affine(-1, 1))
    return SectorLattice("eps:-1", ("b_pp", "b_mm"), 1, nodes, (edge,))


def reloaded() -> SectorLattice:
    return lattice_from_json(json.loads(lattice_export(eps_conj_sector(-1, 3), "json")))


LATTICES = {
    **{"%s@%d" % (name, depth): partial(preset_sector, name, depth)
       for name in PRESET_NAMES for depth in range(7)},
    **{"%s:%s" % (form.__name__, c): partial(form, c, 3) for form in (eps_sector, eps_conj_sector)
       for c in (Fraction(-1), Fraction(-2), Fraction(-1, 2))},
    "unknown charges": partial(generate_sector, omega(1, 0) + omega(0, 1), GENERATOR_ORDER, 2),
    "deformed denominator": hand_built,
    "reloaded": reloaded,
}


@pytest.mark.parametrize("key", sorted(LATTICES))
def test_the_line_writers_print_the_oracle(key):
    lattice = LATTICES[key]()
    assert lattice_export(lattice, "dot") == oracle_dot(lattice)
    assert lattice_export(lattice, "csv") == oracle_csv(lattice)


def test_the_cases_cover_unknown_charges_and_deformed_denominators():
    mixed = LATTICES["unknown charges"]()
    assert any(n.charge is None for n in mixed.nodes)
    assert ",?,,,,," in lattice_export(mixed, "csv")
    assert '[label="b_mm: (-3/2+2*e)/(-1+e)"]' in lattice_export(hand_built(), "dot")


@pytest.mark.parametrize("key", sorted(LATTICES))
def test_no_field_is_quoted(key):
    lattice = LATTICES[key]()
    lines = lattice_export(lattice, "csv").splitlines()
    read = list(csv.reader(lines))
    assert len(read) == len(lines) == 1 + len(lattice.nodes) + len(lattice.edges)
    for line, row in zip(lines, read):
        assert len(row) == len(COLUMNS)
        assert row == line.split(",")
    for line in lattice_export(lattice, "dot").splitlines()[2:-1]:
        assert line.count('"') == 2


@pytest.mark.parametrize("fmt", ["svg", []])
def test_an_unsupported_format_is_refused_before_any_sort(monkeypatch, fmt):
    calls = []
    sort = sectors._sorted_nodes
    monkeypatch.setattr(sectors, "_sorted_nodes", lambda lattice: calls.append(1) or sort(lattice))
    with pytest.raises(UnsupportedFormat) as info:
        lattice_export(preset_sector("vacuum", 1), fmt)
    assert str(info.value) == "unsupported export format %r; choose from dot, json, csv" % (fmt,)
    assert calls == []
