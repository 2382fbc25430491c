"""The mirror deformation on the z exponent, built through its library entry."""

from __future__ import annotations

import pytest

from kreinosc import eps_conj_sector, eps_sector, quotient_report
from kreinosc.cli import main
from kreinosc.sectors import EXPORT_FORMATS, lattice_export

DEPTH = 3


@pytest.mark.parametrize("fmt", EXPORT_FORMATS)
@pytest.mark.parametrize("mu", [-1, -2])
def test_exports_equal_the_cli_eps_conj_seed(capsys, mu, fmt):
    text = lattice_export(eps_conj_sector(mu, DEPTH), fmt)
    rc = main(["export", "--seed", "eps-conj:%d" % mu, "--depth", str(DEPTH), "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out == text


@pytest.mark.parametrize("const", [-1, -2])
def test_mirrors_the_zbar_deformation(const):
    zbar, z = eps_sector(const, DEPTH), eps_conj_sector(const, DEPTH)
    assert z.node_count() == zbar.node_count()
    blocks = quotient_report(zbar).blocks
    mirror = quotient_report(z).blocks[::-1]  # charges change sign, so the order reverses
    assert [b.charge for b in mirror] == [-b.charge for b in blocks]
    assert [b.signature for b in mirror] == [b.signature for b in blocks]
