"""The ladder table algebra2d._LADDER is the one statement of the generators.

Closure, the dark scan and the audit read it, and nothing derives it from
operator products at run time: a wrong row fails exactly the audit
relations that restate it, and the shifts and commutation pairs that
closure and the dark scan use are the table's own.
"""

import pytest

from kreinosc import algebra1d, algebra2d, sectors
from kreinosc.sectors import PRESET_NAMES, dark_check, identity_audit, preset_sector

ROW_CHANGES = [
    # (generator, changed column and value, relations that must fail)
    ("b_pm", {"dE": -1}, {"hamiltonian-ladder-action"}),
    ("b_mm", {"dQ": -1}, {"charge-ladder-action"}),
    ("b_pp", {"conj": "b_mm"}, {"plus-ladder-commutator", "cross-ladder-commutators"}),
]


# the two claims the audit reports as failing, with their corrected forms
CORRECTED = {"hamiltonian-bilinear-form", "charge-bilinear-form"}


def failing(verdicts):
    return {v.identity_id for v in verdicts if not v.holds}


def test_the_table_passes_the_audit():
    assert failing(identity_audit()) == CORRECTED


@pytest.mark.parametrize("g, change, fails", ROW_CHANGES)
def test_a_wrong_row_fails_the_relations_that_restate_it(monkeypatch, g, change, fails):
    row = algebra2d._LADDER[g]._replace(**change)
    monkeypatch.setitem(algebra2d._LADDER, g, row)
    assert failing(identity_audit()) == fails | CORRECTED
    energy, charge = sectors._ladder_shifts("H"), sectors._ladder_shifts("Q")
    shifts, commuting = sectors._ladder_algebra()
    assert (energy[g], charge[g], shifts[g]) == (row.dE, row.dQ, row.dQ)
    conjugates = {(h, r.conj) for h, r in algebra2d._LADDER.items() if r.conj}
    assert not conjugates & commuting
    assert not {(c, h) for h, c in conjugates} & commuting
    assert len(commuting) == 12 - 2 * len(conjugates)


def test_a_swapped_conjugate_moves_the_vacuum_check(monkeypatch):
    monkeypatch.setitem(algebra2d._LADDER, "b_pp", algebra2d._LADDER["b_pp"]._replace(conj="b_mm"))
    verdicts = {v.identity_id: v for v in identity_audit()}
    plus = verdicts["vacuum-annihilation-plus"]
    assert (plus.lhs, plus.holds) == ("b-- Psi0", True)
    cross = verdicts["cross-ladder-commutators"]
    assert cross.lhs == "[b-+, b++], [b-+, b+-], [b++, b+-], [b-+, b--]"
    assert cross.residual == "1"


def test_closure_and_the_dark_scan_form_no_operator_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("an operator product was formed")

    monkeypatch.setattr(algebra1d, "_compose", refuse)
    monkeypatch.setattr(algebra2d, "_compose", refuse)
    sectors._scan_words.cache_clear()
    for name in PRESET_NAMES:
        preset_sector(name, 4)
    vacuum = preset_sector("vacuum", 3)
    assert dark_check(vacuum, vacuum, 4).monomials == 341
