"""The radial bridge forms each second-order product once.

bridge_audit composes b_pp b_pm and b_mp b_mm once each and reuses both
products for their order checks and for the towers, so it makes four
compose_2d calls at any depth.
"""

import pytest

from kreinosc import radial


@pytest.mark.parametrize("n_max", [0, 2, 4])
def test_the_bridge_makes_four_products(n_max, monkeypatch):
    calls = []
    compose = radial.compose_2d

    def counted(f, g):
        calls.append((f, g))
        return compose(f, g)

    monkeypatch.setattr(radial, "compose_2d", counted)
    report = radial.bridge_audit(n_max)
    assert len(calls) == 4
    assert report["all_ok"]
    assert len(report["checks"]) == 2 * n_max + 5
