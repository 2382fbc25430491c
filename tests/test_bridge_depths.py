"""The radial bridge passes at every accepted depth.

``bridge_audit`` accepts n_max from 0 to 10.  At each of them every
lowering step leaves a nonzero planar and line state, so the report has
its full 2 n_max + 5 checks: two order checks, n_max + 1 raising steps,
n_max lowering steps and the two alpha = -2 checks.
"""

import pytest

from kreinosc.radial import bridge_audit


@pytest.mark.parametrize("n_max", range(11))
def test_every_accepted_depth_passes_with_all_its_checks(n_max):
    report = bridge_audit(n_max)
    assert report["n_max"] == n_max
    assert report["all_ok"] is True
    assert len(report["checks"]) == 2 * n_max + 5
    lowered = [c for c in report["checks"] if c["id"].startswith("lower-transport-")]
    assert [c["id"] for c in lowered] == ["lower-transport-alpha-plus-k%d" % k
                                         for k in range(1, n_max + 1)]
