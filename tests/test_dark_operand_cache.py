"""``kreinosc dark`` closes each preset or seed operand once per process.

The CLI keeps the lattices of its last ``cli.SECTOR_CACHE_SIZE`` dark-scan
operands, keyed by (spec text, depth).  A ``file:`` operand is read on every
call, a failing operand fails the same way every time, and the library
functions under the cache (``_load_sector_source``, ``preset_sector``) keep
closing afresh.
"""

import contextlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from kreinosc import cli
from kreinosc.algebra2d import omega, psi0
from kreinosc.jsonio import state2d_to_json
from kreinosc.sectors import preset_sector

README = Path(__file__).resolve().parent.parent / "README.md"
# every `dark --a ... --b ...` example of the README, and the refused one it describes
EXAMPLES = re.findall(
    r"\bdark\s+(--a \S+ --b \S+(?: --depth \d+)?(?: --degree \d+)?)",
    README.read_text(encoding="utf-8"),
) + ["--a vacuum --b vacuum --depth 6 --degree 5"]


def _dark(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["dark", *args])
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def closures(monkeypatch):
    """The (spec, depth) of every operand that is closed or read."""
    calls = []
    real = cli._load_sector_source

    def spy(spec, depth):
        calls.append((spec, depth))
        return real(spec, depth)

    monkeypatch.setattr(cli, "_load_sector_source", spy)
    return calls


def test_repeated_operands_are_closed_once(closures):
    small = ("--depth", "1", "--degree", "2")
    assert _dark("--a", "vacuum", "--b", "omega:-7/2,8", *small)[0] == 0
    assert _dark("--a", "omega:-7/2,8", "--b", "vacuum", *small)[0] == 0
    assert _dark("--a", "vacuum", "--b", "vacuum", *small)[0] == 0
    assert closures == [("vacuum", 1), ("omega:-7/2,8", 1)]
    # the depth and the spec text are part of the key
    assert _dark("--a", "vacuum", "--b", "omega:-7/2,8", "--depth", "2", "--degree", "2")[0] == 0
    assert _dark("--a", "omega:-14/4,8", "--b", "vacuum", *small)[0] == 0
    assert closures[2:] == [("vacuum", 2), ("omega:-7/2,8", 2), ("omega:-14/4,8", 1)]


def test_a_cached_operand_is_the_same_lattice():
    first = cli._closed_operand("half-zbar", 2)
    assert cli._closed_operand("half-zbar", 2) is first
    assert cli._closed_operand("half-zbar", 3) is not first


def test_the_library_functions_do_not_cache():
    assert cli._load_sector_source("vacuum", 2) is not cli._load_sector_source("vacuum", 2)
    assert cli._load_sector_source("psi0", 2) is not cli._load_sector_source("psi0", 2)
    assert preset_sector("vacuum", 2) is not preset_sector("vacuum", 2)


def test_the_readme_examples_are_read_from_the_readme():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("example", EXAMPLES)
def test_output_does_not_depend_on_the_cache(example):
    args = example.split()
    fresh = _dark(*args)
    warm = _dark(*args)
    cli._closed_operand.cache_clear()
    assert warm == fresh == _dark(*args)
    assert fresh[0] == (1 if "--depth 6" in example else 0)


def test_a_file_operand_is_read_on_every_call(tmp_path, closures):
    path = tmp_path / "state.json"
    args = ("--a", "file:%s" % path, "--b", "vacuum", "--depth", "2", "--degree", "2")
    path.write_text(json.dumps(state2d_to_json(psi0())), encoding="utf-8")
    first = _dark(*args)
    path.write_text(json.dumps(state2d_to_json(omega(Fraction(1, 3), 0))), encoding="utf-8")
    second = _dark(*args)
    assert json.loads(first[1])["dark"] is False  # psi0 is a node of the vacuum sector
    assert json.loads(second[1])["dark"] is True  # charge -1/3 meets no vacuum charge
    cli._closed_operand.cache_clear()
    assert _dark(*args) == second
    assert [spec for spec, _ in closures].count("file:%s" % path) == 3
    assert cli._closed_operand.cache_info().currsize == 1  # the vacuum only


def test_a_failing_operand_fails_alike_and_is_not_cached(closures):
    args = ("--a", "omega:1/2,3", "--b", "vacuum", "--depth", "16")
    first = _dark(*args)
    assert first[0] == 1
    assert json.loads(first[2])["error"] == "depth-exceeded"
    assert _dark(*args) == first
    assert closures == [("omega:1/2,3", 16)] * 2
    assert cli._closed_operand.cache_info().currsize == 0


def test_the_cache_keeps_at_most_its_size():
    specs = ["omega:%d,0" % k for k in range(cli.SECTOR_CACHE_SIZE + 1)]
    for spec in specs:
        assert _dark("--a", spec, "--b", spec, "--depth", "1", "--degree", "0")[0] == 0
        assert cli._closed_operand.cache_info().currsize <= cli.SECTOR_CACHE_SIZE
    info = cli._closed_operand.cache_info()
    assert info.currsize == info.maxsize == cli.SECTOR_CACHE_SIZE
    assert (info.hits, info.misses) == (len(specs), len(specs))
