"""Fuzzing of the document loaders, the CLI state specs and the operator DSL.

Sector exports and state documents are mutated in place (values swapped
for small ill-typed or out-of-range ones, keys and elements dropped), and
state specs and expressions are drawn from their own vocabularies with
junk mixed in.  Each input goes through the command line front end the way
a user would pass it.  Every command must print its document or fail with
a coded LabError (exit 1 with {"error": code, ...} on stderr); any other
exception escapes ``main`` and fails the test.  Each example must finish
within the deadline.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kreinosc import eps_sector, lattice_export, omega, preset_sector, solve_vacuum_1d
from kreinosc.cli import main
from kreinosc.errors import LabError
from kreinosc.jsonio import state1d_to_json, state2d_to_json
from kreinosc.opexpr import NAMES_1D, NAMES_2D

CODES = {cls.code for cls in LabError.__subclasses__()}

FUZZ = settings(
    deadline=5000,  # ms per example
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run_coded(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # a usage error, such as "--state=--"
            assert exc.code == 2
            return 2
    if rc:
        assert rc == 1
        doc = json.loads(err.getvalue())
        assert doc["error"] in CODES, doc
    else:
        assert err.getvalue() == ""
    return rc


# ---------------------------------------------------------------------------
# document mutations
# ---------------------------------------------------------------------------

# leaf values of the right JSON type, so that many mutants load and reach
# the analyses
TYPED_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "3/2", "-3/2", "2"]),
)

SMALL_VALUES = st.one_of(
    TYPED_VALUES,
    st.none(),
    st.booleans(),
    st.floats(min_value=-3, max_value=3),
    st.sampled_from(["", "1/0", "x", "1e9999999", "9" * 5000, "b_pp", "b_xx", "1d", "2d", "0.5"]),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=2),
    # fresh containers: a later edit may write into them
    st.builds(dict),
    st.builds(lambda: [{"j": 0, "k": 0, "q": "1"}]),
)


def _paths(doc, prefix=()):
    """(path, value) of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, op, value):
    """Set or drop the value at path; a path that earlier edits removed is skipped."""
    try:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


def mutated(base: dict):
    paths = [p for p, _ in _paths(base)]
    leaves = [p for p, v in _paths(base) if not isinstance(v, (dict, list))]
    edit = st.one_of(
        st.tuples(st.sampled_from(leaves), st.just("set"), TYPED_VALUES),
        st.tuples(st.sampled_from(paths), st.sampled_from(["set", "drop"]), SMALL_VALUES),
    )
    return st.lists(edit, min_size=1, max_size=2).map(lambda edits: _apply(base, edits))


def _apply(base, edits):
    doc = json.loads(json.dumps(base))
    for path, op, value in edits:
        _mutate(doc, path, op, value)
    return doc


SECTOR_DOCS = {
    "vacuum": json.loads(lattice_export(preset_sector("vacuum", 1), "json")),
    "eps": json.loads(lattice_export(eps_sector(-1, 1), "json")),
}

STATE_DOCS = {
    "planar": state2d_to_json(
        omega(Fraction(1, 2), 1) - omega(-1, 0, lam_slope=1).scaled(3)
    ),
    "deformed": state2d_to_json(omega(-1, 0, lam_slope=1).with_renorm(Fraction(1, 2))),
    "line": state1d_to_json(solve_vacuum_1d(1)),
}


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(doc_dir, doc) -> str:
    path = doc_dir / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(SECTOR_DOCS))
def test_mutated_sector_exports_load_or_fail_coded(doc_dir, name):
    @settings(FUZZ, max_examples=150)
    @given(mutated(SECTOR_DOCS[name]))
    def check(doc):
        path = _write(doc_dir, doc)
        run_coded("gram", "--sector", path)
        for fmt in ("dot", "json", "csv"):
            run_coded("export", "--sector", path, "--format", fmt)
        run_coded("dark", "--a", "file:" + path, "--b", "file:" + path, "--degree", "1")

    check()


@pytest.mark.parametrize("name", sorted(STATE_DOCS))
def test_mutated_state_documents_load_or_fail_coded(doc_dir, name):
    @settings(FUZZ, max_examples=150)
    @given(mutated(STATE_DOCS[name]))
    def check(doc):
        spec = "file:" + _write(doc_dir, doc)
        run_coded("inner", "--lhs", spec, "--rhs", spec)
        run_coded("inner", "--lhs", spec, "--rhs", spec, "--renorm")
        run_coded("localize", "--state", spec)
        run_coded("reduce", "--state", spec)

    check()


# ---------------------------------------------------------------------------
# state specs and expressions
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(min_value=-20, max_value=20).map(str),
    st.fractions(min_value=-20, max_value=20, max_denominator=4).map(str),
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
    st.sampled_from(["1e9999999", "1E3", "0.5", "9" * 5000, "1/0", "-0", "+1", "1_0"]),
)

SPECS = st.builds(
    lambda prefix, body: prefix + "".join(body),
    st.sampled_from(["psi0", "omega:", "eps:", "eps-conj:", "file:", "", "omega", "eps-conj"]),
    st.lists(st.one_of(NUMBERS, st.sampled_from([",", "/", "-", " ", ".", "e", ":"])), max_size=4),
)


@settings(FUZZ, max_examples=300)
@given(SPECS)
def test_state_specs_load_or_fail_coded(spec):
    run_coded("inner", "--lhs=" + spec, "--rhs=" + spec)
    run_coded("inner", "--lhs=" + spec, "--rhs=" + spec, "--renorm")
    run_coded("localize", "--state=" + spec)
    run_coded("reduce", "--state=" + spec)
    run_coded("gram", "--seed=" + spec, "--depth", "1")


TOKENS = st.one_of(
    st.sampled_from(sorted(NAMES_1D) + sorted(NAMES_2D)),
    st.sampled_from(list("+-*^()[],@") + [" ", "#", "e", "q"]),
    st.sampled_from(["0", "1", "2", "3", "12", "13", "64", "65", "1/2", "-1/3", "1/0", "9" * 5000]),
)


def _grammar(names):
    """Expressions over one family's names, which mostly parse and build."""
    atoms = st.sampled_from(names + ["0", "1", "2", "1/2", "-1/3"])
    return st.recursive(
        atoms,
        lambda e: st.one_of(
            st.builds("({}){}({})".format, e, st.sampled_from(["+", "-", "*", " "]), e),
            st.builds("({})^{}".format, e, st.integers(min_value=0, max_value=3)),
            st.builds("[{}, {}]".format, e, e),
        ),
        max_leaves=5,
    )


EXPRESSIONS = st.one_of(
    st.lists(TOKENS, max_size=11).map("".join),
    _grammar(sorted(NAMES_2D)),
    _grammar(["H1", "a+@1", "a-@-2", "A+", "A-", "x", "D"]),
)


@settings(FUZZ, max_examples=300)
@given(EXPRESSIONS)
def test_expressions_build_or_fail_coded(expr):
    run_coded("eval", "--expr=" + expr)
    run_coded("eval", "--expr=" + expr, "--state", "psi0")
