"""jsonio.dumps prints json.dumps(sort_keys=True, indent=2), byte for byte.

Every indented document the lab prints (the CLI's stdout and the json
sector export) comes from this one emitter, so no command reaches the
pure-Python indented path of the json module, and the emitter's peak
memory on a large export stays below json.dumps's.
"""

import argparse
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kreinosc import cli, sectors
from kreinosc.cli import main
from kreinosc.jsonio import dumps

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# quote, backslash, control, non-ASCII, astral and lone-surrogate characters
SPECIAL = st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€ 😀\ud800')
TEXT = st.text(st.one_of(SPECIAL, st.characters()), max_size=8)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    FLOATS,
    TEXT,
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


@PROPERTY
@given(VALUES)
def test_dumps_is_json_dumps_sorted_and_indented(obj):
    assert dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[[]], {"": [{}]}],
        {"z": 1, "a": 2, "A": 3, "é": 4, "": 5},
        2**64 + 1,
        -(2**100),
        [True, False, None, 0, -0.0, 1e300, math.nan, math.inf, -math.inf],
        'quote " backslash \\ nul \x00 bell \x07 é 😀',
    ],
)
def test_pinned_values(obj):
    assert dumps(obj) == reference(obj)


def test_unsupported_values_raise_the_same_type_error():
    for obj in (Fraction(1, 3), {"q": [Fraction(1, 3)]}, {1, 2}):
        with pytest.raises(TypeError) as ours:
            dumps(obj)
        with pytest.raises(TypeError) as theirs:
            reference(obj)
        assert str(ours.value) == str(theirs.value)


def test_a_key_that_is_not_a_str_raises_type_error():
    for obj in ({1: "x"}, {"a": {2: None}}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            dumps(obj)


# One call of every subcommand, and export in each format, to stdout and to a file.
CALLS = [
    ["audit", "--bridge-depth", "2"],
    ["spectrum", "--alpha", "1", "--n", "3"],
    ["vacuum", "--alpha", "1"],
    ["inner", "--lhs", "psi0", "--rhs", "psi0"],
    ["inner", "--lhs", "eps:-1", "--rhs", "eps:-1", "--renorm"],
    ["sector", "--preset", "vacuum", "--depth", "2"],
    ["gram", "--preset", "half-zbar", "--depth", "2"],
    ["dark", "--a", "vacuum", "--b", "half-zbar", "--depth", "1", "--degree", "2"],
    ["localize", "--state", "omega:-1,0"],
    ["reduce", "--state", "omega:-3/2,0", "--charge", "3/2"],
    ["eval", "--expr", "[b-+, b++]", "--state", "psi0"],
    ["export", "--preset", "vacuum", "--depth", "2", "--format", "json"],
    ["export", "--preset", "vacuum", "--depth", "2", "--format", "csv"],
    ["export", "--preset", "vacuum", "--depth", "2", "--format", "dot"],
    ["export", "--preset", "vacuum", "--depth", "2", "--format", "json", "--out", "{tmp}"],
]


def test_no_command_calls_json_dumps_with_an_indent(monkeypatch, capsys, tmp_path):
    (subcommands,) = (
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert {argv[0] for argv in CALLS} == set(subcommands)
    indented = []
    real_dumps, real_init = json.dumps, json.JSONEncoder.__init__

    def spy_dumps(obj, *args, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(("json.dumps", kwargs["indent"]))
        return real_dumps(obj, *args, **kwargs)

    def spy_init(self, *args, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(("JSONEncoder", kwargs["indent"]))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy_dumps)
    monkeypatch.setattr(json.JSONEncoder, "__init__", spy_init)
    documents = []
    for argv in CALLS:
        argv = [a.replace("{tmp}", str(tmp_path / "sector.json")) for a in argv]
        assert main(argv) == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        if "csv" not in argv and "dot" not in argv:
            documents.append(out)
    assert indented == []
    monkeypatch.undo()
    for out in documents:
        assert out == reference(json.loads(out)) + "\n"


def test_the_emitter_peaks_below_json_dumps_on_a_large_export(monkeypatch, capsys):
    payloads = []
    monkeypatch.setattr(sectors, "dumps", lambda obj: payloads.append(obj) or dumps(obj))
    assert main(["sector", "--preset", "half-zbar", "--depth", "10"]) == 0
    capsys.readouterr()
    (payload,) = payloads

    def traced_peak(f):
        tracemalloc.start()
        try:
            text = f(payload)
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    ours, text = traced_peak(dumps)
    theirs, expected = traced_peak(reference)
    assert text == expected
    assert len(text) > 400_000
    assert ours < theirs
