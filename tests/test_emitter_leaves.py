"""Members that are subclasses of str or int print as json.dumps prints them.

The emitter writes a dict value or list item that is exactly a str or an
int in place, with no call.  A bool, a str subclass and an IntEnum member
are not exactly either; they still go through the emitter's checks, so a
bool prints as true/false, a str subclass as its characters (not its
``__str__``) and an IntEnum member as its number (not its name).
"""

import enum
import json

import pytest

from kreinosc.jsonio import dumps


class Label(str):
    def __str__(self):
        return "not this"

    __repr__ = __str__


class Count(enum.IntEnum):
    TWO = 2
    BIG = 2**70

    def __str__(self):
        return "not this"

    __repr__ = __str__


LEAVES = [Label('q"1/2é'), Label(""), True, False, Count.TWO, Count.BIG]


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": Label("x"), "b": True, "c": Count.TWO},
        [Label("x"), False, Count.BIG],
        {"terms": [{"j": Count.TWO, "k": True, "q": Label("3/4")}], "n": 7, "s": "plain"},
        [LEAVES, {"inner": LEAVES}, tuple(LEAVES), 1, "plain", None],
        {leaf_key: leaf for leaf_key, leaf in zip("abcdef", LEAVES)},
    ],
    ids=["dict values", "list items", "a nested term", "both, nested", "every leaf"],
)
def test_subclass_members_print_as_json_dumps_prints_them(obj):
    assert dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "leaf", LEAVES, ids=["str subclass", "empty str subclass", "true", "false", "IntEnum", "big"]
)
def test_a_subclass_leaf_alone_prints_as_json_dumps_prints_it(leaf):
    assert dumps(leaf) == reference(leaf)
    assert dumps({"v": leaf}) == reference({"v": leaf})
    assert dumps([leaf]) == reference([leaf])
