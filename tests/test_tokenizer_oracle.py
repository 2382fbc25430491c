"""The expression tokenizer against a character-loop reference.

``opexpr._tokenize`` reads each token with one compiled pattern.  The
reference below is the character loop it replaced: it skips white space,
reads an integer or n/d literal, then the longest operator name, then
reports a letter run as an unknown name, then reads a symbol, and else
reports the character.  Both must give the same (kind, text, pos) list, or
raise the same error class with the same message and offset, on strings
drawn from every name, digits, slashes, symbols, ASCII and Unicode spaces,
letters and digits of other scripts, a combining mark and junk; and on
``"x" + chr(c) + "1"`` for every c below U+3000.
"""

from __future__ import annotations

import re
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from kreinosc.errors import LabError, OpSyntaxError, UnknownNameError
from kreinosc.opexpr import NAMES_1D, NAMES_2D, _tokenize

_REF_NAMES = sorted(list(NAMES_2D) + list(NAMES_1D), key=len, reverse=True)
_REF_SYMBOLS = "+-*^()[],@"
_REF_NUMBER = re.compile(r"(\d+)(/\d*)?")
Tok = namedtuple("Tok", "kind text pos")


def reference_tokenize(src: str) -> list:
    toks = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        num = _REF_NUMBER.match(src, i)
        if num:
            if num.group(2) == "/":
                raise OpSyntaxError("malformed rational literal", num.start(2))
            toks.append(Tok("num", num.group(), i))
            i = num.end()
            continue
        matched = next((name for name in _REF_NAMES if src.startswith(name, i)), None)
        if matched is not None:
            toks.append(Tok("name", matched, i))
            i += len(matched)
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and src[j].isalnum():
                j += 1
            raise UnknownNameError("unknown operator name %r" % src[i:j])
        if ch in _REF_SYMBOLS:
            toks.append(Tok("sym", ch, i))
            i += 1
            continue
        raise OpSyntaxError("unexpected character %r" % ch, i)
    toks.append(Tok("end", "", n))
    return toks


def outcome(tokenize, src: str):
    """The token triples, or the error's class, message and offset."""
    try:
        return [(t.kind, t.text, t.pos) for t in tokenize(src)]
    except LabError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


ATOMS = [
    *NAMES_2D, *NAMES_1D,
    "0", "3", "12", "007", "3/", "3/4", "/", "/7",
    *_REF_SYMBOLS,
    " ", "\t", "\n", "\u00a0", "\u001c", "\u2003", "\u3000",
    "\u00e9", "\u0663", "\u00b2", "\u216b", "_", "foo", "\u0301",
]


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(ATOMS), max_size=12))
def test_drawn_strings_tokenize_as_the_reference_does(atoms):
    src = "".join(atoms)
    assert outcome(_tokenize, src) == outcome(reference_tokenize, src)


@pytest.mark.parametrize("block", range(0, 0x3000, 0x400))
def test_each_character_between_a_name_and_a_digit_tokenizes_as_the_reference_does(block):
    for c in range(block, block + 0x400):
        src = "x" + chr(c) + "1"
        assert outcome(_tokenize, src) == outcome(reference_tokenize, src), hex(c)
