"""Unreadable input documents and unwritable export paths fail coded.

Every ``file:`` reader and ``--sector`` goes through one JSON reader.  A
file that is not UTF-8, an integer with more digits than Python converts,
and nesting deeper than the decoder recurses are each a ``domain`` error,
as malformed JSON is.  ``export --out`` to a path that cannot be written
is a ``domain`` error too, with nothing on stdout.
"""

import json

import pytest

from kreinosc import lattice_export, preset_sector
from kreinosc.cli import main

NOT_UTF8 = bytes(range(128, 192))
LONG_RENORM = b'{"space": "2d", "renorm": 1' + b"0" * 4999 + b', "terms": []}'
DEEP = b"[" * 100_000 + b"]" * 100_000

# (argv with {} for the document path) for each way a command reads a document
READERS = [
    ("inner", "--lhs", "file:{}", "--rhs", "psi0"),
    ("gram", "--sector", "{}"),
    ("dark", "--a", "file:{}", "--b", "vacuum", "--depth", "1", "--degree", "1"),
    ("export", "--sector", "{}"),
]
READER_IDS = ["inner", "gram-sector", "dark-file", "export-sector"]


def run_error(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "domain"
    return doc["message"]


@pytest.mark.parametrize("argv", READERS, ids=READER_IDS)
@pytest.mark.parametrize(
    "content", [NOT_UTF8, LONG_RENORM, DEEP], ids=["not-utf8", "5000-digits", "deep"]
)
def test_an_undecodable_document_is_a_domain_error(capsys, tmp_path, argv, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    message = run_error(capsys, [a.format(path) for a in argv])
    assert message.startswith("%s is not valid JSON: " % path)


def test_export_to_a_missing_directory_or_a_directory_writes_nothing(capsys, tmp_path):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        argv = ["export", "--preset", "vacuum", "--depth", "1", "--out", str(out)]
        assert run_error(capsys, argv).startswith("cannot write %s: " % out)
    assert list(tmp_path.iterdir()) == []


def test_export_to_a_writable_path_is_unchanged(capsys, tmp_path):
    out = tmp_path / "x.json"
    assert main(["export", "--preset", "vacuum", "--depth", "1", "--out", str(out)]) == 0
    text = lattice_export(preset_sector("vacuum", 1), "json")
    assert out.read_text(encoding="utf-8") == text
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"written": str(out), "format": "json", "bytes": len(text)}
