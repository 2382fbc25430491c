"""The lab imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kreinosc"


def test_every_absolute_import_is_standard_library():
    # sys.stdlib_module_names exists from Python 3.10, the project's floor
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append("%s: %s" % (path.name, name))
    assert outside == []
