"""Every module-level private function of the package is used in it.

A private helper that nothing in ``src/kreinosc`` names, besides its own
definition, is dead code.  The one exception is listed with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kreinosc"

# module.function -> why it stays without a caller in the package
ALLOWED = {
    "sectors._gen_ops": "the tests read the generator operators through it",
}


def _private_defs_and_uses():
    defs, uses = set(), set()  # (module, name); (module, enclosing def or None, name)
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defs.add((module, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.add((module, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    uses.add((module, owner, node.attr))
    return defs, uses


def test_no_private_function_is_unused():
    defs, uses = _private_defs_and_uses()
    assert defs
    dead = sorted(
        "%s.%s" % (module, name)
        for module, name in defs
        if not any(n == name and (m, o) != (module, name) for m, o, n in uses)
    )
    assert [d for d in dead if d not in ALLOWED] == []


def test_the_allowlist_names_private_functions_of_the_package():
    defs, _ = _private_defs_and_uses()
    assert {"%s.%s" % d for d in defs} >= set(ALLOWED)
