"""Every name a package module imports is referenced in that module.

There is no linter in the toolchain, so this stdlib-ast check stands in for
the unused-import rule.  __init__.py is exempt: it imports to re-export.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mhect"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_are_found():
    assert "certify.py" in MODULES and "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module}: unused imports (name: line) {unused}"
