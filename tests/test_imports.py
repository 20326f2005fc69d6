"""Every name a library module imports is used in that module, and every
import is of the standard library or of oneway itself (the package declares
no dependencies)."""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "oneway").glob("*.py"))
SOURCES = [p for p in MODULES if p.name != "__init__.py"]  # __init__ imports to re-export


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def foreign_imports(tree: ast.Module) -> list[str]:
    """Imported modules, with their lines, whose top-level package is neither
    in the standard library nor oneway; relative imports are oneway's own."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module, node.lineno))
    return [f"{name} (line {line})" for name, line in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"oneway"}]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_oneway(path):
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_foreign_import_detected():
    tree = ast.parse("import os.path\nfrom . import streams\nfrom numpy.linalg import norm\n"
                     "import oneway.bitcore, hypothesis\n")
    assert foreign_imports(tree) == ["numpy.linalg (line 3)", "hypothesis (line 4)"]
