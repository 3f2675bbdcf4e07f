"""Every name a module imports is used in it, and every top-level definition is named elsewhere."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trivolve"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom .errors import UsageError, certify\ncertify()\n") == [
        "line 1: os", "line 2: UsageError"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


# Reached by ``pyproject.toml``'s console script, not by a name in ``src/``.
ENTRY_POINTS = {"cli.main"}
# Called only from tests so far; each gets a caller or goes (ROADMAP, Direction 5).
NOT_YET_REACHED = {"algebra.quotient", "algebra.subalgebra_closure"}


def unreached(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level def or class no other top-level statement names.

    A name counts where the AST has it as a ``Name`` or an ``Attribute``, in
    any module of ``sources``; uses inside the definition itself do not count.
    """
    statements, defined = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            walk = list(ast.walk(node))
            names = {n.id for n in walk if isinstance(n, ast.Name)}
            names |= {n.attr for n in walk if isinstance(n, ast.Attribute)}
            statements.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node, f"{module}.{node.name}"))
    return [qualified for node, qualified in defined
            if not any(node.name in names for other, names in statements if other is not node)]


def test_scan_finds_an_unreached_definition():
    sources = {"a": "def f():\n    return f()\n\nclass C:\n    pass\n",
               "b": "from .a import C\n\ndef g(x: C):\n    return g\n"}
    assert unreached(sources) == ["a.f", "b.g"]


def test_every_definition_is_named_outside_itself():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert sorted(set(unreached(sources)) - ENTRY_POINTS - NOT_YET_REACHED) == []
