"""Every name a module imports is used in it, and every definition is named elsewhere."""

import ast
from collections import Counter
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
# Called only from tests: ``test_duality`` checks the box product of ``X* = A / X^perp``
# against this quotient, its independent reference.
NOT_YET_REACHED = {"algebra.quotient"}


def names(node: ast.AST) -> Counter:
    """How often each name occurs under ``node``, as a ``Name`` or an ``Attribute``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached(sources: dict[str, str]) -> list[str]:
    """Each definition that no statement outside its own body names.

    The definitions are the top-level defs and classes, reported as
    ``module.name``, and the methods of top-level classes that are not
    dunders, reported as ``module.Class.method``.  A name counts where the
    AST has it as a ``Name`` or an ``Attribute``, in any module of
    ``sources``; uses inside the definition itself do not count.  The scan
    matches names, not bindings: a method that shares its name with a local
    variable or another attribute passes.  A method ``norm`` would pass
    through the local ``norm`` in ``unitization.verify_extension``.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((names(tree) for tree in trees.values()), Counter())
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node, f"{module}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                defined += [(method, f"{module}.{node.name}.{method.name}")
                            for method in node.body if isinstance(method, ast.FunctionDef)
                            and not (method.name.startswith("__") and method.name.endswith("__"))]
    return [qualified for node, qualified in defined if total[node.name] == names(node)[node.name]]


def test_scan_finds_an_unreached_definition():
    sources = {"a": "def f():\n    return f()\n\nclass C:\n    pass\n",
               "b": "from .a import C\n\ndef g(x: C):\n    return g\n"}
    assert unreached(sources) == ["a.f", "b.g"]


def test_scan_finds_an_unreached_method():
    source = ("class C:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        return self.used\n\n"
              "    def unused(self):\n        return self.unused()\n\n"
              "def f():\n    return C()\n\nf()\n")
    assert unreached({"a": source}) == ["a.C.unused"]


def test_every_definition_is_named_outside_itself():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert sorted(set(unreached(sources)) - ENTRY_POINTS - NOT_YET_REACHED) == []


# Every law is decided at ``linalg.EPS`` and every rank at ``linalg.EPS_RANK``.  These two
# keep a tolerance parameter, because their callers pass two different values: ``EPS`` and
# ``1e3 * EPS``.
TOLERANCE_TAKERS = {"errors.certify(tol)", "duality.verify_character(eps)"}


def tolerance_parameters(sources: dict[str, str]) -> list[str]:
    """Each ``module.function(parameter)``, nested defs too, whose parameter is a tolerance."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                found += [f"{module}.{node.name}({arg.arg})"
                          for arg in args.posonlyargs + args.args + args.kwonlyargs
                          if arg.arg in {"eps", "eps_rank", "tol"}]
    return found


def test_scan_finds_a_tolerance_parameter():
    source = "def f(x, eps=1e-9):\n    def g(*, tol, eps_rank):\n        return tol\n    return g\n"
    assert tolerance_parameters({"a": source}) == ["a.f(eps)", "a.g(tol)", "a.g(eps_rank)"]


def test_only_certify_and_verify_character_take_a_tolerance():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert sorted(set(tolerance_parameters(sources)) - TOLERANCE_TAKERS) == []
