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
# Called only from tests; none today.
NOT_YET_REACHED: set[str] = set()


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


# ``algebra`` is the one module that contracts a structure tensor; every other module calls
# its helpers (``column_products``, ``basis_products``, ``multiply`` and the two
# multiplication matrices).
CONTRACTION_LAYER = {"algebra"}
RESHAPES = {"reshape", "transpose", "conj", "copy", "T", "real", "imag"}


def structure_contractions(source: str) -> list[str]:
    """Each ``einsum`` call, and each matrix product with a structure tensor, by line.

    A structure tensor is an attribute ``.structure`` or a call of one, the name
    ``structure``, a name assigned one anywhere in the module, or one of these seen through
    ``RESHAPES``, a subscript or ``np.conj``.  A matrix product is ``@``, ``np.matmul``,
    ``np.dot`` or ``np.tensordot``.
    """
    tree = ast.parse(source)
    bound = {"structure"}

    def is_structure(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in bound
        if isinstance(node, ast.Attribute):
            return node.attr == "structure" or (node.attr in RESHAPES and is_structure(node.value))
        if isinstance(node, ast.Subscript):
            return is_structure(node.value)
        if isinstance(node, ast.Call):  # np.conj(x) looks at x, x.reshape(..) at x.reshape
            conj = isinstance(node.func, ast.Attribute) and node.func.attr in {"conj", "conjugate"}
            return is_structure(node.args[0] if conj and node.args else node.func)
        return False

    grown = True
    while grown:  # names bound to a structure tensor, through chains of assignments
        grown = False
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and is_structure(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in bound:
                        bound.add(target.id)
                        grown = True
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if is_structure(node.left) or is_structure(node.right):
                found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            if name == "einsum" or (name in {"matmul", "dot", "tensordot"}
                                    and any(is_structure(arg) for arg in node.args)):
                found.append(f"line {node.lineno}: {name}")
    return found


def test_scan_finds_a_structure_contraction():
    source = ("def f(a, x, m):\n    c = np.conj(a.structure)\n    d = c.reshape(4, 2).T\n"
              "    y = x @ d\n    z = m.T @ a.structure[0]\n    w = np.dot(structure, x)\n"
              "    v = np.einsum('i,i->', x, x)\n    return x @ m, a.structure[0, 0, 0] * x\n")
    assert structure_contractions(source) == [
        "line 4: @", "line 5: @", "line 6: dot", "line 7: einsum"]


@pytest.mark.parametrize("module", [p for p in MODULES if p.stem not in CONTRACTION_LAYER],
                         ids=lambda p: p.name)
def test_only_algebra_contracts_a_structure_tensor(module):
    assert structure_contractions(module.read_text(encoding="utf-8")) == []


# A subspace's coordinates are its pivot entries (``algebra.Subspace.coordinates``).  ``lstsq``
# and its relative ``rcond`` rule are left only in the identity's fallback, where the normal
# equations fail; ``pinv`` and ``solve_exact`` are gone.
SOLVERS = {"lstsq", "pinv", "solve_exact"}
SOLVER_USES = ["algebra._find_identity: lstsq"]


def solver_uses(sources: dict[str, str]) -> list[str]:
    """Each ``module.function: name`` where a name of ``SOLVERS`` occurs, in source order.

    A name occurs as a ``Name``, an ``Attribute``, an imported alias or a definition;
    ``function`` is the innermost enclosing def, ``<module>`` outside every def.
    """
    found = []

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        named = {getattr(node, attr, None) for attr in ("id", "attr", "name", "asname")}
        found.extend(f"{module}.{where}: {name}" for name in sorted(SOLVERS & named))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return found


def test_scan_finds_a_solver():
    source = ("from numpy.linalg import pinv\n\ndef f(a, b):\n    def g():\n"
              "        return np.linalg.lstsq(a, b)\n    return g, pinv(a)\n\nx = solve_exact\n")
    assert solver_uses({"a": source}) == [
        "a.<module>: pinv", "a.g: lstsq", "a.f: pinv", "a.<module>: solve_exact"]


def test_lstsq_is_left_only_in_the_identity_fallback():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert solver_uses(sources) == SOLVER_USES


# The suite decides every law through the library's pass rule (``errors.certify`` at ``EPS``,
# or a verdict such as ``SpectralInclusionReport.included``), not against literal thresholds.
def float_thresholds(source: str) -> list[str]:
    """Each comparison, by line, with an operand that is a float literal or a product holding one.

    A literal may be negated; a product is a ``*`` anywhere in the operand, such as ``1e3 * EPS``.
    """
    def is_float(node) -> bool:
        if isinstance(node, ast.UnaryOp):
            return is_float(node.operand)
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def is_threshold(node) -> bool:
        return is_float(node) or any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
            and any(is_float(part) for part in ast.walk(n)) for n in ast.walk(node))

    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(is_threshold(operand) for operand in [node.left, *node.comparators])]


def test_scan_finds_a_float_threshold():
    source = ("a = x <= 1e-8\nb = -1e-9 < y\nc = z > 1e3 * EPS\nd = n == 3\n"
              "e = abs(x - 2.0) <= EPS\nf = k % 8 == 0\ng = max_abs(d * 0.5) <= EPS\n")
    assert float_thresholds(source) == ["line 1", "line 2", "line 3", "line 7"]


def test_the_suite_compares_against_no_float_literal():
    assert float_thresholds((PACKAGE / "suite.py").read_text(encoding="utf-8")) == []
