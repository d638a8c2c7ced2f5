"""Every import in the package and in the tests is used: each name that an
import statement binds is read somewhere in its module, or is listed in
the module's ``__all__``.  No package module imports sympy at module
level, and only an allowlist of functions imports it in its body.  The
files are read with ``ast``; nothing is imported, and ``from
__future__`` imports bind no name."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "spinsplit").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds a; ``import a.b as c`` binds c
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value
                for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)}
    return sorted(set(bound) - read - exported)


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_scan_finds_an_unused_import():
    # the scan is not vacuous: a name bound and never read is reported,
    # one read or exported is not
    tree = ast.parse("import os, re as regex\nfrom a.b import c, d\n"
                     "import x.y\n__all__ = ['d']\nx.y.z(c)\n")
    assert _unused_imports(tree) == ["os", "regex"]
    assert len(FILES) > 20


def _imports_sympy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(n == "sympy" or n.startswith("sympy.") for n in names)


def _module_level_sympy_imports(tree: ast.Module) -> list:
    """Line numbers of the imports of sympy that run when the module is
    imported: every one outside a function body."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if _imports_sympy(child):
                lines.append(child.lineno)
            visit(child)

    visit(tree)
    return lines


def _functions_importing_sympy(tree: ast.Module, module: str) -> set:
    """Qualified names (``module.Class.function``) of the functions whose
    bodies import sympy; an import in a nested function names that
    function, whose name holds its enclosing ones."""
    found = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name],
                      not isinstance(child, ast.ClassDef))
                continue
            if in_function and _imports_sympy(child):
                found.add(".".join(scope))
            visit(child, scope, in_function)

    visit(tree, [module], False)
    return found


# the functions of the package that may import sympy: the printer's gcd
# fallback and the memoized ``sympy.cancel`` that the benchmark reads
SYMPY_IMPORTERS = {"scalars._sympy_gcd", "scalars._cached_cancel"}


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_package_module_imports_sympy_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _module_level_sympy_imports(tree) == []


def test_scan_finds_a_module_level_sympy_import():
    # the scan is not vacuous: an import at module level, in a class body
    # or under a condition is reported, one inside a function is not
    tree = ast.parse("import os\nimport sympy as sp\n"
                     "if os.name:\n    from sympy.polys import ring\n"
                     "class C:\n    from sympy import I\n"
                     "def f():\n    import sympy\n    return sympy\n"
                     "import sympyx\n")
    assert _module_level_sympy_imports(tree) == [2, 4, 6]
    assert len(PACKAGE) > 10


def test_only_the_allowlisted_functions_import_sympy():
    found = set()
    for path in PACKAGE:
        found |= _functions_importing_sympy(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == SYMPY_IMPORTERS


def test_scan_finds_a_sympy_import_in_any_other_function():
    # the scan is not vacuous: an import in a method, in a nested function
    # or under a condition in a function names that function; one at
    # module level or in a class body is the other scan's
    tree = ast.parse("import sympy\n"
                     "def _sympy_gcd():\n    import sympy\n"
                     "class Ring:\n    from sympy import I\n"
                     "    def from_expr(self, x):\n"
                     "        if x:\n            import sympy.polys\n"
                     "def outer():\n    def inner():\n"
                     "        from sympy import cancel\n"
                     "    return inner\n"
                     "def clean():\n    import sympyx\n")
    assert _functions_importing_sympy(tree, "scalars") == {
        "scalars._sympy_gcd", "scalars.Ring.from_expr",
        "scalars.outer.inner"}
