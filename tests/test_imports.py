"""Every import in the package and in the tests is used: each name that an
import statement binds is read somewhere in its module, or is listed in
the module's ``__all__``.  The files are read with ``ast``; nothing is
imported, and ``from __future__`` imports bind no name."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = (sorted((ROOT / "src" / "spinsplit").glob("*.py"))
         + sorted((ROOT / "tests").glob("*.py")))


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
