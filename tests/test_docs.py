"""The documents name what the code has: every config section and key,
suite, threshold and ``run`` flag in docs/config_format.md, only
existing subcommands in README, and in the package's docstrings only
names that the package defines or reads."""

import argparse
import ast
import pathlib
import re

import pytest

from spinsplit.cli import build_parser
from spinsplit.report import SUITES, _KNOWN_KEYS, _TOLERANCES

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DOC = (ROOT / "docs" / "config_format.md").read_text()
README = (ROOT / "README.md").read_text()


def _subcommands() -> dict:
    (subs,) = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


@pytest.mark.parametrize("section", sorted(_KNOWN_KEYS))
def test_config_doc_names_every_section_and_key(section):
    assert f"`[{section}]`" in CONFIG_DOC
    for key in sorted(_KNOWN_KEYS[section]):
        assert f"`{key}`" in CONFIG_DOC, (section, key)


@pytest.mark.parametrize("name", sorted(set(SUITES) | set(_TOLERANCES)))
def test_config_doc_names_every_suite_and_threshold(name):
    assert f"`{name}`" in CONFIG_DOC
    # each name heads or shares a row of the threshold table
    assert re.search(rf"^\| [^|]*`{name}`[^|]* \|", CONFIG_DOC, re.M), name


def test_config_doc_names_every_run_flag():
    flags = [opt for action in _subcommands()["run"]._actions
             if not isinstance(action, argparse._HelpAction)
             for opt in action.option_strings]
    assert flags
    missing = [flag for flag in flags if flag not in CONFIG_DOC]
    assert not missing


def test_readme_names_only_existing_subcommands():
    named = set(re.findall(r"(?m)(?:^|`)spinsplit ([a-z][\w-]*)", README))
    assert {"run", "eval"} <= named
    assert named <= set(_subcommands())


# -- names in docstrings ------------------------------------------------------

PACKAGE = sorted((ROOT / "src" / "spinsplit").glob("*.py"))


def _docstrings(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def _doc_names(tree: ast.Module) -> set:
    """The last part of each double-backticked, possibly dotted, name."""
    return {m.group(1).rsplit(".", 1)[-1]
            for doc in _docstrings(tree)
            for m in re.finditer(r"``([A-Za-z_][\w.]*)``", doc)}


def _spelled_names(tree: ast.Module) -> set:
    """Every name a module defines or reads: defs, names, attributes,
    arguments, keywords, import aliases and identifier strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update(n.split(".")[-1] for n in (node.name, node.asname)
                         if n)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def _unknown_doc_names(tree: ast.Module, known: set) -> list:
    return sorted(_doc_names(tree) - known)


_TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
          for path in PACKAGE}
_KNOWN = set().union(*map(_spelled_names, _TREES.values()))


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_docstrings_name_only_what_the_package_spells(path):
    assert _unknown_doc_names(_TREES[path], _KNOWN) == []


def test_docstring_scan_finds_an_unknown_name():
    # the scan is not vacuous: a stale name in a docstring is reported,
    # and so is a name of another library that the module does not
    # spell; a defined or read one is not
    tree = ast.parse('"""``gone`` and ``np.gone2``."""\n'
                     'def f(x):\n    """``f``, ``x``, ``PolyElement``,'
                     ' ``y.sum`` and ``z``."""\n    return x.sum(z=1)\n')
    assert _unknown_doc_names(tree, _spelled_names(tree)) == [
        "PolyElement", "gone", "gone2"]
    assert sum(len(_doc_names(t)) for t in _TREES.values()) > 100
