"""The documents name what the code has: every config section and key,
suite, threshold and ``run`` flag in docs/config_format.md, and only
existing subcommands in README."""

import argparse
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
