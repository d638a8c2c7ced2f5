"""The exact symbolic identity catalog: every entry must normal-form to
zero, and a deliberately mutated entry must be caught.  A sign flip in
the shared bracket table must fail both the catalog and the numerical
algebra check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsplit
from spinsplit.algebra import (
    BRACKETS,
    VectorExpr,
    bracket_axes,
    bracket_terms,
)
from spinsplit.identities import (
    CATALOG,
    MASSLESS_CATALOG,
    TEXT_CATALOG,
    _bracket_pairs,
    identity_suite,
)
from spinsplit.lang import lower, parse
from spinsplit.reps import algebra_residual, random_test_section, relation_ids
from spinsplit.scalars import Ring


def test_massive_catalog_all_zero():
    records = identity_suite(massless=False)
    assert records, "empty catalog"
    bad = [r["name"] for r in records if not r["zero"]]
    assert not bad, f"nonzero identities: {bad}"
    assert sum(r["failures"] for r in records) == 0


def test_massless_catalog_all_zero():
    records = identity_suite(massless=True)
    assert records
    bad = [r["name"] for r in records if not r["zero"]]
    assert not bad, f"nonzero identities: {bad}"


def _mutable(catalog, massless):
    """Entries with at least one nonzero right-hand side (a sign flip of
    a zero RHS is a no-op, so those cannot be mutated this way)."""
    ring = Ring(massless=massless)
    out = []
    for name, build in catalog.items():
        if any(not rhs.is_zero() for _, rhs in build(ring)):
            out.append(name)
    return out


@pytest.mark.parametrize("name", sorted(_mutable(CATALOG, False)))
def test_mutation_is_caught_massive(name):
    records = identity_suite(massless=False, flip_sign_of=name)
    rec = {r["name"]: r for r in records}[name]
    assert not rec["zero"], (
        f"sign-flipped entry {name!r} still reported zero; the check "
        f"cannot distinguish the identity from its negation"
    )
    # all other entries stay green
    others = [r["name"] for r in records
              if r["name"] != name and not r["zero"]]
    assert not others


@pytest.mark.parametrize("name",
                         sorted(_mutable(MASSLESS_CATALOG, True)))
def test_mutation_is_caught_massless(name):
    records = identity_suite(massless=True, flip_sign_of=name)
    rec = {r["name"]: r for r in records}[name]
    assert not rec["zero"]


def test_text_catalog_lowers_to_zero():
    ring = Ring()
    for src in TEXT_CATALOG:
        e = lower(parse(src), ring)
        comps = list(e) if isinstance(e, VectorExpr) else [e]
        assert all(c.is_zero() for c in comps), src


_COLD_CATALOG = """
import json, time
from spinsplit.identities import identity_suite
t0 = time.time()
identity_suite(massless=False)
identity_suite(massless=True)
print(json.dumps(time.time() - t0))
"""


def test_catalog_is_fast():
    """The 10 s bound holds cold: the catalog runs in a fresh interpreter,
    so no cache warmed by other tests (collection builds the whole
    catalog) can carry it."""
    src = str(Path(spinsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _COLD_CATALOG], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) < 10.0


# -- the bracket table shared with the numerical algebra check ----------------

# the catalog entry that holds each nonvanishing bracket family
_BRACKET_ENTRIES = {
    "JJ": "rotation-generators",
    "JK": "rotation-boost-mixed",
    "KK": "boost-generators",
    "JP": "rotation-momentum",
    "KP": "boost-momentum",
    "KH": "boost-energy",
}


@pytest.mark.parametrize("family", sorted(_BRACKET_ENTRIES))
def test_bracket_sign_flip_fails_catalog_and_numeric_check(
        family, monkeypatch, rep_massive1, grid_mid_massive):
    psi = random_test_section(rep_massive1, grid_mid_massive, seed=3)
    clean = algebra_residual(family, psi)
    sign, target = BRACKETS[family]
    monkeypatch.setitem(BRACKETS, family, (-sign, target))
    ring = Ring()
    failing = [name for name in _BRACKET_ENTRIES.values()
               if any(not (lhs - rhs).is_zero()
                      for lhs, rhs in CATALOG[name](ring))]
    assert failing == [_BRACKET_ENTRIES[family]]
    flipped = algebra_residual(family, psi)
    assert clean < 1e-2 and flipped > 1.0, (clean, flipped)


# pairs per bracket family, every axis pair in turn: 9 for two vectors, 3
# for a vector and H, 1 for [H, H]; the nonzero terms over all pairs
_FAMILY_PAIRS = {"JJ": 9, "JK": 9, "KK": 9, "JP": 9, "KP": 9, "KH": 3,
                 "JH": 3, "PP": 9, "PH": 3, "HH": 1}
_FAMILY_TERMS = {"JJ": 6, "JK": 6, "KK": 6, "JP": 6, "KP": 3, "KH": 3,
                 "JH": 0, "PP": 0, "PH": 0, "HH": 0}


def test_bracket_family_pair_counts():
    assert tuple(BRACKETS) == tuple(_FAMILY_PAIRS) == relation_ids()
    ring = Ring()
    counts = {family: len(_bracket_pairs((family,), ring))
              for family in BRACKETS}
    assert counts == _FAMILY_PAIRS
    terms = {family: sum(len(bracket_terms(family, a, b))
                         for a in bracket_axes(family[0])
                         for b in bracket_axes(family[1]))
             for family in BRACKETS}
    assert terms == _FAMILY_TERMS


# every catalog entry with its pair count, in catalog order
_CATALOG_COUNTS = [
    ("rotation-generators", 9), ("rotation-boost-mixed", 9),
    ("boost-generators", 9), ("rotation-momentum", 9),
    ("boost-momentum", 9), ("boost-energy", 3), ("rotation-energy", 3),
    ("translation-sector", 13), ("inverse-commutator", 3),
    ("energy-power-commutator", 14), ("momentum-power-commutator", 14),
    ("momentum-boost-contraction", 3), ("unit-momentum-boost", 9),
    ("weighted-boost-momentum", 27), ("unit-contraction-asymmetry", 1),
    ("contraction-asymmetry", 1), ("triple-cross-expansion", 9),
    ("angular-momentum-decomposition", 3), ("boost-decomposition", 3),
    ("rotation-connection-forms", 3), ("rotation-connection-bridge", 3),
    ("boost-curvature-commutator", 1),
    ("boost-connection-self-adjoint", 3),
    ("rotation-connection-self-adjoint", 3), ("quotient-soundness", 4),
    ("adjoint-momentum-cross", 3), ("flat-connection-position", 3),
    ("flat-connection-spin", 3), ("boost-orbital-form", 3),
    ("rotation-orbital-form", 3),
]
_MASSLESS_CATALOG_COUNTS = [
    ("massless-parallel-commutators", 3),
    ("massless-perpendicular-commutators", 3),
    ("massless-split-vector-ops", 18), ("massless-quotient-soundness", 3),
]


def test_catalog_entries_and_pair_counts_are_pinned():
    for massless, pinned in ((False, _CATALOG_COUNTS),
                             (True, _MASSLESS_CATALOG_COUNTS)):
        records = identity_suite(massless=massless)
        assert [(r["name"], r["count"]) for r in records] == pinned
