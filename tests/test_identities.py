"""The exact symbolic identity catalog: every entry must normal-form to
zero, and a deliberately mutated entry must be caught."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsplit
from spinsplit.algebra import VectorExpr, evaluate_at
from spinsplit.identities import (
    CATALOG,
    MASSLESS_CATALOG,
    TEXT_CATALOG,
    identity_suite,
)
from spinsplit.lang import lower, parse
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


def test_point_evaluation_agrees():
    # identities stay zero after freezing the momentum point, and a
    # mutated one stays nonzero
    ring = Ring()
    e = lower(parse("Comm(K[1],K[2]) + i*J[3]"), ring)
    assert evaluate_at(e, 0.7).is_zero()
    f = lower(parse("Comm(K[1],K[2]) - i*J[3]"), ring)
    assert not evaluate_at(f, 0.7).is_zero()


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
