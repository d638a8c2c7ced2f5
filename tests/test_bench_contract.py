"""The names the benchmark harness in ``perfbench/`` reads from the package.

The tracer wraps every entry of ``layertrace.SPANS`` by name, the worker
reads the two symbolic memos, and the symbolic workload calls every
catalog builder with a ring.  A rename or deletion in the package would
otherwise surface only as a ``KeyError`` in ``perfbench/run.py --trace 1``.
The harness modules are imported read-only from their files.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from spinsplit.scalars import Ring

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")
workloads = _load("workloads")


@pytest.mark.parametrize("module, qualname, span, layer", layertrace.SPANS,
                         ids=[span for _, _, span, _ in layertrace.SPANS])
def test_every_traced_span_resolves(module, qualname, span, layer):
    # as Tracer.install looks it up
    owner = importlib.import_module(f"spinsplit.{module}")
    *cls, attr = qualname.split(".")
    if cls:
        owner = vars(owner)[cls[0]]
    assert callable(vars(owner)[attr])
    assert layer in layertrace.LAYERS


def test_symbolic_memos_exist():
    scalars = importlib.import_module("spinsplit.scalars")
    algebra = importlib.import_module("spinsplit.algebra")
    assert isinstance(scalars._cancel_memo, dict)
    assert isinstance(algebra._insert_memo, dict)


@pytest.mark.parametrize("massless", [False, True])
def test_catalog_builders_take_a_ring(massless):
    catalog = (workloads.MASSLESS_CATALOG if massless
               else workloads.CATALOG)
    assert catalog
    ring = Ring(massless=massless)
    for name, build in catalog.items():
        assert callable(build), name
        inspect.signature(build).bind(ring)
