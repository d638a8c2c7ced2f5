"""Names that code outside a module reaches by name: the layer tracer's
span table in ``perfbench/layertrace.py``, the module attributes the
benchmark workers read or set, and every module's ``__all__``.  A rename
then fails here, not only in a benchmark run."""

import importlib
import pathlib
import pkgutil
import runpy

import pytest

import spinsplit

LAYERTRACE = (pathlib.Path(__file__).resolve().parents[1]
              / "perfbench" / "layertrace.py")
MODULES = sorted(m.name for m in pkgutil.iter_modules(spinsplit.__path__))


def _spans():
    # read the tracer's table without installing it: nothing is wrapped
    spans = runpy.run_path(str(LAYERTRACE))["SPANS"]
    return [(module, qual) for module, qual, _, _ in spans]


@pytest.mark.parametrize("module,qual", _spans(),
                         ids=lambda v: v)
def test_traced_span_resolves(module, qual):
    # the lookup ``Tracer.install`` makes: the name is defined on its
    # module or class itself, not inherited or re-exported
    owner = importlib.import_module(f"spinsplit.{module}")
    *cls, attr = qual.split(".")
    if cls:
        owner = vars(owner)[cls[0]]
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"spinsplit.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"spinsplit.{module}.__all__ names {missing}"


# read by perfbench/worker.py on every timed run (memo sizes and hit
# ratios) and set by perfbench/workloads.py (the numeric mutation control)
BENCHMARK_ATTRIBUTES = [("scalars", "_cancel_memo", dict),
                        ("algebra", "_insert_memo", dict),
                        ("reps", "_SIGMA_BOOST", float)]


@pytest.mark.parametrize("module,attr,kind", BENCHMARK_ATTRIBUTES,
                         ids=lambda v: getattr(v, "__name__", v))
def test_benchmark_attribute_exists(module, attr, kind):
    mod = importlib.import_module(f"spinsplit.{module}")
    assert isinstance(vars(mod)[attr], kind)
