"""Names that code outside a module reaches by name: the layer tracer's
span table in ``perfbench/layertrace.py``, the module attributes the
benchmark workers read or set, the catalog builders the symbolic
workload calls with a ring, and every module's ``__all__``.  A rename or
deletion then fails here, not only as a ``KeyError`` in a benchmark run.
The harness modules are read from their files; nothing is installed.
Every public name, and every public method of a public class, is also
reached by the package or the harness themselves, and every keyword
parameter of a public function is passed by one of their calls, so no
public surface exists for the tests alone."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import runpy

import pytest

import spinsplit
from spinsplit.scalars import Ring

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(spinsplit.__path__))

# read the tracer's tables without installing it: nothing is wrapped
layertrace = runpy.run_path(str(PERFBENCH / "layertrace.py"))
workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))


@pytest.mark.parametrize("module,qual,span,layer", layertrace["SPANS"],
                         ids=[span for _, _, span, _ in layertrace["SPANS"]])
def test_traced_span_resolves(module, qual, span, layer):
    # the lookup ``Tracer.install`` makes: the name is defined on its
    # module or class itself, not inherited or re-exported
    owner = importlib.import_module(f"spinsplit.{module}")
    *cls, attr = qual.split(".")
    if cls:
        owner = vars(owner)[cls[0]]
    assert callable(vars(owner)[attr])
    assert layer in layertrace["LAYERS"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"spinsplit.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"spinsplit.{module}.__all__ names {missing}"


_NODES = [node
          for path in (sorted(pathlib.Path(spinsplit.__file__).parent
                              .glob("*.py"))
                       + sorted(PERFBENCH.glob("*.py")))
          for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]

# every attribute that the code in src/ and perfbench/ reads or calls
ATTRS_REACHED = {node.attr for node in _NODES
                 if isinstance(node, ast.Attribute)}
# every name it reads, calls or imports: the ids of its ``Name`` nodes,
# the attrs of its ``Attribute`` nodes and the names of its import aliases
NAMES_REACHED = (
    ATTRS_REACHED
    | {node.id for node in _NODES if isinstance(node, ast.Name)}
    | {node.name for node in _NODES if isinstance(node, ast.alias)})


@pytest.mark.parametrize("module", MODULES)
def test_all_names_are_reached_outside_tests(module):
    # a public name that only the tests call is a surface to promote
    # into a suite or to delete
    mod = importlib.import_module(f"spinsplit.{module}")
    unreached = [name for name in getattr(mod, "__all__", ())
                 if name not in NAMES_REACHED]
    assert not unreached, (f"spinsplit.{module}.__all__ names {unreached}, "
                           f"which nothing in src/ or perfbench/ reaches")


# the methods the tracer wraps by qualified name
TRACED_METHODS = {qual for _, qual, _, _ in layertrace["SPANS"]
                  if "." in qual}


@pytest.mark.parametrize("module", MODULES)
def test_public_methods_are_reached_outside_tests(module):
    # the same for every public method of a public class: a method that
    # only the tests call is a surface too.  A method is reached only as
    # an attribute; a local or a function of the same name does not count
    mod = importlib.import_module(f"spinsplit.{module}")
    classes = [name for name in getattr(mod, "__all__", ())
               if inspect.isclass(getattr(mod, name))]
    unreached = [
        f"{name}.{attr}"
        for name in classes
        for attr, value in vars(getattr(mod, name)).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value)
             or isinstance(value, (staticmethod, classmethod, property)))
        and attr not in ATTRS_REACHED
        and f"{name}.{attr}" not in TRACED_METHODS]
    assert not unreached, (f"spinsplit.{module} has public methods "
                           f"{unreached}, which nothing in src/ or "
                           f"perfbench/ reaches")


# every call in src/ and perfbench/ of a function or method, by its name
CALLS = {}
for _node in _NODES:
    if isinstance(_node, ast.Call):
        _name = getattr(_node.func, "id", getattr(_node.func, "attr", None))
        CALLS.setdefault(_name, []).append(_node)


def _passes(call, index, param):
    """Whether ``call`` passes the parameter ``param``, the ``index``-th
    positional one (None if keyword-only).  A ``**`` splat passes every
    keyword and a ``*`` splat every positional parameter after it."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return index is not None and any(
        isinstance(arg, ast.Starred) or i == index
        for i, arg in enumerate(call.args[:index + 1]))


@pytest.mark.parametrize("module", MODULES)
def test_keyword_parameters_are_passed_outside_tests(module):
    # a keyword parameter of a public function that no call in src/ or
    # perfbench/ passes is a knob for the tests alone
    mod = importlib.import_module(f"spinsplit.{module}")
    unpassed = []
    for name in getattr(mod, "__all__", ()):
        fn = getattr(mod, name)
        if not inspect.isfunction(fn):
            continue
        for index, param in enumerate(
                inspect.signature(fn).parameters.values()):
            if param.kind is param.KEYWORD_ONLY:
                index = None
            elif param.default is param.empty:
                continue
            if not any(_passes(call, index, param.name)
                       for call in CALLS.get(name, ())):
                unpassed.append(f"{name}({param.name})")
    assert not unpassed, (f"spinsplit.{module} has keyword parameters "
                          f"{unpassed}, which no call in src/ or "
                          f"perfbench/ passes")


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


@pytest.mark.parametrize("massless", [False, True])
def test_catalog_builders_take_a_ring(massless):
    catalog = workloads["MASSLESS_CATALOG" if massless else "CATALOG"]
    assert catalog
    ring = Ring(massless=massless)
    for name, build in catalog.items():
        assert callable(build), name
        inspect.signature(build).bind(ring)
