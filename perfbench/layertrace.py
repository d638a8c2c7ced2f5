"""Layer tracer that wraps spinsplit's entry points from outside the package.

Each wrapped callable becomes a span: its call is counted, and its wall time
is split into self time (charged to its layer) and time spent in wrapped
callees (charged to theirs).  Inclusive time is kept per span name, counted
only for the outermost call so recursion (``_insert_gen``) is not counted
twice.  Spans live in memory and are read out when the run ends.

A name imported with ``from .reps import _act`` is bound in several modules;
``install`` rebinds every module global, class attribute and dict value that
is the original object, so no call path escapes the trace.  Timers come from
the standard library only (``time.perf_counter``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import sympy

# (module, qualified name, span name, layer).  Every span is reported as
# "<span>.calls"; the spans in INCLUSIVE also as "<span>.s".
SPANS = [
    ("grid", "MomentumGrid.d_r", "grid.d_r", "grid"),
    ("grid", "MomentumGrid.d_theta", "grid.d_theta", "grid"),
    ("grid", "MomentumGrid.d_phi", "grid.d_phi", "grid"),
    ("grid", "MomentumGrid.gradient", "grid.gradient", "grid"),
    ("reps", "_act", "reps.act", "reps"),
    ("reps", "_act_J", "reps.act_J", "reps"),
    ("reps", "_act_K", "reps.act_K", "reps"),
    ("reps", "algebra_residual", "reps.algebra_residual", "reps"),
    ("reps", "random_test_section", "reps.random_test_section", "reps"),
    ("connections", "apply_connection", "connections.apply_connection",
     "connections"),
    ("connections", "curvature_commutator",
     "connections.curvature_commutator", "connections"),
    ("connections", "cross_commutator_check",
     "connections.cross_commutator_check", "connections"),
    ("connections", "leibniz_residual", "connections.leibniz_residual",
     "connections"),
    ("connections", "_form_matrix", "connections.form_matrix",
     "connections"),
    ("connections", "_transport", "connections.transport", "connections"),
    ("connections", "_edge_transport_batch", "connections.edge_transport",
     "connections"),
    ("connections", "holonomy", "connections.holonomy", "connections"),
    ("connections", "chern_number", "connections.chern_number",
     "connections"),
    ("splitting", "SplitOperators.L", "splitting.L", "splitting"),
    ("splitting", "SplitOperators.J", "splitting.J", "splitting"),
    ("splitting", "SplitOperators.S", "splitting.S", "splitting"),
    ("splitting", "so3_residual", "splitting.so3_residual", "splitting"),
    ("splitting", "vector_op_residual", "splitting.vector_op_residual",
     "splitting"),
    ("scalars", "_cached_cancel", "scalars.cancel", "scalars"),
    ("scalars", "Scalar.__init__", "scalars.init", "scalars"),
    ("scalars", "Scalar.__add__", "scalars.add", "scalars"),
    ("scalars", "Scalar.__mul__", "scalars.mul", "scalars"),
    ("scalars", "Scalar.__neg__", "scalars.neg", "scalars"),
    ("scalars", "Scalar.inverse", "scalars.inverse", "scalars"),
    ("scalars", "Scalar.conjugate", "scalars.conjugate", "scalars"),
    ("scalars", "Scalar.boost_derivative", "scalars.boost_derivative",
     "scalars"),
    ("scalars", "Scalar.rotation_derivative", "scalars.rotation_derivative",
     "scalars"),
    ("algebra", "OperatorExpr.__mul__", "algebra.mul", "algebra"),
    ("algebra", "OperatorExpr.__add__", "algebra.add", "algebra"),
    ("algebra", "OperatorExpr.__neg__", "algebra.neg", "algebra"),
    ("algebra", "OperatorExpr.adjoint", "algebra.adjoint", "algebra"),
    ("algebra", "_insert_gen", "algebra.insert_gen", "algebra"),
    ("algebra", "_word_mul", "algebra.word_mul", "algebra"),
    ("algebra", "_word_times_scalar", "algebra.word_times_scalar",
     "algebra"),
    ("lang", "parse", "lang.parse", "lang"),
    ("lang", "lower", "lang.lower", "lang"),
    ("lang", "format_expr", "lang.format_expr", "lang"),
]

# Spans opened by the benchmark itself or on sympy rather than on SPANS.
OTHER_SPANS = ("identities.massive", "identities.massless",
               "scalars.sympy_cancel")

# Spans whose inclusive time is reported (the report suites are added by
# ``install``).
INCLUSIVE = (
    "connections.chern_number",
    "connections.holonomy",
    "splitting.so3_residual",
    "splitting.vector_op_residual",
    "scalars.sympy_cancel",
    "identities.massive",
    "identities.massless",
)

# Counters the benchmark adds to; reported even when a workload never
# touches them, so a bypassed layer reads zero.
COUNTERS = ("grid.bytes_computed", "identities.pairs", "lang.expressions")

LAYERS = ("grid", "reps", "connections", "splitting", "scalars", "sympy",
          "algebra", "identities", "lang", "report")

# Grid derivatives also add the computed bytes of their argument and result.
_BYTE_SPANS = {"grid.d_r", "grid.d_theta", "grid.d_phi", "grid.gradient"}


class Tracer:
    """In-memory span and counter store; ``install`` patches the package."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.inclusive = set(INCLUSIVE)
        self._depth = Counter()
        self._child = []  # per open span: time covered by its child spans
        self._callers = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self.calls[name] += 1
        self._depth[name] += 1
        self._child.append(0.0)
        return time.perf_counter()

    def _exit(self, name, layer, t0):
        dt = time.perf_counter() - t0
        child = self._child.pop()
        self.self_s[layer] += dt - child
        if self._child:
            self._child[-1] += dt
        self._depth[name] -= 1
        if not self._depth[name]:
            self.incl_s[name] += dt

    @contextlib.contextmanager
    def span(self, name, layer):
        """A span opened by the benchmark itself."""
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, layer, t0)

    def count(self, name, n=1):
        """Add ``n`` to a counter the benchmark keeps itself."""
        self.counts[name] += n

    def wrap(self, fn, name, layer):
        tracer = self
        count_bytes = name in _BYTE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, layer, t0)
            if count_bytes:
                tracer.counts["grid.bytes_computed"] += (
                    np.asarray(args[-1]).nbytes + out.nbytes)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Rebind ``original`` wherever spinsplit or a caller module holds a
        reference to it: module globals, class attributes and dict values."""
        modules = [module for name, module in list(sys.modules.items())
                   if name == "spinsplit" or name.startswith("spinsplit.")]
        for module in modules + self._callers:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                elif isinstance(value, type) and \
                        value.__module__.startswith("spinsplit"):
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            setattr(value, attr, replacement)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement

    def install(self, callers=()):
        """Wrap every entry point in SPANS and each report suite.  Names
        that the ``callers`` modules imported from spinsplit are rebound
        too."""
        self._callers = list(callers)
        for mod_name, qual, name, layer in SPANS:
            owner = importlib.import_module(f"spinsplit.{mod_name}")
            *cls, attr = qual.split(".")
            if cls:
                owner = vars(owner)[cls[0]]
            original = vars(owner)[attr]
            self._rebind(original, self.wrap(original, name, layer))
        from spinsplit import report
        for suite, entry in report.SUITES.items():
            entry["fn"] = self.wrap(entry["fn"], f"report.suite.{suite}",
                                    "report")
            self.inclusive.add(f"report.suite.{suite}")
        # every sympy.cancel reached through ``sp.cancel`` in the package
        sympy.cancel = self.wrap(sympy.cancel, "scalars.sympy_cancel",
                                 "sympy")
        return self

    # -- read-out ----------------------------------------------------------

    def metrics(self):
        """Flat name -> value map: span calls, inclusive times of the spans
        in INCLUSIVE, self time per layer, and counters."""
        names = {span[2] for span in SPANS} | set(OTHER_SPANS) \
            | set(self.calls)
        out = {f"{name}.calls": self.calls[name] for name in sorted(names)}
        out.update({f"{name}.s": self.incl_s[name]
                    for name in sorted(self.inclusive)})
        out.update({f"{layer}.self_s": self.self_s[layer]
                    for layer in LAYERS})
        out.update({name: self.counts[name]
                    for name in set(COUNTERS) | set(self.counts)})
        return out
