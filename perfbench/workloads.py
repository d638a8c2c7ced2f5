"""The two benchmark workloads, driven through spinsplit's public functions.

Each workload builds its inputs from the seed in ``__init__`` (that is part
of set-up) and runs one pass in ``run``.  A pass returns its checks, one
``(label, passed)`` pair per verified result, and a sha256 fingerprint of its
results, so a later change can show that the results did not move.  A check
that raises counts as failed.

* ``numeric`` is the ladder, then transport:
  - the ladder: ``run_suites`` over algebra, curvature, splitting and
    leibniz for one massive spin-1 rep on the default ladder; one check per
    report record, judged by its ``passed`` flag;
  - transport: ``chern_number`` for h = +-1 x three connections x three
    meshes (one check each: the integer is -2h and the raw value is within
    the chern tolerance of it), and ``holonomy`` for spin 1 over three
    masses x two solid angles x {boost, flat} (one check each: the boost
    rotation angle matches its closed form, the flat transport is the
    identity).
* ``symbolic-catalog``: the massive and massless identity catalogs in a
  seed-shuffled entry order (one check per pair: the difference must be
  exactly zero), the ``TEXT_CATALOG`` strings (one check each: parse, lower,
  exactly zero), and seed-generated expressions over the atom set of
  acceptance criterion 10 (one check each: printer round-trip equality).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import sys
import traceback

import numpy as np

from spinsplit import reps
from spinsplit.algebra import VectorExpr, commutator, gen_J, op_scalar
from spinsplit.connections import (
    ConnectionKind,
    HolonomyLoop,
    chern_number,
    holonomy,
    lambda_flat_profile,
)
from spinsplit.identities import (
    CATALOG,
    MASSLESS_CATALOG,
    TEXT_CATALOG,
    identity_suite,
)
from spinsplit.lang import format_expr, lower, parse
from spinsplit.report import RunConfig, run_suites
from spinsplit.reps import RepSpec
from spinsplit.scalars import Ring


def fingerprint(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _NoTrace:
    """Stands in for a Tracer when the pass runs untraced."""

    def span(self, name, layer):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


NO_TRACE = _NoTrace()


class NumericLadder:
    """The grid half of ``numeric``."""
    SUITES = ("algebra", "curvature", "splitting", "leibniz")
    LADDER = ((4, 12, 24), (6, 24, 48), (8, 48, 96))
    MASS, SPIN = 1.3, 1

    def __init__(self, seed: int):
        self.config = RunConfig(self.SUITES, seed=seed % 2**31,
                                ladder=self.LADDER,
                                massive=[(self.MASS, self.SPIN)],
                                massless=[], normalize=True)

    def sizes(self):
        """Nodes and bytes per spin-1 section and gradient at each rung."""
        dim = RepSpec.massive(self.MASS, self.SPIN).dim
        out = []
        for nr, nt, nphi in self.LADDER:
            nodes = nr * nt * nphi
            section = nodes * dim * np.dtype(np.complex128).itemsize
            out.append({"rung": f"{nr}x{nt}x{nphi}", "nodes": nodes,
                        "section_bytes": section,
                        "gradient_bytes": 3 * section})
        return out

    def mutate(self):
        reps._SIGMA_BOOST = +1.0

    def run(self, trace=NO_TRACE):
        records = _guarded_value(lambda: run_suites(self.config)["records"])
        if records is None:
            return [("run_suites:exception", False)], fingerprint(None)
        checks = [(rec["name"], bool(rec["passed"])) for rec in records]
        return checks, fingerprint(records)


class SymbolicCatalog:
    name = "symbolic-catalog"
    GENERATED = 80

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rings = {False: Ring(), True: Ring(massless=True)}
        self.orders = {}
        for massless, catalog in ((False, CATALOG), (True, MASSLESS_CATALOG)):
            order = sorted(catalog)
            rng.shuffle(order)
            self.orders[massless] = order
        # recipes for the generated expressions: an atom, then up to three
        # (operation, atom) steps, as in acceptance criterion 10
        self.recipes = []
        for _ in range(self.GENERATED):
            first = (rng.randrange(5), rng.randrange(3))
            steps = [(rng.randrange(3), rng.randrange(5), rng.randrange(3))
                     for _ in range(rng.randrange(4))]
            self.recipes.append((first, steps))
        self.flip = None

    def sizes(self):
        return {"massive_entries": len(CATALOG),
                "massless_entries": len(MASSLESS_CATALOG),
                "text_expressions": len(TEXT_CATALOG),
                "generated_expressions": len(self.recipes)}

    def mutate(self):
        self.flip = sorted(CATALOG)[0]

    def _atom(self, which, axis):
        ring = self.rings[False]
        if which == 0:
            return gen_J(ring, axis)
        if which == 1:
            return op_scalar(ring, "I")
        return lower(parse(("H", "Pow(Dot(P,P),-1/2)", "K[2]")[which - 2]),
                     ring)

    def _catalog_checks(self, massless, trace):
        if self.flip is not None:
            # mutation control: the package negates one entry's right-hand
            # sides and reports failure counts per entry
            checks = []
            for rec in identity_suite(massless, self.flip):
                passed = rec["count"] - rec["failures"]
                checks += [(f"identity:{rec['name']}:{i}", i < passed)
                           for i in range(rec["count"])]
            return checks
        ring = self.rings[massless]
        catalog = MASSLESS_CATALOG if massless else CATALOG
        checks = []
        for entry in self.orders[massless]:
            for i, (lhs, rhs) in enumerate(catalog[entry](ring)):
                checks.append((f"identity:{entry}:{i}",
                               (lhs - rhs).is_zero()))
        trace.count("identities.pairs", len(checks))
        return checks

    def run(self, trace=NO_TRACE):
        ring = self.rings[False]
        checks = []
        for massless, label in ((False, "massive"), (True, "massless")):
            with trace.span(f"identities.{label}", "identities"):
                checks += _guarded(f"identities:{label}",
                                   self._catalog_checks, massless, trace)
        for src in TEXT_CATALOG:
            checks.append((f"text:{src}",
                           _guarded_bool(_lowers_to_zero, src, ring)))
        for n, recipe in enumerate(self.recipes):
            checks.append((f"round-trip:{n}",
                           _guarded_bool(self._round_trip, recipe)))
        trace.count("lang.expressions", len(TEXT_CATALOG) + len(self.recipes))
        return checks, fingerprint(sorted(checks))

    def _round_trip(self, recipe):
        ring = self.rings[False]
        (which, axis), steps = recipe
        e = self._atom(which, axis)
        for op, which, axis in steps:
            other = self._atom(which, axis)
            e = (e + other if op == 0 else e * other if op == 1
                 else commutator(e, other))
        return lower(parse(format_expr(e)), ring) == e


def _lowers_to_zero(src, ring):
    e = lower(parse(src), ring)
    parts = list(e) if isinstance(e, VectorExpr) else [e]
    return all(p.is_zero() for p in parts)


class Transport:
    """The transport half of ``numeric``."""
    HELICITIES = (1, -1)
    MESHES = ((48, 96), (64, 128), (96, 192))
    MASSES = (0.5, 1.3, 3.0)
    SOLID_ANGLES = (0.01, 0.05)
    N_STEPS = 96
    R0 = 1.5

    def __init__(self, seed: int):
        config = RunConfig(["chern", "holonomy"])
        self.tol_chern = config.tolerance("chern")
        self.tol_angle = config.tolerance("holonomy")
        self.tol_flat = config.tolerance("holonomy_flat")
        kinds = (("boost", ConnectionKind.boost()),
                 ("rotation", ConnectionKind.rotation()),
                 ("affine-half", ConnectionKind.affine(
                     lambda r, m: np.full_like(r, 0.5))))
        self.chern_cases = [(h, label, kind, mesh)
                            for h in self.HELICITIES
                            for label, kind in kinds
                            for mesh in self.MESHES]
        # the seed turns the loops about the z axis; the closed forms
        # depend only on the enclosed solid angle
        phi0 = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        th1 = math.pi / 2 - 0.2
        self.loops = []
        for area in self.SOLID_ANGLES:
            dphi = math.sqrt(area)
            th2 = math.acos(math.cos(th1) - area / dphi)
            self.loops.append(HolonomyLoop(self.R0, th1, th2, phi0,
                                           phi0 + dphi))
        self.flat = ConnectionKind.flat_massive()

    def sizes(self):
        return {"chern_meshes": [f"{nt}x{nphi}" for nt, nphi in self.MESHES],
                "chern_cases": len(self.chern_cases),
                "holonomy_loops": len(self.MASSES) * len(self.loops) * 2,
                "holonomy_steps_per_leg": self.N_STEPS}

    def mutate(self):
        self.flat = ConnectionKind.affine(lambda_flat_profile(1.01))

    def run(self, trace=NO_TRACE):
        checks, results = [], []
        for h, label, kind, (nt, nphi) in self.chern_cases:
            name = f"chern:h{h:+d}:{label}:{nt}x{nphi}"
            value = _guarded_value(chern_number, RepSpec.massless(h), kind,
                                   nt, nphi)
            if value is None:
                checks.append((name, False))
                continue
            n, raw = value
            expected = -2 * h
            checks.append((name, n == expected
                           and abs(raw - expected) <= self.tol_chern))
            results.append((name, int(n), round(float(raw), 9)))
        for mass in self.MASSES:
            rep = RepSpec.massive(mass, 1)
            for loop in self.loops:
                tag = f"m={mass}:A={loop.solid_angle():.2f}"
                angle = _guarded_value(self._boost_angle, rep, loop)
                predicted = (loop.solid_angle() * self.R0**2
                             / (mass**2 + self.R0**2))
                checks.append((f"holonomy-boost:{tag}", angle is not None
                               and abs(angle - predicted) / predicted
                               <= self.tol_angle))
                defect = _guarded_value(self._flat_defect, rep, loop)
                checks.append((f"holonomy-flat:{tag}", defect is not None
                               and defect <= self.tol_flat))
                results.append((tag, None if angle is None
                                else round(angle, 9),
                                None if defect is None
                                else round(defect, 9)))
        return checks, fingerprint(results)

    def _boost_angle(self, rep, loop):
        u = holonomy(rep, ConnectionKind.boost(), loop, n_steps=self.N_STEPS)
        tr = float(np.real(np.trace(u)))
        return float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))

    def _flat_defect(self, rep, loop):
        u = holonomy(rep, self.flat, loop, n_steps=self.N_STEPS)
        return float(np.linalg.norm(u - np.eye(rep.dim)))


# An exception raised by the package is a failed check, not a crashed
# benchmark: the traceback goes to stderr and the pass goes on.


def _guarded_value(fn, *args):
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _guarded(label, fn, *args):
    """Checks from ``fn``, or one failed check if it raises."""
    checks = _guarded_value(fn, *args)
    return [(f"{label}:exception", False)] if checks is None else checks


def _guarded_bool(fn, *args):
    return bool(_guarded_value(fn, *args))


class Numeric:
    """The ladder, then transport: one workload, so that one run is long
    enough to average out the wandering speed of a shared host."""
    name = "numeric"

    def __init__(self, seed: int):
        self.parts = {"ladder": NumericLadder(seed),
                      "transport": Transport(seed)}

    def sizes(self):
        return {name: part.sizes() for name, part in self.parts.items()}

    def mutate(self):
        for part in self.parts.values():
            part.mutate()

    def run(self, trace=NO_TRACE):
        checks, prints = [], []
        for part in self.parts.values():
            part_checks, part_print = part.run(trace)
            checks += part_checks
            prints.append(part_print)
        return checks, fingerprint(prints)


WORKLOADS = {w.name: w for w in (Numeric, SymbolicCatalog)}
