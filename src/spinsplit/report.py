"""Run configuration, named diagnostic suites, and structured reports.

A run is described by an INI-style config (see docs/config_format.md)
or equivalent keyword overrides; each named suite produces a list of
check records

    {name, anchor, measured, tolerance, passed, order}

where ``anchor`` is a short self-documenting statement of the fact the
check verifies (or the literal tag "plumbing" for infrastructure
checks).  Reports are versioned JSON and are byte-identical for
identical configs and seeds when timing normalization is enabled.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

try:
    import resource
except ImportError:  # not every platform has it; the report then omits it
    resource = None

from . import __version__
from .connections import (
    ConnectionKind,
    HolonomyLoop,
    TangentField,
    apply_connection,
    chern_number,
    cross_commutator_check,
    curvature_commutator,
    holonomy,
    lambda_flat_profile,
    leibniz_residual,
)
from .grid import (
    GridError,
    MomentumGrid,
    Section,
    make_grid,
    radial_collocation,
)
from .identities import identity_suite
from .reps import (
    RepSpec,
    _act_chi,
    algebra_residual,
    inner,
    random_test_section,
    relation_ids,
)
from .splitting import (
    SplitOperators,
    defect_identity_residual,
    jperp_so3_residual,
    nw_gradient_residual,
    nw_hermiticity_defect,
    nw_match_residual,
    so3_residual,
    vector_op_residual,
)

__all__ = [
    "ConfigError",
    "DEGENERACY_GAP_MIN",
    "RunConfig",
    "SUITES",
    "run_suites",
    "report_json",
    "convergence_csv",
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
]

SCHEMA_VERSION = 1
CSV_COLUMNS = ("suite", "check", "n_r", "n_theta", "n_phi",
               "residual", "order")


class ConfigError(ValueError):
    """Invalid run configuration (bad key, bad value, bad ladder)."""


_DEFAULT_LADDER = ((4, 12, 24), (6, 24, 48), (8, 48, 96))

# the massive spin-1 boost/rotation gap on sphere-tangential directions
# must exceed this for the two connections to count as distinct
DEGENERACY_GAP_MIN = 0.05

_KNOWN_KEYS = {
    "run": {"suites", "seed", "json", "csv", "normalize"},
    "grid": {"ladder", "r_min", "r_max"},
    "reps": {"massive", "massless"},
}


def _integer(value, what: str) -> int:
    """``value`` as an int: Python and NumPy integers pass, a bool or any
    other type (a float is not truncated) is a ConfigError naming it."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{what} must be an integer; got {value!r}")


class RunConfig:
    """Validated run configuration."""

    __slots__ = ("suites", "seed", "ladder", "r_min", "r_max",
                 "massive", "massless", "json_path", "csv_path",
                 "normalize")

    def __init__(self, suites, seed=7, ladder=_DEFAULT_LADDER,
                 r_min=1.0, r_max=2.0,
                 massive=((1.3, 0), (1.3, 1)), massless=(-1, 0, 1),
                 json_path=None, csv_path=None, normalize=False):
        suites = list(suites)
        if not suites:
            raise ConfigError("suite list is empty; nothing to run")
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise ConfigError(
                f"unknown suites {unknown}; known: {sorted(SUITES)}"
            )
        seed = _integer(seed, "seed")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0; got {seed}")
        ladder = [tuple(_integer(n, f"each dimension of rung {rung}")
                        for n in rung) for rung in ladder]
        if not ladder:
            raise ConfigError("grid ladder is empty")
        for rung in ladder:
            if len(rung) != 3 or any(n < 4 for n in rung):
                raise ConfigError(f"bad ladder rung {rung}")
            if rung[2] % 2:
                raise ConfigError(
                    f"ladder rung {rung} has odd N_phi = {rung[2]}; N_phi "
                    f"must be even (cross-pole closures pair each "
                    f"longitude with its antipode)")
        for lo, hi in zip(ladder, ladder[1:]):
            if not all(a < b for a, b in zip(lo, hi)):
                raise ConfigError(
                    f"grid ladder must be strictly increasing in every "
                    f"dimension; got {lo} -> {hi}"
                )
        needs_ladder = [s for s in suites if SUITES[s].get("ladder")]
        if needs_ladder and len(ladder) < 2:
            raise ConfigError(
                f"suites {needs_ladder} estimate convergence orders and "
                f"need at least two ladder rungs"
            )
        if not (0.0 < r_min < r_max and math.isfinite(r_max)):
            raise ConfigError(
                f"need 0 < r_min < r_max < inf; got r_min={r_min}, "
                f"r_max={r_max}")
        # the energy sqrt(m^2 + |k|^2) and the radial test profile, which
        # squares r_max - r_min < r_max, need r_max^2 finite, and a mass
        # whose square underflows to 0 is not massive
        if not math.isfinite(r_max * r_max):
            raise ConfigError(
                f"r_max={r_max} is too large: r_max^2 overflows; need "
                f"r_max^2 finite (r_max below about 1.3e154)")
        massive = [(m, _integer(s, f"spin of {m}:{s}")) for m, s in massive]
        massless = [_integer(h, "helicity") for h in massless]
        for m, s in massive:
            if not (m > 0 and math.isfinite(m)) or s not in (0, 1):
                raise ConfigError(f"bad massive rep (mass={m}, spin={s}); "
                                  f"need a finite mass > 0 and spin 0 or 1")
            if not (m * m > 0 and math.isfinite(m * m + r_max * r_max)):
                raise ConfigError(
                    f"bad massive rep mass={m}: need mass^2 > 0 and "
                    f"mass^2 + r_max^2 finite (r_max={r_max})")
            # the sinh map of the rep's grids must differentiate at each
            # N_r: far above r_max the mass crowds the nodes so close that
            # the differentiation matrix is 0/0
            for n_r in sorted({rung[0] for rung in ladder}):
                try:
                    radial_collocation(n_r, r_min, r_max, **_radial_map(m))
                except GridError as exc:
                    raise ConfigError(
                        f"bad massive rep mass={m}: {exc}") from exc
        for h in massless:
            if h not in (-1, 0, 1):
                raise ConfigError(f"bad helicity {h}")
        # a suite or rep given twice would run, and write its records,
        # twice
        reps = [f"{float(m)}:{s}" for m, s in massive]
        for what, items in (("suite", suites), ("massive rep", reps),
                            ("helicity", massless)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"{what} {item} is given twice; "
                                      f"give each {what} once")
        # massless reps' grids use the linear map, which must differentiate
        # at each N_r: a shell far from unit scale underflows or overflows
        # the products of the node spacings
        if massless and any(SUITES[s].get("massless_grids") for s in suites):
            for n_r in sorted({rung[0] for rung in ladder}):
                try:
                    radial_collocation(n_r, r_min, r_max)
                except GridError as exc:
                    raise ConfigError(
                        f"bad shell r_min={r_min}, r_max={r_max} for the "
                        f"massless reps: {exc}") from exc
        needs_spin1 = [s for s in suites if s in ("fplus", "holonomy")]
        if needs_spin1 and not any(s == 1 for _, s in massive):
            raise ConfigError(
                f"suites {needs_spin1} measure fiber rotations and need a "
                f"massive rep of spin 1"
            )
        if (json_path and csv_path
                and os.path.realpath(json_path) == os.path.realpath(csv_path)):
            raise ConfigError(
                f"the JSON report {json_path!r} and the convergence CSV "
                f"{csv_path!r} name the same file")
        self.suites = suites
        self.seed = seed
        self.ladder = ladder
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        self.massive = [(float(m), s) for m, s in massive]
        self.massless = massless
        self.json_path = json_path
        self.csv_path = csv_path
        self.normalize = bool(normalize)

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        # values are literal (no % interpolation), and no header can name
        # the newline default section, so [DEFAULT] is an unknown section
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="\n")
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        kwargs = {}
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]"
                    )
                try:
                    cls._apply(kwargs, section, key, value)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for [{section}] {key}: {value!r} "
                        f"({exc})"
                    ) from exc
        if "suites" not in kwargs:
            raise ConfigError("config must set [run] suites")
        return cls(**kwargs)

    @staticmethod
    def _apply(kwargs, section, key, value):
        if section == "run":
            if key == "suites":
                kwargs["suites"] = [s.strip() for s in value.split(",")
                                    if s.strip()]
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "json":
                kwargs["json_path"] = value.strip()
            elif key == "csv":
                kwargs["csv_path"] = value.strip()
            elif key == "normalize":
                states = configparser.ConfigParser.BOOLEAN_STATES
                flag = value.strip().lower()
                if flag not in states:
                    raise ConfigError(
                        f"bad value for [run] normalize: {value!r}; use one "
                        f"of {', '.join(states)}")
                kwargs["normalize"] = states[flag]
        elif section == "grid":
            if key == "ladder":
                rungs = []
                for part in value.split(","):
                    dims = part.strip().lower().split("x")
                    if len(dims) != 3:
                        raise ConfigError(
                            f"ladder rung {part.strip()!r} is not of the "
                            f"form NRxNTxNP"
                        )
                    rungs.append(tuple(int(d) for d in dims))
                kwargs["ladder"] = rungs
            else:
                kwargs[key] = float(value)
        elif section == "reps":
            if key == "massive":
                reps = []
                for part in value.split(","):
                    if not part.strip():
                        continue
                    m, s = part.split(":")
                    reps.append((float(m), int(s)))
                kwargs["massive"] = reps
            else:
                kwargs["massless"] = [int(h) for h in value.split(",")
                                      if h.strip()]

    def spec(self) -> dict:
        return {
            "suites": list(self.suites),
            "seed": self.seed,
            "ladder": [list(r) for r in self.ladder],
            "r_min": self.r_min,
            "r_max": self.r_max,
            "massive": [list(r) for r in self.massive],
            "massless": list(self.massless),
        }

    def tolerance(self, name: str) -> float:
        """The fixed threshold of a suite or a named sub-check."""
        return float(SUITES[name]["tol"] if name in SUITES
                     else _EXTRA_TOLS[name])

    @property
    def r0(self) -> float:
        """The mid-shell radius of the transport suites."""
        return 0.5 * (self.r_min + self.r_max)

    def grid_for(self, rung, mass: float) -> MomentumGrid:
        return make_grid(*rung, self.r_min, self.r_max, **_radial_map(mass))


def _radial_map(mass: float) -> dict:
    """The radial map of a rep's grids: sinh scaled by a positive mass,
    linear at zero mass."""
    return {"radial_map": "sinh", "mass_scale": mass} if mass > 0 else {}


# -- record helpers ---------------------------------------------------------------


def _record(name, anchor, measured, tolerance, order=None):
    passed = bool(measured <= tolerance) if tolerance is not None else True
    rec = {
        "name": name,
        "anchor": anchor,
        "measured": _jsonable(measured),
        "tolerance": tolerance,
        "passed": passed,
    }
    if order is not None:
        rec["order"] = _jsonable(order)
    return rec


def _jsonable(x):
    if isinstance(x, (np.floating, float)):
        return float(f"{float(x):.12e}")
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _order(config: RunConfig, residuals, floor=1e-12):
    """Mean convergence order between consecutive ladder rungs, using the
    angular resolution as the mesh parameter.  Rung pairs at the rounding
    floor are skipped (None if every pair is)."""
    ladder = config.ladder
    orders = [np.log(e1 / e2) / np.log(r2[1] / r1[1])
              for r1, r2, e1, e2 in zip(ladder, ladder[1:], residuals,
                                        residuals[1:])
              if e1 >= floor and e2 >= floor]
    return float(np.mean(orders)) if orders else None


def _ladder(config: RunConfig, rep: RepSpec, rows, suite: str, labels,
            measure, **section_kw):
    """Evaluate ``measure(grid, psi)``, a list of residuals, on one smooth
    test section per ladder rung.  Each residual with a label in
    ``labels`` adds one CSV row per rung (a None label adds none).
    Returns the per-rung residuals of each measurement and the last
    rung's grid and section."""
    series = [[] for _ in labels]
    for rung in config.ladder:
        grid = config.grid_for(rung, rep.mass)
        psi = random_test_section(rep, grid, seed=config.seed,
                                  **section_kw)
        for label, residuals, res in zip(labels, series,
                                         measure(grid, psi)):
            residuals.append(res)
            if label is not None:
                rows.append((suite, label, *rung, res, None))
    return series, grid, psi


def _reps(config: RunConfig):
    reps = [RepSpec.massive(m, s) for m, s in config.massive]
    reps += [RepSpec.massless(h) for h in config.massless]
    return reps


# -- suites -----------------------------------------------------------------------


def _suite_symbolic(config: RunConfig, records, rows):
    for massless in (False, True):
        suite = identity_suite(massless=massless)
        failures = sum(r["failures"] for r in suite)
        count = sum(r["count"] for r in suite)
        label = "massless" if massless else "massive"
        records.append(_record(
            f"symbolic-identities-{label}",
            "every catalogued operator identity normal-forms to exactly "
            "zero in rational arithmetic",
            failures, 0.5))
        records[-1]["checked"] = count


def _suite_algebra(config: RunConfig, records, rows):
    tol = config.tolerance("algebra")
    rids = relation_ids()
    for rep in _reps(config):
        series, _, _ = _ladder(
            config, rep, rows, "algebra", [f"{rep!r}:{rid}" for rid in rids],
            lambda grid, psi, rep=rep: [algebra_residual(rep, grid, rid, psi)
                                        for rid in rids])
        for rid, residuals in zip(rids, series):
            records.append(_record(
                f"algebra-{rep.kind}-{rid}",
                "commutation relation of the generator family "
                f"{rid} holds on smooth test sections",
                residuals[-1], tol, _order(config, residuals)))
            records[-1]["rep"] = rep.spec()


def _suite_curvature(config: RunConfig, records, rows):
    tol = config.tolerance("curvature")
    eth = TangentField.named("e_theta")
    eph = TangentField.named("e_phi")
    cases = []
    for rep in _reps(config):
        if rep.kind == "massive":
            cases.append((rep, ConnectionKind.boost(),
                          lambda g, m=rep.mass: 1j / (m**2 + g.kmag**2),
                          "boost-connection sphere curvature equals "
                          "(i/H^2) J_k"))
            cases.append((rep, ConnectionKind.rotation(),
                          lambda g: 1j / g.kmag**2,
                          "rotation-connection sphere curvature equals "
                          "(i/|k|^2) J_k"))
            cases.append((rep, ConnectionKind.flat_massive(),
                          lambda g: np.zeros(g.shape),
                          "affine weight H/m yields zero sphere "
                          "curvature"))
        else:
            cases.append((rep, ConnectionKind.boost(),
                          lambda g: 1j / g.kmag**2,
                          "massless sphere curvature equals "
                          "(i/|k|^2) J_k"))
    for rep, kind, coeff, anchor in cases:
        def measure(grid, psi, rep=rep, kind=kind, coeff=coeff):
            f = curvature_commutator(kind, eth, eph, psi)
            pred = coeff(grid)[..., None] * _act_chi(rep, grid, psi.values)
            return [Section(rep, grid, f.values - pred).norm() / psi.norm()]
        (residuals,), _, _ = _ladder(
            config, rep, rows, "curvature", [f"{rep!r}:{kind.variant}"],
            measure, polar_damping=4)
        records.append(_record(
            f"curvature-{rep.kind}-{kind.variant}", anchor,
            residuals[-1], tol, _order(config, residuals)))
        records[-1]["rep"] = rep.spec()
    # cross commutators, massive only
    for mass, spin in config.massive:
        rep = RepSpec.massive(mass, spin)
        grid = config.grid_for(config.ladder[-1], mass)
        psi = random_test_section(rep, grid, seed=config.seed,
                                  polar_damping=4)
        for label, res in cross_commutator_check(psi).items():
            records.append(_record(
                f"cross-commutator-{spin}-{label.replace(' ', '-')}",
                "mixed boost/rotation commutator along the spherical "
                "frame matches its closed form",
                res, tol))
            records[-1]["rep"] = rep.spec()


def _suite_splitting(config: RunConfig, records, rows):
    tol = config.tolerance("splitting")
    flat, boost = ConnectionKind.flat_massive(), ConnectionKind.boost()
    for mass, spin in config.massive:
        rep = RepSpec.massive(mass, spin)
        (residuals,), grid, psi = _ladder(
            config, rep, rows, "splitting", [f"{rep!r}:flat-so3"],
            lambda grid, psi, rep=rep: [
                so3_residual(SplitOperators(rep, grid, flat), psi)])
        records.append(_record(
            f"flat-so3-massive-{spin}",
            "the flat-connection orbital operators close the rotation "
            "algebra", residuals[-1], tol, _order(config, residuals)))
        ops = SplitOperators(rep, grid, flat)
        records.append(_record(
            f"vector-op-massive-{spin}",
            "orbital and internal parts are vector operators under J",
            float(np.max([vector_op_residual(ops, psi),
                          vector_op_residual(ops, psi, "S")])), tol))
    for h in config.massless:
        if h == 0:
            continue
        rep = RepSpec.massless(h)

        def measure(grid, psi, rep=rep):
            ops = SplitOperators(rep, grid, boost)
            return [so3_residual(ops, psi), jperp_so3_residual(ops, psi)]
        (so3s, jperps), grid, psi = _ladder(
            config, rep, rows, "splitting", [f"{rep!r}:boost-so3", None],
            measure)
        ops = SplitOperators(rep, grid, boost)
        records.append(_record(
            f"massless-so3-defect-h{h:+d}",
            "the massless orbital so(3) failure equals the measured "
            "sphere curvature exactly",
            defect_identity_residual(ops, psi), tol))
        records[-1]["so3_residual"] = _jsonable(so3s[-1])
        records.append(_record(
            f"massless-jperp-closure-h{h:+d}",
            "perpendicular angular momenta close only after the "
            "parallel correction", jperps[-1], tol,
            _order(config, jperps)))


def _suite_nw(config: RunConfig, records, rows):
    tol = config.tolerance("nw")
    for mass, spin in config.massive:
        rep = RepSpec.massive(mass, spin)
        (grads,), grid, psi = _ladder(
            config, rep, rows, "nw", [f"{rep!r}:gradient"],
            lambda grid, psi, rep=rep: [nw_gradient_residual(rep, grid,
                                                             psi)])
        phi = random_test_section(rep, grid, seed=config.seed + 1)
        records.append(_record(
            f"nw-match-massive-{spin}",
            "+i times the flat covariant derivative along Cartesian "
            "directions equals the closed-form mean position operator",
            nw_match_residual(rep, grid, psi), tol))
        records.append(_record(
            f"nw-gradient-massive-{spin}",
            "the mean position operator acts as the componentwise "
            "gradient in plain-measure coordinates",
            grads[-1], config.tolerance("nw_gradient"),
            _order(config, grads)))
        records.append(_record(
            f"nw-hermitian-massive-{spin}",
            "the mean position operator is symmetric under the "
            "invariant inner product",
            nw_hermiticity_defect(rep, grid, psi, phi),
            config.tolerance("nw_hermitian")))


def _suite_degeneracy(config: RunConfig, records, rows):
    tol = config.tolerance("degeneracy")
    rung = config.ladder[-1]
    rng = np.random.default_rng(config.seed)
    for rep in _reps(config):
        grid = config.grid_for(rung, rep.mass)
        psi = random_test_section(rep, grid, seed=config.seed)
        transverse = rep.kind == "massive"
        gaps = []
        for _ in range(10):
            vals = rng.normal(size=(3,) + grid.shape)
            if transverse:
                # the separation lives in the sphere-tangential part; the
                # radial legs of the two connections agree identically
                radial = sum(grid.khat[a] * vals[a] for a in range(3))
                vals = np.stack([vals[a] - radial * grid.khat[a]
                                 for a in range(3)])
            x = TangentField.from_array(vals)
            dk = ConnectionKind.boost()
            dr = ConnectionKind.rotation()
            gaps.append((apply_connection(dk, x, psi)
                         - apply_connection(dr, x, psi)).norm()
                        / psi.norm())
        # a coincidence must hold for every field, a separation too
        worst, least = float(np.max(gaps)), float(np.min(gaps))
        if rep.kind == "massless":
            records.append(_record(
                f"degeneracy-massless-h{rep.helicity:+d}",
                "boost and rotation connections coincide at zero mass",
                worst, tol))
        elif rep.spin == 0:
            # spin-0 fibers are one-dimensional and both connections reduce
            # to the same scalar transport, so the gap vanishes exactly
            records.append(_record(
                "degeneracy-massive-spin0-coincidence",
                "boost and rotation connections coincide on trivial "
                "(spin-0) fibers at any mass", worst, tol))
        else:
            rec = _record(
                f"degeneracy-gap-massive-{rep.spin}",
                "boost and rotation connections stay separated on "
                "sphere-tangential directions for positive mass and "
                "nonzero spin", least, None)
            rec["passed"] = bool(least > DEGENERACY_GAP_MIN)
            records.append(rec)


def _suite_fplus(config: RunConfig, records, rows):
    """Scan f = lambda * H/m: curvature is minimized at lambda = 1 and
    the projected coefficient matches (1 - lambda^2)/|k|^2."""
    tol = config.tolerance("fplus")
    eth = TangentField.named("e_theta")
    eph = TangentField.named("e_phi")
    lams = (0.5, 0.9, 1.0, 1.1, 2.0)
    for mass, spin in config.massive:
        if spin == 0:
            continue  # spin-0 fibers carry no curvature to scan
        rep = RepSpec.massive(mass, spin)
        grid = config.grid_for(config.ladder[-1], mass)
        psi = random_test_section(rep, grid, seed=config.seed,
                                  polar_damping=4)
        jk = _act_chi(rep, grid, psi.values)
        ref = Section(rep, grid, (1j / grid.kmag**2)[..., None] * jk)
        denom = inner(ref, ref)
        norms, coeff_errs = [], []
        for lam in lams:
            kind = ConnectionKind.affine(lambda_flat_profile(lam))
            f = curvature_commutator(kind, eth, eph, psi)
            norms.append(f.norm() / psi.norm())
            c = inner(ref, f) / denom
            pred = 1.0 - lam**2
            if pred == 0.0:
                coeff_errs.append(abs(c))
            else:
                coeff_errs.append(abs(c - pred) / abs(pred))
            rows.append(("fplus", f"{rep!r}:lambda={lam}",
                         *config.ladder[-1], norms[-1], None))
        off_one = 0.0 if int(np.argmin(norms)) == lams.index(1.0) else 1.0
        if np.isnan(norms).any():
            off_one = float("nan")  # argmin may pick out a NaN
        rec = _record(
            f"fplus-minimum-spin{spin}",
            "the affine weight H/m is the curvature minimum of the "
            "constant-multiple family", off_one, 0.5)
        rec["curvature_norms"] = {str(l): _jsonable(n)
                                  for l, n in zip(lams, norms)}
        records.append(rec)
        records.append(_record(
            f"fplus-prediction-spin{spin}",
            "measured affine curvature matches the "
            "(1 - lambda^2)/|k|^2 coefficient per lambda",
            float(np.max([e for l, e in zip(lams, coeff_errs) if l != 1.0])),
            tol))


def _suite_chern(config: RunConfig, records, rows):
    _, nt, npp = config.ladder[-1]
    for h in config.massless:
        rep = RepSpec.massless(h)
        expected = -2 * h
        values = {}
        for kname, kind in (("boost", ConnectionKind.boost()),
                            ("rotation", ConnectionKind.rotation()),
                            ("affine-half", ConnectionKind.affine(
                                lambda r, m: np.full_like(r, 0.5)))):
            n, raw = chern_number(rep, kind, n_theta=nt, n_phi=npp,
                                  radius=config.r0)
            values[kname] = (n, raw)
        agree = len({v[0] for v in values.values()}) == 1
        n, raw = values["boost"]
        rec = _record(
            f"chern-h{h:+d}",
            "the helicity-h subbundle has first Chern number -2h on "
            "every momentum shell",
            abs(raw - expected), config.tolerance("chern"))
        rec["integer"] = int(n)
        rec["expected"] = int(expected)
        rec["raw"] = _jsonable(raw)
        rec["passed"] = bool(rec["passed"] and n == expected and agree)
        rec["kind_independent"] = bool(agree)
        records.append(rec)
        rows.append(("chern", f"h={h:+d}", 1, nt, npp, abs(raw - expected),
                     None))


def _suite_holonomy(config: RunConfig, records, rows):
    tol = config.tolerance("holonomy")
    mass = next(m for m, s in config.massive if s == 1)
    rep = RepSpec.massive(mass, 1)
    r0 = config.r0
    om2 = mass**2 + r0**2
    for a_target in (0.01, 0.05):
        th1 = np.pi / 2 - 0.2
        dphi = np.sqrt(a_target)
        th2 = float(np.arccos(np.cos(th1) - a_target / dphi))
        loop = HolonomyLoop(r0, th1, th2, 0.3, 0.3 + dphi)
        area = loop.solid_angle()
        u = holonomy(rep, ConnectionKind.boost(), loop, n_steps=96)
        pred_angle = area * r0**2 / om2
        tr = float(np.real(np.trace(u)))
        meas = float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
        records.append(_record(
            f"holonomy-boost-A{a_target}",
            "boost-connection loop transport rotates the fiber about "
            "k-hat by solid angle times |k|^2/H^2",
            abs(meas - pred_angle) / pred_angle, tol))
        uf = holonomy(rep, ConnectionKind.flat_massive(), loop,
                      n_steps=96)
        records.append(_record(
            f"holonomy-flat-A{a_target}",
            "flat-connection loop transport is the identity",
            float(np.linalg.norm(uf - np.eye(rep.dim))),
            config.tolerance("holonomy_flat")))


def _suite_leibniz(config: RunConfig, records, rows):
    tol = config.tolerance("leibniz")

    def measure(grid, psi):
        f = np.exp(-0.5 * ((grid.kx - 0.2)**2 + grid.ky**2
                           + (grid.kz - 0.1)**2))
        frame = [TangentField.named(name)
                 for name in ("e_theta", "e_phi", "e_k")]
        return [float(np.max([
            leibniz_residual(kind, frame, f, psi)
            for kind in (ConnectionKind.boost(), ConnectionKind.rotation())
        ]))]

    for rep in _reps(config):
        (residuals,), _, _ = _ladder(config, rep, rows, "leibniz",
                                     [f"{rep!r}"], measure)
        records.append(_record(
            f"leibniz-{rep.kind}-"
            + (f"s{rep.spin}" if rep.kind == "massive"
               else f"h{rep.helicity:+d}"),
            "covariant derivatives obey the product rule on smooth "
            "scalar multiples",
            residuals[-1], tol, _order(config, residuals)))


SUITES = {
    "symbolic": {"fn": _suite_symbolic, "tol": 0.5, "ladder": False},
    "algebra": {"fn": _suite_algebra, "tol": 1e-3, "ladder": True,
                "massless_grids": True},
    "leibniz": {"fn": _suite_leibniz, "tol": 1e-3, "ladder": True,
                "massless_grids": True},
    "curvature": {"fn": _suite_curvature, "tol": 1e-3, "ladder": True,
                  "massless_grids": True},
    "splitting": {"fn": _suite_splitting, "tol": 1e-3, "ladder": True,
                  "massless_grids": True},
    "nw": {"fn": _suite_nw, "tol": 1e-6, "ladder": True},
    "degeneracy": {"fn": _suite_degeneracy, "tol": 1e-6, "ladder": False,
                   "massless_grids": True},
    "fplus": {"fn": _suite_fplus, "tol": 1e-2, "ladder": False},
    "chern": {"fn": _suite_chern, "tol": 0.05, "ladder": False},
    "holonomy": {"fn": _suite_holonomy, "tol": 1e-2, "ladder": False},
}

# secondary tolerance knobs referenced inside suites
_EXTRA_TOLS = {
    "nw_gradient": 1e-4,
    "nw_hermitian": 1e-4,
    "holonomy_flat": 1e-8,
}


# ru_maxrss is in kilobytes, except on macOS (bytes)
_MAXRSS_PER_MB = 1 << 20 if sys.platform == "darwin" else 1 << 10


def _usage():
    """This process's resource usage, or None where ``resource`` is
    missing."""
    return None if resource is None else resource.getrusage(
        resource.RUSAGE_SELF)


def run_suites(config: RunConfig) -> dict:
    """Run the configured suites and return the report dict."""
    records = []
    rows = []
    timings = {}
    resources = {}
    for suite in config.suites:
        t0 = time.time()
        before = _usage()
        start = len(records)
        SUITES[suite]["fn"](config, records, rows)
        for rec in records[start:]:
            rec["suite"] = suite
        timings[suite] = round(time.time() - t0, 3)
        after = _usage()
        if after is not None:
            resources[suite] = {
                "minor_faults": after.ru_minflt - before.ru_minflt,
                "peak_rss_mb": round(after.ru_maxrss / _MAXRSS_PER_MB, 1)}
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config.spec(),
        "records": records,
        "passed": all(r["passed"] for r in records),
        "failures": [r["name"] for r in records if not r["passed"]],
    }
    if not config.normalize:
        report["timings"] = timings
        if resources:
            report["resources"] = resources
    report["_rows"] = rows
    return report


def report_json(report: dict) -> str:
    """Serialize the report (without internal row data) as stable JSON."""
    out = {k: v for k, v in report.items() if not k.startswith("_")}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def convergence_csv(report: dict) -> str:
    """Fixed-column CSV of every per-rung residual in the report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for suite, check, nr, nt, npp, residual, order in report["_rows"]:
        writer.writerow([suite, check, nr, nt, npp,
                         f"{residual:.12e}",
                         "" if order is None else f"{order:.3f}"])
    return buf.getvalue()
