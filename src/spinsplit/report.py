"""Run configuration, named diagnostic suites, and structured reports.

A run is described by an INI-style config (see docs/config_format.md)
or equivalent keyword overrides; each named suite produces a list of
check records

    {suite, name, anchor, measured, tolerance, passed[, order][, rep]}

where ``anchor`` is a short self-documenting statement of the fact the
check verifies, ``order`` the convergence order of a ladder check and
``rep`` the representation measured.  Some records add keys of their
own: ``checked`` (symbolic), ``so3_residual`` (the massless so(3)
defect), ``curvature_norms`` (the fplus minimum) and ``integer``,
``expected`` and ``raw`` (chern).  Every threshold is in
``_TOLERANCES``.  Reports are versioned JSON and are byte-identical for
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
    radial_collocation,
)
from .reps import (
    RepError,
    RepSpec,
    _act_chi,
    algebra_residuals,
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
            try:
                RepSpec.massive(m, s)
            except RepError as exc:
                raise ConfigError(
                    f"bad massive rep (mass={m}, spin={s}): {exc}") from exc
            if not (m * m > 0 and math.isfinite(m * m + r_max * r_max)):
                raise ConfigError(
                    f"bad massive rep mass={m}: need mass^2 > 0 and "
                    f"mass^2 + r_max^2 finite (r_max={r_max})")
        for h in massless:
            try:
                RepSpec.massless(h)
            except RepError as exc:
                raise ConfigError(f"bad helicity {h}: {exc}") from exc
        # each rep's grids are built for its mass and must differentiate at
        # each N_r: far above r_max a mass crowds the sinh nodes so close
        # that the differentiation matrix is 0/0, and at mass 0 a shell far
        # from unit scale underflows or overflows the products of the
        # linear node spacings
        masses = [m for m, _ in massive]
        if massless and any(SUITES[s].get("massless_grids") for s in suites):
            masses.append(0.0)
        for m in masses:
            for n_r in sorted({rung[0] for rung in ladder}):
                try:
                    radial_collocation(n_r, r_min, r_max, m)
                except GridError as exc:
                    raise ConfigError(
                        f"bad massive rep mass={m}: {exc}" if m else
                        f"bad shell r_min={r_min}, r_max={r_max} for the "
                        f"massless reps: {exc}") from exc
        # a suite or rep given twice would run, and write its records,
        # twice
        reps = [f"{float(m)}:{s}" for m, s in massive]
        for what, items in (("suite", suites), ("massive rep", reps),
                            ("helicity", massless)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"{what} {item} is given twice; "
                                      f"give each {what} once")
        needs_spin1 = [s for s in suites if s in ("fplus", "holonomy")]
        if needs_spin1 and not any(s == 1 for _, s in massive):
            raise ConfigError(
                f"suites {needs_spin1} measure fiber rotations and need a "
                f"massive rep of spin 1"
            )
        for path, key, what in ((json_path, "json", "JSON report"),
                                (csv_path, "csv", "convergence CSV")):
            if path is not None and not path.strip():
                raise ConfigError(
                    f"the {what} path ([run] {key}, --{key}) is empty; "
                    f"give a file name or leave it unset")
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
        return float(_TOLERANCES[name])

    @property
    def r0(self) -> float:
        """The mid-shell radius of the transport suites."""
        return 0.5 * (self.r_min + self.r_max)

    def grid_for(self, rung, mass: float) -> MomentumGrid:
        return MomentumGrid(*rung, self.r_min, self.r_max, mass)


# -- record helpers ---------------------------------------------------------------


def _record(name, anchor, measured, tolerance, rep=None, passed=None,
            **extra):
    """One whole check record.  ``rep`` names the rep it measures, since
    record names repeat across reps of the same kind; ``passed`` defaults
    to ``measured <= tolerance``; ``extra`` holds the record's own keys,
    such as a ladder check's ``order`` (a None value is left out)."""
    rec = {
        "name": name,
        "anchor": anchor,
        "measured": _jsonable(measured),
        "tolerance": tolerance,
        "passed": bool(measured <= tolerance if passed is None else passed),
    }
    if rep is not None:
        rec["rep"] = rep.spec()
    rec.update((key, _jsonable(value)) for key, value in extra.items()
               if value is not None)
    return rec


def _jsonable(x):
    if isinstance(x, (np.floating, float)):
        return float(f"{float(x):.12e}")
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# residuals below this are at the rounding floor and give no order
_ORDER_FLOOR = 1e-12


def _ladder_record(config: RunConfig, name, anchor, residuals, tolerance,
                   rep):
    """The record of a ladder series: its finest-rung residual and the
    mean convergence order between consecutive rungs, using the angular
    resolution as the mesh parameter.  Rung pairs at the rounding floor
    are skipped (no order if every pair is)."""
    ladder = config.ladder
    orders = [np.log(e1 / e2) / np.log(r2[1] / r1[1])
              for r1, r2, e1, e2 in zip(ladder, ladder[1:], residuals,
                                        residuals[1:])
              if e1 >= _ORDER_FLOOR and e2 >= _ORDER_FLOOR]
    return _record(name, anchor, residuals[-1], tolerance, rep,
                   order=float(np.mean(orders)) if orders else None)


def _test_section(config: RunConfig, rep: RepSpec, rung=None, **section_kw):
    """The run's smooth test section of ``rep`` on ``rung`` (the finest
    by default)."""
    grid = config.grid_for(rung or config.ladder[-1], rep.mass)
    return random_test_section(rep, grid, seed=config.seed, **section_kw)


def _ladder(config: RunConfig, rep: RepSpec, rows, labels, measure,
            **section_kw):
    """Evaluate ``measure(psi)``, a list of residuals, on the test section
    of each ladder rung.  Each residual with a label in ``labels`` adds
    one CSV row per rung (a None label adds none).  Returns the per-rung
    residuals of each measurement and the last rung's section."""
    series = [[] for _ in labels]
    for rung in config.ladder:
        psi = _test_section(config, rep, rung, **section_kw)
        for label, residuals, res in zip(labels, series, measure(psi)):
            residuals.append(res)
            if label is not None:
                rows.append((label, *rung, res))
    return series, psi


def _reps(config: RunConfig, kind=None):
    """The run's reps, massive ones first, or only those of ``kind``."""
    reps = [RepSpec.massive(m, s) for m, s in config.massive]
    reps += [RepSpec.massless(h) for h in config.massless]
    return [rep for rep in reps if kind in (None, rep.kind)]


# -- suites -----------------------------------------------------------------------


def _suite_symbolic(config: RunConfig, records, rows):
    # the one suite that loads the symbolic engine, and sympy with it
    from .identities import identity_suite
    for label in ("massive", "massless"):
        suite = identity_suite(massless=label == "massless")
        records.append(_record(
            f"symbolic-identities-{label}",
            "every catalogued operator identity normal-forms to exactly "
            "zero in rational arithmetic",
            sum(r["failures"] for r in suite), config.tolerance("symbolic"),
            checked=sum(r["count"] for r in suite)))


def _suite_algebra(config: RunConfig, records, rows):
    tol = config.tolerance("algebra")
    rids = relation_ids()
    for rep in _reps(config):
        series, _ = _ladder(
            config, rep, rows, [f"{rep!r}:{rid}" for rid in rids],
            lambda psi: algebra_residuals(rids, psi))
        for rid, residuals in zip(rids, series):
            records.append(_ladder_record(
                config, f"algebra-{rep.kind}-{rid}",
                "commutation relation of the generator family "
                f"{rid} holds on smooth test sections", residuals, tol, rep))


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
        def measure(psi, kind=kind, coeff=coeff):
            rep, grid = psi.rep, psi.grid
            f = curvature_commutator(kind, eth, eph, psi)
            pred = coeff(grid)[..., None] * _act_chi(rep, grid, psi.values)
            return [Section(rep, grid, f.values - pred).norm() / psi.norm()]
        (residuals,), _ = _ladder(config, rep, rows,
                                  [f"{rep!r}:{kind.variant}"], measure,
                                  polar_damping=4)
        records.append(_ladder_record(
            config, f"curvature-{rep.kind}-{kind.variant}", anchor,
            residuals, tol, rep))
    # cross commutators, massive only
    for rep in _reps(config, "massive"):
        psi = _test_section(config, rep, polar_damping=4)
        for label, res in cross_commutator_check(psi).items():
            records.append(_record(
                f"cross-commutator-{rep.spin}-{label.replace(' ', '-')}",
                "mixed boost/rotation commutator along the spherical "
                "frame matches its closed form", res, tol, rep))


def _suite_splitting(config: RunConfig, records, rows):
    tol = config.tolerance("splitting")
    flat = SplitOperators(ConnectionKind.flat_massive())
    boost = SplitOperators(ConnectionKind.boost())
    finest = config.ladder[-1]

    def flat_measure(psi):
        # the finest rung checks so(3) and the vector-operator property
        # of L and S in one call, on one set of passes
        if psi.grid.shape != finest:
            return [so3_residual(flat, psi), None]
        return list(vector_op_residual(flat, psi))

    for rep in _reps(config, "massive"):
        (residuals, vector_op), _ = _ladder(
            config, rep, rows, [f"{rep!r}:flat-so3", None], flat_measure)
        records.append(_ladder_record(
            config, f"flat-so3-massive-{rep.spin}",
            "the flat-connection orbital operators close the rotation "
            "algebra", residuals, tol, rep))
        records.append(_record(
            f"vector-op-massive-{rep.spin}",
            "orbital and internal parts are vector operators under J",
            vector_op[-1], tol, rep))
    for rep in _reps(config, "massless"):
        if rep.helicity == 0:
            continue
        (so3s, jperps), psi = _ladder(
            config, rep, rows, [f"{rep!r}:boost-so3", None],
            lambda psi: [so3_residual(boost, psi), jperp_so3_residual(psi)])
        records.append(_record(
            f"massless-so3-defect-h{rep.helicity:+d}",
            "the massless orbital so(3) failure equals the measured "
            "sphere curvature exactly",
            defect_identity_residual(boost, psi), tol, rep,
            so3_residual=so3s[-1]))
        records.append(_ladder_record(
            config, f"massless-jperp-closure-h{rep.helicity:+d}",
            "perpendicular angular momenta close only after the "
            "parallel correction", jperps, tol, rep))


def _suite_nw(config: RunConfig, records, rows):
    tol = config.tolerance("nw")
    for rep in _reps(config, "massive"):
        (grads,), psi = _ladder(
            config, rep, rows, [f"{rep!r}:gradient"],
            lambda psi: [nw_gradient_residual(psi)])
        phi = random_test_section(rep, psi.grid, seed=config.seed + 1)
        records.append(_record(
            f"nw-match-massive-{rep.spin}",
            "+i times the flat covariant derivative along Cartesian "
            "directions equals the closed-form mean position operator",
            nw_match_residual(psi), tol, rep))
        records.append(_ladder_record(
            config, f"nw-gradient-massive-{rep.spin}",
            "the mean position operator acts as the componentwise "
            "gradient in plain-measure coordinates",
            grads, config.tolerance("nw_gradient"), rep))
        records.append(_record(
            f"nw-hermitian-massive-{rep.spin}",
            "the mean position operator is symmetric under the "
            "invariant inner product",
            nw_hermiticity_defect(psi, phi),
            config.tolerance("nw_hermitian"), rep))


def _suite_degeneracy(config: RunConfig, records, rows):
    tol = config.tolerance("degeneracy")
    for rep in _reps(config):
        # a rep's draws do not depend on the reps before it
        rng = np.random.default_rng(config.seed)
        psi = _test_section(config, rep)
        grid = psi.grid
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
            boost = apply_connection(ConnectionKind.boost(), x, psi)
            rotation = apply_connection(ConnectionKind.rotation(), x, psi)
            gaps.append((boost - rotation).norm() / psi.norm())
        # a coincidence must hold for every field, a separation too
        worst, least = float(np.max(gaps)), float(np.min(gaps))
        if rep.kind == "massless":
            records.append(_record(
                f"degeneracy-massless-h{rep.helicity:+d}",
                "boost and rotation connections coincide at zero mass",
                worst, tol, rep))
        elif rep.spin == 0:
            # spin-0 fibers are one-dimensional and both connections reduce
            # to the same scalar transport, so the gap vanishes exactly
            records.append(_record(
                "degeneracy-massive-spin0-coincidence",
                "boost and rotation connections coincide on trivial "
                "(spin-0) fibers at any mass", worst, tol, rep))
        else:
            records.append(_record(
                f"degeneracy-gap-massive-{rep.spin}",
                "boost and rotation connections stay separated on "
                "sphere-tangential directions for positive mass and "
                "nonzero spin", least, None, rep,
                passed=least > DEGENERACY_GAP_MIN))


def _suite_fplus(config: RunConfig, records, rows):
    """Scan f = lambda * H/m: curvature is minimized at lambda = 1 and
    the projected coefficient matches (1 - lambda^2)/|k|^2."""
    tol = config.tolerance("fplus")
    eth = TangentField.named("e_theta")
    eph = TangentField.named("e_phi")
    lams = (0.5, 0.9, 1.0, 1.1, 2.0)
    for rep in _reps(config, "massive"):
        if rep.spin == 0:
            continue  # spin-0 fibers carry no curvature to scan
        psi = _test_section(config, rep, polar_damping=4)
        grid = psi.grid
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
            coeff_errs.append(abs(c) if pred == 0.0
                              else abs(c - pred) / abs(pred))
            rows.append((f"{rep!r}:lambda={lam}", *config.ladder[-1],
                         norms[-1]))
        off_one = 0.0 if int(np.argmin(norms)) == lams.index(1.0) else 1.0
        if np.isnan(norms).any():
            off_one = float("nan")  # argmin may pick out a NaN
        records.append(_record(
            f"fplus-minimum-spin{rep.spin}",
            "the affine weight H/m is the curvature minimum of the "
            "constant-multiple family", off_one,
            config.tolerance("fplus_minimum"), rep,
            curvature_norms={str(l): _jsonable(n)
                             for l, n in zip(lams, norms)}))
        records.append(_record(
            f"fplus-prediction-spin{rep.spin}",
            "measured affine curvature matches the "
            "(1 - lambda^2)/|k|^2 coefficient per lambda",
            float(np.max([e for l, e in zip(lams, coeff_errs) if l != 1.0])),
            tol, rep))


def _suite_chern(config: RunConfig, records, rows):
    tol = config.tolerance("chern")
    _, nt, npp = config.ladder[-1]
    for rep in _reps(config, "massless"):
        expected = -2 * rep.helicity
        # at m = 0 every connection kind gives the same form, so one kind
        # measures the subbundle
        n, raw = chern_number(rep, ConnectionKind.boost(), n_theta=nt,
                              n_phi=npp, radius=config.r0)
        error = abs(raw - expected)
        records.append(_record(
            f"chern-h{rep.helicity:+d}",
            "the helicity-h subbundle has first Chern number -2h on "
            "every momentum shell", error, tol, rep,
            passed=error <= tol and n == expected,
            integer=n, expected=expected, raw=raw))
        rows.append((f"h={rep.helicity:+d}", 1, nt, npp, error))


def _suite_holonomy(config: RunConfig, records, rows):
    tol = config.tolerance("holonomy")
    r0 = config.r0
    th1 = np.pi / 2 - 0.2
    loops = []
    for a_target in (0.01, 0.05):
        dphi = np.sqrt(a_target)
        th2 = float(np.arccos(np.cos(th1) - a_target / dphi))
        loops.append((a_target, HolonomyLoop(r0, th1, th2, 0.3, 0.3 + dphi)))
    for rep in _reps(config, "massive"):
        if rep.spin == 0:
            continue  # spin-0 fibers have no rotation to measure
        om2 = rep.mass**2 + r0**2
        for a_target, loop in loops:
            u = holonomy(rep, ConnectionKind.boost(), loop, n_steps=96)
            pred_angle = loop.solid_angle() * r0**2 / om2
            tr = float(np.real(np.trace(u)))
            meas = float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
            records.append(_record(
                f"holonomy-boost-A{a_target}",
                "boost-connection loop transport rotates the fiber about "
                "k-hat by solid angle times |k|^2/H^2",
                abs(meas - pred_angle) / pred_angle, tol, rep))
            uf = holonomy(rep, ConnectionKind.flat_massive(), loop,
                          n_steps=96)
            records.append(_record(
                f"holonomy-flat-A{a_target}",
                "flat-connection loop transport is the identity",
                float(np.linalg.norm(uf - np.eye(rep.dim))),
                config.tolerance("holonomy_flat"), rep))


def _suite_leibniz(config: RunConfig, records, rows):
    tol = config.tolerance("leibniz")

    def measure(psi):
        grid = psi.grid
        f = np.exp(-0.5 * ((grid.kx - 0.2)**2 + grid.ky**2
                           + (grid.kz - 0.1)**2))
        frame = [TangentField.named(name)
                 for name in ("e_theta", "e_phi", "e_k")]
        return [float(np.max([
            leibniz_residual(kind, frame, f, psi)
            for kind in (ConnectionKind.boost(), ConnectionKind.rotation())
        ]))]

    for rep in _reps(config):
        (residuals,), _ = _ladder(config, rep, rows, [f"{rep!r}"], measure)
        records.append(_ladder_record(
            config, f"leibniz-{rep.kind}-"
            + (f"s{rep.spin}" if rep.kind == "massive"
               else f"h{rep.helicity:+d}"),
            "covariant derivatives obey the product rule on smooth "
            "scalar multiples", residuals, tol, rep))


SUITES = {
    "symbolic": {"fn": _suite_symbolic, "ladder": False},
    "algebra": {"fn": _suite_algebra, "ladder": True, "massless_grids": True},
    "leibniz": {"fn": _suite_leibniz, "ladder": True, "massless_grids": True},
    "curvature": {"fn": _suite_curvature, "ladder": True,
                  "massless_grids": True},
    "splitting": {"fn": _suite_splitting, "ladder": True,
                  "massless_grids": True},
    "nw": {"fn": _suite_nw, "ladder": True},
    "degeneracy": {"fn": _suite_degeneracy, "ladder": False,
                   "massless_grids": True},
    "fplus": {"fn": _suite_fplus, "ladder": False},
    "chern": {"fn": _suite_chern, "ladder": False},
    "holonomy": {"fn": _suite_holonomy, "ladder": False},
}

# every fixed threshold: one per suite, then those of named sub-checks
_TOLERANCES = {
    "symbolic": 0.5, "algebra": 1e-3, "leibniz": 1e-3, "curvature": 1e-3,
    "splitting": 1e-3, "nw": 1e-6, "degeneracy": 1e-6, "fplus": 1e-2,
    "chern": 0.05, "holonomy": 1e-2,
    "nw_gradient": 1e-4, "nw_hermitian": 1e-4, "holonomy_flat": 1e-8,
    "fplus_minimum": 0.5,
}


# ru_maxrss is in kilobytes, except on macOS (bytes)
_MAXRSS_PER_MB = 1 << 20 if sys.platform == "darwin" else 1 << 10


def _usage():
    """This process's resource usage, or None where ``resource`` is
    missing."""
    return None if resource is None else resource.getrusage(
        resource.RUSAGE_SELF)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_suite(config: RunConfig, suite: str):
    """Run one suite.  Returns its records, its CSV rows, its elapsed
    seconds and its resource usage (None where ``resource`` is missing),
    both measured in the process that ran it."""
    records, rows = [], []
    t0 = time.perf_counter()
    before = _usage()
    SUITES[suite]["fn"](config, records, rows)
    for rec in records:
        rec["suite"] = suite
    rows = [(suite, *row) for row in rows]
    elapsed = round(time.perf_counter() - t0, 3)
    after = _usage()
    usage = None if after is None else {
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "peak_rss_mb": round(after.ru_maxrss / _MAXRSS_PER_MB, 1)}
    return records, rows, elapsed, usage


def _exit_with(parent: int) -> None:
    """Pool initializer: end this worker once ``parent`` is gone, so a
    caller killed in mid-run leaves no worker behind."""
    import threading

    def watch():
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_suites(config: RunConfig) -> dict:
    """Run the configured suites and return the report dict.

    No suite's results depend on the suites run before it, so on Linux
    the suites are shared out over up to one process per usable CPU:
    this process runs every n-th suite, from the first, and forked
    workers run the rest.  The results are merged in the configured
    order, so the report does not depend on the number of processes."""
    suites = config.suites
    # fork was measured on Linux only; elsewhere (macOS's system BLAS is
    # not fork-safe) every suite runs in this process
    n = min(len(suites), _usable_cpus()) if sys.platform == "linux" else 1
    here = suites[::n]
    there = [suite for i, suite in enumerate(suites) if i % n]
    if there:
        # forked, not spawned: a spawned worker would pay the package's
        # import again and lose the state set at run time, such as a
        # patched constant.  numpy's BLAS may run threads of its own,
        # which the fork does not copy (Python 3.12+ warns of them).
        # Imported here: only this branch uses them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                n - 1, mp_context=multiprocessing.get_context("fork"),
                initializer=_exit_with, initargs=(os.getpid(),)) as pool:
            pooled = pool.map(_run_suite, [config] * len(there), there)
            results = {suite: _run_suite(config, suite) for suite in here}
            results.update(zip(there, pooled))
    else:
        results = {suite: _run_suite(config, suite) for suite in suites}
    records = []
    rows = []
    timings = {}
    resources = {}
    for suite in suites:
        suite_records, suite_rows, elapsed, usage = results[suite]
        records += suite_records
        rows += suite_rows
        timings[suite] = elapsed
        if usage is not None:
            resources[suite] = usage
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
    # orders are in the records, so the order column stays empty
    for suite, check, nr, nt, npp, residual in report["_rows"]:
        writer.writerow([suite, check, nr, nt, npp, f"{residual:.12e}", ""])
    return buf.getvalue()
