"""Command-line entry point.

Subcommands:

* ``run``          — run named diagnostic suites, emit a JSON report and
                     an optional convergence CSV.
* ``eval``         — parse an operator expression, print its normal
                     form (``--check-zero`` for a pass/fail line).
* ``convergence``  — like ``run`` but prints the CSV ladder table.
* ``chern``        — lattice Chern number of one massless helicity.
* ``holonomy``     — loop transport for the boost and flat connections.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 configuration/usage/expression error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .connections import (
    ConnectionKind,
    ConnectionLabError,
    HolonomyLoop,
    chern_number,
    holonomy,
)
from .algebra import VectorExpr
from .grid import GridError
from .lang import LangError, format_expr, lower, parse
from .report import (
    ConfigError,
    RunConfig,
    SUITES,
    convergence_csv,
    report_json,
    run_suites,
)
from .reps import RepError, RepSpec
from .scalars import Ring

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


def _parse_grid(text: str):
    parts = text.replace("x", ",").split(",")
    if len(parts) != 3:
        raise ConfigError(f"--grid expects NR,NT,NP; got {text!r}")
    return tuple(int(p) for p in parts)


def _build_config(args) -> RunConfig:
    if args.config:
        for flag, key in (("grid", "[grid] ladder"),
                          ("mass", "[reps] massive"),
                          ("spin", "[reps] massive"),
                          ("helicity", "[reps] massless")):
            if getattr(args, flag) is not None:
                raise ConfigError(
                    f"--{flag} cannot be combined with --config; set "
                    f"{key} in the config file instead"
                )
        config = RunConfig.from_ini(args.config)
        if args.suite:
            config = RunConfig(
                suites=args.suite, seed=config.seed, ladder=config.ladder,
                r_min=config.r_min, r_max=config.r_max,
                massive=config.massive, massless=config.massless,
                tolerances=config.tolerances, json_path=config.json_path,
                csv_path=config.csv_path, normalize=config.normalize)
    else:
        kwargs = {"suites": args.suite or list(SUITES)}
        if args.grid:
            rung = _parse_grid(args.grid)
            kwargs["ladder"] = [tuple(max(4, n // 2) for n in rung), rung]
        if args.mass is not None or args.spin is not None:
            mass = args.mass if args.mass is not None else 1.3
            spin = args.spin if args.spin is not None else 1
            kwargs["massive"] = [(mass, spin)]
        if args.helicity is not None:
            kwargs["massless"] = [args.helicity]
        config = RunConfig(**kwargs)
    if args.seed is not None:
        config.seed = args.seed
    if args.json:
        config.json_path = args.json
    if args.csv:
        config.csv_path = args.csv
    if args.normalize:
        config.normalize = True
    return config


def _cmd_run(args) -> int:
    config = _build_config(args)
    report = run_suites(config)
    text = report_json(report)
    if config.json_path:
        with open(config.json_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if config.csv_path:
        with open(config.csv_path, "w") as fh:
            fh.write(convergence_csv(report))
    for rec in report["records"]:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"{status} {rec['suite']}:{rec['name']} "
              f"measured={rec['measured']} tol={rec['tolerance']}",
              file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _cmd_convergence(args) -> int:
    config = _build_config(args)
    ladder_suites = [s for s in config.suites if SUITES[s]["ladder"]]
    if not ladder_suites:
        raise ConfigError(
            "no selected suite produces a convergence ladder; pick from "
            + ", ".join(s for s in SUITES if SUITES[s]["ladder"])
        )
    config.suites = ladder_suites
    report = run_suites(config)
    text = convergence_csv(report)
    if config.csv_path:
        with open(config.csv_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _cmd_eval(args) -> int:
    ring = Ring(massless=(args.mode == "massless-symbolic"))
    expr = lower(parse(args.expr), ring)
    if args.check_zero:
        comps = list(expr) if isinstance(expr, VectorExpr) else [expr]
        zero = all(e.is_zero() for e in comps)
        print("PASS: expression is identically zero" if zero
              else "FAIL: expression is not zero")
        return EXIT_OK if zero else EXIT_CHECK_FAILED
    if isinstance(expr, VectorExpr):
        for a, comp in enumerate(expr, start=1):
            print(f"[{a}] {format_expr(comp)}")
    else:
        print(format_expr(expr))
    return EXIT_OK


def _cmd_chern(args) -> int:
    h = args.helicity if args.helicity is not None else 1
    rep = RepSpec.massless(h)
    nt, npp = 48, 96
    if args.grid:
        _, nt, npp = _parse_grid(args.grid)
    result = {}
    for name, kind in (("boost", ConnectionKind.boost()),
                       ("rotation", ConnectionKind.rotation())):
        n, raw = chern_number(rep, kind, n_theta=nt, n_phi=npp)
        result[name] = {"integer": n, "raw": raw}
    expected = -2 * h
    ok = all(v["integer"] == expected for v in result.values())
    out = {"helicity": h, "expected": expected, "results": result,
           "passed": ok}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_holonomy(args) -> int:
    mass = args.mass if args.mass is not None else 1.3
    spin = args.spin if args.spin is not None else 1
    rep = RepSpec.massive(mass, spin)
    r0 = 1.5
    out = {"mass": mass, "spin": spin, "radius": r0, "loops": []}
    ok = True
    for a_target in (0.01, 0.05):
        th1 = np.pi / 2 - 0.2
        dphi = float(np.sqrt(a_target))
        th2 = float(np.arccos(np.cos(th1) - a_target / dphi))
        loop = HolonomyLoop(r0, th1, th2, 0.3, 0.3 + dphi)
        area = loop.solid_angle()
        u = holonomy(rep, ConnectionKind.boost(), loop, n_steps=96)
        tr = float(np.real(np.trace(u)))
        meas = float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
        pred = area * r0**2 / (mass**2 + r0**2)
        uf = holonomy(rep, ConnectionKind.flat_massive(), loop,
                      n_steps=96)
        flat_defect = float(np.linalg.norm(uf - np.eye(rep.dim)))
        rel = abs(meas - pred) / pred
        ok = ok and rel <= 1e-2 and flat_defect <= 1e-8
        out["loops"].append({
            "solid_angle": area,
            "boost_angle_measured": meas,
            "boost_angle_predicted": pred,
            "relative_error": rel,
            "flat_defect": flat_defect,
        })
    out["passed"] = ok
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _add_common(sub):
    sub.add_argument("--config", help="INI config file path")
    sub.add_argument("--suite", nargs="+", choices=sorted(SUITES),
                     help="suites to run")
    sub.add_argument("--mass", type=float, help="massive rep mass")
    sub.add_argument("--spin", type=int, choices=(0, 1),
                     help="massive rep spin")
    sub.add_argument("--helicity", type=int, choices=(-1, 0, 1),
                     help="massless rep helicity")
    sub.add_argument("--grid", help="reference resolution NR,NT,NP")
    sub.add_argument("--seed", type=int, help="test-section seed")
    sub.add_argument("--json", help="JSON report output path")
    sub.add_argument("--csv", help="convergence CSV output path")
    sub.add_argument("--normalize", action="store_true",
                     help="omit timings for byte-stable reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsplit",
        description="symbolic/numerical diagnostics for connection-"
                    "induced angular-momentum splittings")
    parser.add_argument("--version", action="version",
                        version=f"spinsplit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run diagnostic suites")
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_conv = subs.add_parser("convergence",
                             help="convergence ladder CSV")
    _add_common(p_conv)
    p_conv.set_defaults(fn=_cmd_convergence)

    p_eval = subs.add_parser("eval", help="evaluate an operator "
                                          "expression to normal form")
    p_eval.add_argument("expr")
    p_eval.add_argument("--mode", default="massive-symbolic",
                        choices=("massive-symbolic", "massless-symbolic"))
    p_eval.add_argument("--check-zero", action="store_true",
                        help="report pass/fail on identical vanishing")
    p_eval.set_defaults(fn=_cmd_eval)

    p_chern = subs.add_parser("chern", help="lattice Chern number")
    p_chern.add_argument("--helicity", type=int, choices=(-1, 0, 1))
    p_chern.add_argument("--grid", help="resolution NR,NT,NP "
                                        "(NR ignored)")
    p_chern.set_defaults(fn=_cmd_chern)

    p_hol = subs.add_parser("holonomy", help="loop transport check")
    p_hol.add_argument("--mass", type=float)
    p_hol.add_argument("--spin", type=int, choices=(0, 1))
    p_hol.set_defaults(fn=_cmd_holonomy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LangError as exc:
        print(f"expression error at line {exc.line}, col {exc.col}: "
              f"{exc.message}", file=sys.stderr)
        return EXIT_ERROR
    except (ConfigError, ConnectionLabError, GridError, RepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
