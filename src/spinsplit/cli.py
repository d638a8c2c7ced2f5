"""Command-line entry point.

Subcommands:

* ``run``       — run named diagnostic suites, emit a JSON report and,
                  with ``--csv``, the per-rung convergence CSV.
* ``eval``      — parse an operator expression, print its normal form
                  (``--check-zero`` for a pass/fail line).

A single suite is ``run --suite NAME``: ``run --suite chern --helicity 1``
prints the lattice Chern numbers, ``run --suite holonomy --mass 1.3
--spin 1`` the loop transport checks.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 configuration/usage/expression error.  Configuration errors,
unwritable output paths included, are reported before any suite runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .connections import ConnectionLabError
from .grid import GridError
from .report import (
    ConfigError,
    RunConfig,
    SUITES,
    convergence_csv,
    report_json,
    run_suites,
)
from .reps import RepError, RepSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


def _parse_grid(text: str):
    try:
        nr, nt, npp = map(int, text.lower().replace("x", ",").split(","))
    except ValueError:
        raise ConfigError(f"--grid expects three integers NR,NT,NP; "
                          f"got {text!r}") from None
    return nr, nt, npp


def _grid_ladder(text: str, suites) -> list:
    """The ladder of ``--grid``: the given rung, below it a halved rung
    when a selected suite estimates convergence orders."""
    rung = _parse_grid(text)
    if rung[2] % 2:
        raise ConfigError(
            f"--grid {text}: the rung {rung} has odd N_phi = {rung[2]}; "
            f"N_phi must be even")
    if not any(SUITES[s]["ladder"] for s in suites):
        return [rung]
    half = tuple(max(4, n // 2) for n in rung)
    if not all(a < b for a, b in zip(half, rung)):
        raise ConfigError(
            f"--grid {text}: convergence suites also run the halved rung "
            f"{half}, which must lie below {rung} in every dimension; "
            f"give every dimension at least 5 nodes")
    if half[2] % 2:
        raise ConfigError(
            f"--grid {text}: convergence suites also run the halved rung "
            f"{half}, whose N_phi = {half[2]} must be even; give an N_phi "
            f"that is 6 or a multiple of 4")
    return [half, rung]


def _build_config(args) -> RunConfig:
    # the [run] keys that flags replace, validated by RunConfig with the
    # rest of the configuration
    overrides = {key: value for key, value in (
        ("suites", args.suite), ("normalize", args.normalize)) if value}
    # an empty output path is passed on, for RunConfig to reject
    overrides.update({key: value for key, value in (
        ("json_path", args.json), ("csv_path", args.csv),
        ("seed", args.seed)) if value is not None})
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
        # RunConfig's slots are its constructor's parameters
        kwargs = {name: getattr(config, name) for name in RunConfig.__slots__}
    else:
        kwargs = {"suites": args.suite or list(SUITES)}
        if args.grid:
            kwargs["ladder"] = _grid_ladder(args.grid, kwargs["suites"])
        if args.mass is not None or args.spin is not None:
            mass = args.mass if args.mass is not None else 1.3
            spin = args.spin if args.spin is not None else 1
            kwargs["massive"] = [(mass, spin)]
        if args.helicity is not None:
            kwargs["massless"] = [args.helicity]
    kwargs.update(overrides)
    config = RunConfig(**kwargs)
    for path in (config.json_path, config.csv_path):
        if (args.config and path
                and os.path.realpath(path) == os.path.realpath(args.config)):
            raise ConfigError(
                f"the output path {path!r} names the config file "
                f"{args.config!r}; writing it would overwrite the config")
    return config


def _check_writable(path: str) -> None:
    """Reject an output path that cannot be written before any suite
    runs; ``_write`` catches what this check cannot foresee."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(parent, os.W_OK):
        raise ConfigError(f"cannot write {path!r}: not a file in a "
                          f"writable directory")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def _cmd_run(args) -> int:
    config = _build_config(args)
    for path in (config.json_path, config.csv_path):
        if path:
            _check_writable(path)
    report = run_suites(config)
    text = report_json(report)
    if config.json_path:
        _write(config.json_path, text)
    else:
        sys.stdout.write(text)
    if config.csv_path:
        _write(config.csv_path, convergence_csv(report))
    for rec in report["records"]:
        status = "PASS" if rec["passed"] else "FAIL"
        # names repeat across reps: the rep, as the CSV labels print it,
        # tells them apart
        rep = f" {RepSpec(**rec['rep'])!r}" if "rep" in rec else ""
        print(f"{status} {rec['suite']}:{rec['name']}{rep} "
              f"measured={rec['measured']} tol={rec['tolerance']}",
              file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _cmd_eval(args) -> int:
    # only eval needs the symbolic engine, and sympy with it
    from .algebra import VectorExpr
    from .lang import format_expr, lower, parse
    from .scalars import Ring

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsplit",
        description="symbolic/numerical diagnostics for connection-"
                    "induced angular-momentum splittings")
    parser.add_argument("--version", action="version",
                        version=f"spinsplit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run diagnostic suites")
    p_run.add_argument("--config", help="INI config file path")
    p_run.add_argument("--suite", nargs="+", choices=sorted(SUITES),
                       help="suites to run")
    p_run.add_argument("--mass", type=float, help="massive rep mass")
    p_run.add_argument("--spin", type=int, choices=(0, 1),
                       help="massive rep spin")
    p_run.add_argument("--helicity", type=int, choices=(-1, 0, 1),
                       help="massless rep helicity")
    p_run.add_argument("--grid", help="reference resolution NR,NT,NP; "
                                      "the chern mesh is NT x NP")
    p_run.add_argument("--seed", type=int, help="test-section seed")
    p_run.add_argument("--json", help="JSON report output path")
    p_run.add_argument("--csv", help="convergence CSV output path")
    p_run.add_argument("--normalize", action="store_true",
                       help="omit timings and resources for byte-stable "
                            "reports")
    p_run.set_defaults(fn=_cmd_run)

    p_eval = subs.add_parser("eval", help="evaluate an operator "
                                          "expression to normal form")
    p_eval.add_argument("expr")
    p_eval.add_argument("--mode", default="massive-symbolic",
                        choices=("massive-symbolic", "massless-symbolic"))
    p_eval.add_argument("--check-zero", action="store_true",
                        help="report pass/fail on identical vanishing")
    p_eval.set_defaults(fn=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ConnectionLabError, GridError, RepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # a LangError exists only once ``lang`` is loaded: by eval, or by
        # unpickling one that a forked worker raised
        lang = sys.modules.get("spinsplit.lang")
        if lang is None or not isinstance(exc, lang.LangError):
            raise
        print(f"expression error at line {exc.line}, col {exc.col}: "
              f"{exc.message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
