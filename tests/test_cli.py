"""Command-line interface and run configuration: config parsing and
validation, subcommands, exit codes, and report determinism."""

import json
import multiprocessing
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import spinsplit
import spinsplit.cli as cli
import spinsplit.report as report_module
from spinsplit.cli import (
    EXIT_CHECK_FAILED,
    EXIT_ERROR,
    EXIT_OK,
    _build_config,
    build_parser,
    main,
)
from spinsplit.connections import (
    ConnectionKind,
    TangentField,
    apply_connection,
)
from spinsplit.lang import LangError, lower, parse
from spinsplit.report import (
    CSV_COLUMNS,
    DEGENERACY_GAP_MIN,
    ConfigError,
    RunConfig,
    SUITES,
    _KNOWN_KEYS,
    _TOLERANCES,
    _run_suite,
    convergence_csv,
    report_json,
    run_suites,
)
from spinsplit.reps import RepError, RepSpec, random_test_section
from spinsplit.scalars import Ring


# -- RunConfig validation -----------------------------------------------------


def test_empty_suites_rejected():
    with pytest.raises(ConfigError):
        RunConfig(suites=[])


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        RunConfig(suites=["nope"])


def test_bad_ladder_rejected():
    with pytest.raises(ConfigError):
        RunConfig(suites=["symbolic"], ladder=[(4, 12)])
    with pytest.raises(ConfigError):
        RunConfig(suites=["symbolic"], ladder=[(2, 12, 24)])
    with pytest.raises(ConfigError):
        RunConfig(suites=["symbolic"],
                  ladder=[(6, 24, 48), (4, 12, 24)])


def test_ladder_suites_need_two_rungs():
    with pytest.raises(ConfigError):
        RunConfig(suites=["algebra"], ladder=[(6, 24, 48)])
    # non-ladder suites are fine with one rung
    RunConfig(suites=["symbolic"], ladder=[(6, 24, 48)])


def test_bad_reps_rejected():
    with pytest.raises(ConfigError):
        RunConfig(suites=["symbolic"], massive=[(0.0, 1)])
    with pytest.raises(ConfigError):
        RunConfig(suites=["symbolic"], massive=[(1.0, 3)])
    with pytest.raises(ConfigError):
        RunConfig(suites=["symbolic"], massless=[2])


def test_bad_shell_rejected():
    with pytest.raises(ConfigError):
        RunConfig(suites=["symbolic"], r_min=2.0, r_max=1.0)


def test_thresholds_are_fixed():
    c = RunConfig(suites=["symbolic"])
    assert c.tolerance("algebra") == 1e-3
    assert c.tolerance("nw_gradient") == 1e-4
    assert c.tolerance("chern") == 0.05
    assert set(SUITES) <= set(_TOLERANCES)
    for name, tol in _TOLERANCES.items():
        assert c.tolerance(name) == tol
    with pytest.raises(TypeError, match="tolerances"):
        RunConfig(suites=["symbolic"], tolerances={"splitting": 1e9})
    assert "tolerances" not in c.spec()


@pytest.mark.parametrize("suite, name, prefix, run", [
    ("symbolic", "symbolic", "symbolic-identities-", {}),
    ("chern", "chern", "chern-", dict(massive=[], massless=[1])),
    ("fplus", "fplus_minimum", "fplus-minimum-",
     dict(ladder=[(4, 12, 24)], massive=[(1.3, 1)], massless=[])),
], ids=["symbolic", "chern", "fplus"])
def test_a_record_reads_its_tolerance_from_the_table(monkeypatch, suite,
                                                     name, prefix, run):
    config = RunConfig(suites=[suite], normalize=True, **run)
    monkeypatch.setitem(_TOLERANCES, name, 0.25)
    records = [rec for rec in run_suites(config)["records"]
               if rec["name"].startswith(prefix)]
    assert records
    assert all(rec["tolerance"] == 0.25 for rec in records)


def test_grid_for_builds_the_grid_of_the_rep_mass():
    c = RunConfig(suites=["symbolic"])
    assert c.grid_for((4, 12, 24), mass=1.3).spec()["mass"] == 1.3
    assert c.grid_for((4, 12, 24), mass=0.0).spec()["mass"] == 0.0


# -- INI parsing -----------------------------------------------------------------


def _write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def test_ini_round_trip(tmp_path):
    path = _write(tmp_path, """
[run]
suites = symbolic, algebra
seed = 11
normalize = true

[grid]
ladder = 4x12x24, 6x24x48
r_min = 1.0
r_max = 2.0

[reps]
massive = 1.3:1
massless = -1, 1
""")
    c = RunConfig.from_ini(path)
    assert c.suites == ["symbolic", "algebra"]
    assert c.seed == 11
    assert c.normalize is True
    assert c.ladder == [(4, 12, 24), (6, 24, 48)]
    assert c.massive == [(1.3, 1)]
    assert c.massless == [-1, 1]
    assert c.r_min == 1.0 and c.r_max == 2.0
    assert c.spec()["ladder"] == [[4, 12, 24], [6, 24, 48]]


def test_ini_unknown_section(tmp_path):
    path = _write(tmp_path, "[run]\nsuites = symbolic\n[bogus]\nx = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini(path)


def test_ini_unknown_key(tmp_path):
    path = _write(tmp_path, "[run]\nsuites = symbolic\nspeed = 9\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini(path)


@pytest.mark.parametrize("line", ["splitting = 1e9", "algebr = 1e9",
                                  "holonomy = nan"])
def test_ini_tolerances_section_exits_2(tmp_path, capsys, line):
    # thresholds are fixed: a [tolerances] section is an unknown section,
    # so no config can turn a FAIL into a PASS
    path = _write(tmp_path,
                  f"[run]\nsuites = symbolic\n[tolerances]\n{line}\n")
    with pytest.raises(ConfigError, match=r"\[tolerances\]"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "unknown config section [tolerances]" in capsys.readouterr().err


def test_ini_bad_ladder_syntax(tmp_path):
    path = _write(tmp_path,
                  "[run]\nsuites = symbolic\n[grid]\nladder = 4x12\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini(path)


def test_ini_missing_suites(tmp_path):
    path = _write(tmp_path, "[grid]\nr_min = 1.0\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini(path)


def test_ini_missing_file():
    with pytest.raises(ConfigError):
        RunConfig.from_ini("/no/such/file.ini")


@pytest.mark.parametrize("spelling,value", [
    ("true", True), ("Yes", True), ("on", True), ("1", True),
    ("false", False), ("no", False), ("OFF", False), ("0", False),
])
def test_ini_normalize_boolean_spellings(tmp_path, spelling, value):
    path = _write(tmp_path,
                  f"[run]\nsuites = symbolic\nnormalize = {spelling}\n")
    assert RunConfig.from_ini(path).normalize is value


@pytest.mark.parametrize("spelling", ["ture", "y", "2", ""])
def test_ini_normalize_misspelt_exits_2(tmp_path, capsys, spelling):
    path = _write(tmp_path,
                  f"[run]\nsuites = symbolic\nnormalize = {spelling}\n")
    with pytest.raises(ConfigError, match="normalize"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "normalize" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("r_max", "inf"), ("r_max", "nan"), ("r_min", "nan"),
    ("r_min", "-inf"),
])
def test_ini_shell_radius_not_finite_exits_2(tmp_path, capsys, key, value):
    path = _write(tmp_path, "[run]\nsuites = holonomy\n"
                            f"[grid]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match="r_max"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "r_min" in capsys.readouterr().err


@pytest.mark.parametrize("mass", ["inf", "nan", "-inf"])
def test_mass_not_finite_exits_2(tmp_path, capsys, mass):
    with pytest.raises(ConfigError, match="mass"):
        RunConfig(suites=["holonomy"], massive=[(float(mass), 1)])
    assert main(["run", "--suite", "holonomy", f"--mass={mass}"]) \
        == EXIT_ERROR
    assert "finite mass" in capsys.readouterr().err
    path = _write(tmp_path, "[run]\nsuites = holonomy\n"
                            f"[reps]\nmassive = {mass}:1\n")
    assert main(["run", "--config", path]) == EXIT_ERROR


@pytest.mark.parametrize("mass,suite", [
    ("1e200", "holonomy"), ("1e300", "nw"), ("1e-300", "nw"),
])
def test_mass_whose_square_is_not_finite_and_positive_exits_2(
        tmp_path, capsys, mass, suite):
    # m^2 overflows (an OverflowError in the energy) or underflows to 0
    # (infinite position-operator records); both are rejected up front
    with pytest.raises(ConfigError, match=re.escape(f"mass={float(mass)!r}")):
        RunConfig(suites=[suite], massive=[(float(mass), 1)])
    assert main(["run", "--suite", suite, "--mass", mass]) == EXIT_ERROR
    assert f"mass={float(mass)!r}" in capsys.readouterr().err
    path = _write(tmp_path, f"[run]\nsuites = {suite}\n"
                            f"[reps]\nmassive = {mass}:1\n")
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "mass^2" in capsys.readouterr().err


def test_ini_shell_radius_whose_square_overflows_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "[run]\nsuites = holonomy\n"
                            "[grid]\nr_max = 1e200\n")
    with pytest.raises(ConfigError, match="r_max=1e\\+200"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "r_max^2 overflows" in capsys.readouterr().err
    # the largest accepted shell and masses still build their grids
    config = RunConfig(suites=["holonomy"], r_max=1e150,
                       massive=[(1e150, 1), (1e-150, 1)])
    for mass, _ in config.massive:
        grid = config.grid_for((4, 12, 24), mass)
        assert np.all(np.isfinite(grid.omega))


def test_mass_whose_sinh_nodes_underflow_exits_2(tmp_path, capsys):
    # far above r_max the sinh nodes crowd so close that the radial
    # differentiation matrix is 0/0, and every residual would be NaN
    assert main(["run", "--suite", "splitting", "nw", "--mass", "1e150",
                 "--spin", "1", "--helicity", "1",
                 "--grid", "5,12,24"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "mass=1e+150" in captured.err
    assert "PASS" not in captured.out + captured.err
    path = _write(tmp_path, "[run]\nsuites = algebra\n"
                            "[reps]\nmassive = 1e150:1\n")
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "mass=1e+150" in capsys.readouterr().err


def test_massless_shell_whose_linear_map_is_non_finite_exits_2(tmp_path,
                                                               capsys):
    # massless grids use the linear map in r; far from unit scale the
    # products of the node spacings underflow (N_r = 6 here) or overflow,
    # and the run would stop at the first rung that builds such a grid
    with pytest.raises(ConfigError, match="r_min=1e-100, r_max=2e-100"):
        RunConfig(suites=["algebra"], r_min=1e-100, r_max=2e-100,
                  massless=[1], massive=[])
    path = _write(tmp_path, "[run]\nsuites = algebra\n"
                            "[grid]\nr_min = 1e-100\nr_max = 2e-100\n"
                            "[reps]\nmassive =\nmassless = 1\n")
    assert main(["run", "--config", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "r_min=1e-100, r_max=2e-100" in captured.err
    assert "PASS" not in captured.out + captured.err
    for suite in ("curvature", "splitting", "leibniz", "degeneracy"):
        with pytest.raises(ConfigError, match="r_max=1e\\+150"):
            RunConfig(suites=[suite], r_max=1e150, massive=[(1e150, 1)])
    # suites that build no massless grid, and runs without massless reps,
    # keep the shell
    RunConfig(suites=["chern", "symbolic"], r_min=1e-100, r_max=2e-100,
              massive=[])
    RunConfig(suites=["algebra"], r_min=1e-100, r_max=2e-100, massless=[],
              massive=[])


_SECTION_SUITES = ("algebra", "curvature", "splitting", "leibniz", "nw",
                   "degeneracy", "fplus")


def test_nan_section_fails_every_record(monkeypatch):
    def with_one_nan(*args, **kwargs):
        psi = random_test_section(*args, **kwargs)
        psi.values[1, 2, 3, 0] = np.nan
        return psi

    monkeypatch.setattr("spinsplit.report.random_test_section", with_one_nan)
    report = run_suites(RunConfig(
        suites=_SECTION_SUITES, ladder=((4, 12, 24), (6, 24, 48)),
        massive=[(1.3, 1)], massless=[1]))
    records = report["records"]
    assert {r["suite"] for r in records} == set(_SECTION_SUITES)
    assert [r["name"] for r in records
            if r["passed"] or not np.isnan(r["measured"])] == []


# -- INI reading rules -----------------------------------------------------------


def test_ini_percent_is_literal(tmp_path, capsys):
    path = _write(tmp_path, "[run]\nsuites = algebra%\n")
    with pytest.raises(ConfigError, match="algebra%"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "unknown suites ['algebra%']" in capsys.readouterr().err
    path = _write(tmp_path, "[run]\nsuites = symbolic\nseed = 3\n"
                            "json = out%(seed)s.json\n")
    assert RunConfig.from_ini(path).json_path == "out%(seed)s.json"


def test_ini_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(b"[run]\nsuites = symbolic\njson = \xff.json\n")
    with pytest.raises(ConfigError, match="utf-8"):
        RunConfig.from_ini(str(path))
    assert main(["run", "--config", str(path)]) == EXIT_ERROR
    assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n[run]\nsuites = symbolic\n",
    "[run]\nsuites = symbolic\n[DEFAULT]\n",
])
def test_ini_default_section_exits_2(tmp_path, capsys, text):
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


_FUZZ_HEADERS = ([f"[{name}]" for name in _KNOWN_KEYS]
                 + ["[tolerances]", "[DEFAULT]", "[bogus]", "[", "]", "[]"])
_FUZZ_KEYS = (sorted(set().union(*_KNOWN_KEYS.values()))
              + ["algebra", "speed", ""])
_FUZZ_TOKENS = (sorted(SUITES)
                + ["4", "12", "24x48", "-1", "0", "1", "1.3", "1e9", "1e999",
                   "nan", "inf", "x", ":", ",", "%", "(", ")", "%(seed)s",
                   "s", " ", "=", "true", "no", "\t", "#", ";", "\n",
                   "[run]"])
_FUZZ_BYTES = [b"\xff", b"\xc3", b"\xe2\x82", b"\x80", b"\x00",
               b"\xef\xbb\xbf"]


def _fuzz_ini(rng: random.Random) -> bytes:
    """A random INI file over section and key names, value tokens and
    bytes that are not UTF-8; half the files start with a valid
    ``[run] suites`` so that values reach the RunConfig checks."""
    lines = (["[run]", "suites = " + rng.choice(sorted(SUITES))]
             if rng.random() < 0.5 else [])
    for _ in range(rng.randrange(8)):
        roll = rng.random()
        if roll < 0.2:
            lines.append(rng.choice(_FUZZ_HEADERS))
        else:
            value = "".join(rng.choice(_FUZZ_TOKENS)
                            for _ in range(rng.randrange(6)))
            sep = rng.choice([" = ", "=", ": ", " "])
            indent = " " if roll > 0.95 else ""
            lines.append(indent + rng.choice(_FUZZ_KEYS) + sep + value)
    data = "\n".join(lines).encode()
    if rng.random() < 0.1:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + rng.choice(_FUZZ_BYTES) + data[cut:]
    return data


def test_ini_reader_fuzz(tmp_path):
    """Every generated config is read or rejected with a ConfigError;
    any other exception is a bug in the reader."""
    rng = random.Random(8)
    path = tmp_path / "fuzz.ini"
    read = rejected = 0
    for _ in range(2000):
        data = _fuzz_ini(rng)
        path.write_bytes(data)
        try:
            RunConfig.from_ini(str(path))
            read += 1
        except ConfigError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 -- the bug being hunted
            pytest.fail(f"{type(exc).__name__}: {exc} on {data!r}")
    # the generator reaches both outcomes, not only the header checks
    assert read > 100 and rejected > 100


# -- report structure ---------------------------------------------------------------


def test_report_shape_and_json():
    c = RunConfig(suites=["symbolic"], normalize=True)
    report = run_suites(c)
    assert report["passed"] is True
    assert report["failures"] == []
    assert all({"name", "anchor", "measured", "tolerance", "passed",
                "suite"} <= set(r) for r in report["records"])
    data = json.loads(report_json(report))
    assert data["schema_version"] == 1
    assert "_rows" not in data
    assert "timings" not in data  # normalized


_CHEAP_RUN = dict(suites=["holonomy", "chern"], ladder=[(4, 12, 24)],
                  massive=[(1.3, 1)], massless=[1])


@pytest.fixture
def two_workers(monkeypatch):
    """Share multi-suite reports between this process and one forked
    worker on any Linux machine; no worker may outlive the run."""
    monkeypatch.setattr(report_module, "_usable_cpus", lambda: 2)
    yield
    assert multiprocessing.active_children() == []


def _in_a_worker(monkeypatch, suite, fn):
    """Replace ``suite`` by ``fn``, which must run in a forked worker."""
    caller = os.getpid()

    def guarded(config, records, rows):
        assert os.getpid() != caller, f"{suite} ran in the caller"
        return fn(config, records, rows)

    monkeypatch.setitem(SUITES[suite], "fn", guarded)


def _rss_anon_mb():
    """This process's anonymous resident memory in MB, or None where
    /proc/self/status does not give it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def test_report_resources_per_suite(two_workers):
    # a suite's peak is that of the process that ran it: this one or a
    # worker forked from it, which starts with its anonymous pages, 64 MB
    # of ballast among them, so the peak is at least their size before
    # the run
    ballast = np.ones(8 << 20)
    anon_mb = _rss_anon_mb()
    data = json.loads(report_json(run_suites(RunConfig(**_CHEAP_RUN))))
    assert set(data["resources"]) == set(data["timings"]) \
        == {"holonomy", "chern"}
    for usage in data["resources"].values():
        assert set(usage) == {"minor_faults", "peak_rss_mb"}
        assert isinstance(usage["minor_faults"], int)
        assert usage["minor_faults"] >= 0 and usage["peak_rss_mb"] > 0
        if anon_mb is not None:
            assert usage["peak_rss_mb"] >= anon_mb - 0.05  # 0.1 MB rounding
    del ballast
    normalized = run_suites(RunConfig(**_CHEAP_RUN, normalize=True))
    assert "resources" not in json.loads(report_json(normalized))


# -- suites in forked workers -------------------------------------------------


_POOLED_RUN = dict(suites=["holonomy", "chern", "degeneracy", "fplus"],
                   ladder=[(4, 12, 24)], massive=[(1.3, 1)], massless=[1],
                   normalize=True)


def test_pooled_report_equals_the_suites_run_one_by_one(two_workers,
                                                         monkeypatch):
    config = RunConfig(**_POOLED_RUN)
    pooled = run_suites(config)
    one_by_one = [_run_suite(config, suite) for suite in config.suites]
    assert pooled["records"] == [rec for records, _, _, _ in one_by_one
                                 for rec in records]
    assert pooled["_rows"] == [row for _, rows, _, _ in one_by_one
                               for row in rows]
    monkeypatch.setattr(report_module, "_usable_cpus", lambda: 1)
    in_process = run_suites(config)
    assert report_json(pooled) == report_json(in_process)
    assert convergence_csv(pooled) == convergence_csv(in_process)


def test_a_mutation_reaches_the_workers(two_workers, monkeypatch):
    import spinsplit.reps as reps_mod
    monkeypatch.setattr(reps_mod, "_SIGMA_BOOST", -reps_mod._SIGMA_BOOST)
    _in_a_worker(monkeypatch, "algebra", SUITES["algebra"]["fn"])
    # on the default ladder every record passes unless the flip is seen
    report = run_suites(RunConfig(suites=["holonomy", "algebra"],
                                  massive=[(1.3, 1)], massless=[],
                                  normalize=True))
    assert report["failures"] == ["algebra-massive-KK"]


def test_a_suite_error_in_a_worker_exits_2_naming_it(two_workers,
                                                      monkeypatch, capsys):
    def broken(config, records, rows):
        raise RepError("the chern rep is broken")

    _in_a_worker(monkeypatch, "chern", broken)
    assert main(["run", "--suite", "holonomy", "chern"]) == EXIT_ERROR
    assert "error: the chern rep is broken" in capsys.readouterr().err


def test_an_expression_error_in_a_worker_exits_2_naming_its_place(
        two_workers, monkeypatch, capsys):
    # an error whose constructor takes more than a message must unpickle
    # in the caller, or the pool reports a broken worker instead
    def broken(config, records, rows):
        raise LangError("bad token", 3, 4)

    _in_a_worker(monkeypatch, "chern", broken)
    assert main(["run", "--suite", "holonomy", "chern"]) == EXIT_ERROR
    assert ("expression error at line 3, col 4: bad token"
            in capsys.readouterr().err)


_LINUX_ONLY = pytest.mark.skipif(sys.platform != "linux",
                                 reason="suites run in workers on Linux")


@pytest.mark.parametrize("platform, in_caller", [
    ("linux", [True, False, True, False]),
    ("darwin", [True] * 4)])
def test_the_caller_runs_every_other_suite_of_two(two_workers, monkeypatch,
                                                  platform, in_caller):
    caller = os.getpid()

    def records_pid(config, records, rows):
        records.append({"name": "pid", "passed": True,
                        "in_caller": os.getpid() == caller})

    for suite in _POOLED_RUN["suites"]:
        monkeypatch.setitem(SUITES[suite], "fn", records_pid)
    monkeypatch.setattr(report_module.sys, "platform", platform)
    report = run_suites(RunConfig(**_POOLED_RUN))
    assert [rec["suite"] for rec in report["records"]] \
        == _POOLED_RUN["suites"]
    assert [rec["in_caller"] for rec in report["records"]] == in_caller


@_LINUX_ONLY
def test_a_worker_that_dies_raises_instead_of_hanging(two_workers,
                                                      monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def dies(config, records, rows):
        os._exit(3)

    _in_a_worker(monkeypatch, "chern", dies)
    raised = []

    def run():
        try:
            run_suites(RunConfig(**_POOLED_RUN))
        except BrokenProcessPool as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "run_suites hung on a dead worker"
    assert raised


_HOLDS_A_WORKER = """
import os, time
from spinsplit import report
report._usable_cpus = lambda: 2
caller = os.getpid()

def hold(config, records, rows):
    if os.getpid() != caller:
        print(os.getpid(), flush=True)
    time.sleep(120)

for suite in ("holonomy", "chern"):
    report.SUITES[suite]["fn"] = hold
report.run_suites(report.RunConfig(suites=["holonomy", "chern"],
                                   massive=[(1.3, 1)], massless=[1]))
"""


def _running(pid) -> bool:
    """Whether ``pid`` is a process that has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@_LINUX_ONLY
def test_a_killed_caller_leaves_no_worker_behind():
    src = str(Path(spinsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    caller = subprocess.Popen([sys.executable, "-c", _HOLDS_A_WORKER],
                              env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([caller.stdout], [], [], 60)
        assert ready, "no worker started within 60 s"
        worker = int(caller.stdout.readline())
    finally:
        caller.kill()
        caller.wait()
    try:
        deadline = time.monotonic() + 20
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _running(worker), "the worker outlived its caller"
    finally:
        if _running(worker):
            os.kill(worker, signal.SIGKILL)


# The numerical engine, the report and the CLI import no symbolic code:
# the names loaded after the imports, after a numerical suite, and after
# ``eval``, which loads the symbolic engine itself but not sympy.
_NUMERIC_IMPORTS = """
import contextlib, io, sys
from spinsplit import cli, connections, grid, report, reps, splitting
SYMBOLIC = ("sympy", "spinsplit.scalars", "spinsplit.algebra",
            "spinsplit.identities", "spinsplit.lang")

def loaded():
    return [name for name in SYMBOLIC if name in sys.modules]

print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--suite", "chern", "--normalize"])
print(code, loaded())
cli.main(["eval", "Comm(K[1],K[2])"])
print("sympy" in sys.modules)
"""


def test_a_cold_numerical_run_loads_no_symbolic_code():
    src = str(Path(spinsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cold = subprocess.run([sys.executable, "-c", _NUMERIC_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout == "[]\n0 []\n-i*J[3]\nFalse\n"


# The exact engine imports no sympy.  In a fresh interpreter the symbolic
# suite, printing both catalogs and ``eval`` of every pinned input give
# their pinned bytes and leave sympy unloaded, as does the constant i given
# as the text "I" (the benchmark's operand); a quotient over a reducible
# factor, which reaches the printer's one fallback to sympy's multivariate
# gcd, is what loads it.
_NO_SYMPY = """
import contextlib, hashlib, io, os, sys, tempfile
from spinsplit.cli import main
from spinsplit.identities import CATALOG, MASSLESS_CATALOG
from spinsplit.lang import format_expr
from spinsplit.scalars import Ring

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--suite", "symbolic", "--normalize",
                     "--json", path])
    with open(path, "rb") as fh:
        print(code, hashlib.sha256(fh.read()).hexdigest())
texts = 0
for massless, catalog in ((False, CATALOG), (True, MASSLESS_CATALOG)):
    ring = Ring(massless=massless)
    for name in sorted(catalog):
        for pair in catalog[name](ring):
            texts += sum(bool(format_expr(side)) for side in pair)
print(texts)
for mode, expr in PINS:
    main(["eval", "--mode", mode, expr])
assert Ring().from_expr("I") == Ring().i()
print("sympy" in sys.modules)
main(["eval", "(P[1]-P[2])*Pow(P[1]*P[1]-P[2]*P[2],-1)"])
print("sympy" in sys.modules)
"""

# sha256 of the normalized ``run --suite symbolic`` JSON report
_SYMBOLIC_REPORT_SHA256 = (
    "8f07c2a4a004fa7fee2af49f57f10ef8f95481410c5619abf4685475b62e47bf")


def test_a_cold_symbolic_run_loads_no_sympy():
    src = str(Path(spinsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    pins = [(mode, expr) for mode, expr, _ in EVAL_PINS]
    cold = subprocess.run(
        [sys.executable, "-c", f"PINS = {pins!r}\n" + _NO_SYMPY],
        env=env, capture_output=True, text=True, timeout=300)
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.splitlines() == [
        f"0 {_SYMBOLIC_REPORT_SHA256}", "420",
        *(want for _, _, want in EVAL_PINS),
        "False", "Pow((P[1] + P[2]),-1)", "True"]


def test_report_leaves_resources_out_without_the_module(monkeypatch):
    monkeypatch.setattr(report_module, "resource", None)
    data = json.loads(report_json(run_suites(RunConfig(**_CHEAP_RUN))))
    assert set(data["timings"]) == {"holonomy", "chern"}
    assert "resources" not in data


def test_convergence_csv_columns():
    c = RunConfig(suites=["leibniz"], normalize=True,
                  ladder=[(4, 12, 24), (6, 24, 48)],
                  massive=[(1.3, 1)], massless=[1])
    report = run_suites(c)
    text = convergence_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 1


def test_degeneracy_gap_is_the_smallest_field():
    """The massive spin-1 record claims the connections stay separated,
    so it reports the smallest gap of the ten random fields."""
    rung = (4, 12, 24)
    c = RunConfig(suites=["degeneracy"], ladder=[rung], massive=[(1.3, 1)],
                  massless=[], normalize=True)
    (rec,) = run_suites(c)["records"]
    assert rec["name"] == "degeneracy-gap-massive-1"
    rep = RepSpec.massive(1.3, 1)
    grid = c.grid_for(rung, rep.mass)
    psi = random_test_section(rep, grid, seed=c.seed)
    rng = np.random.default_rng(c.seed)
    gaps = []
    for _ in range(10):
        vals = rng.normal(size=(3,) + grid.shape)
        radial = sum(grid.khat[a] * vals[a] for a in range(3))
        x = TangentField.from_array(
            np.stack([vals[a] - radial * grid.khat[a] for a in range(3)]))
        gaps.append((apply_connection(ConnectionKind.boost(), x, psi)
                     - apply_connection(ConnectionKind.rotation(), x, psi)
                     ).norm() / psi.norm())
    assert float(f"{min(gaps):.12e}") < float(f"{max(gaps):.12e}")
    assert rec["measured"] == float(f"{min(gaps):.12e}")
    assert rec["passed"] is (min(gaps) > DEGENERACY_GAP_MIN)


# -- subcommands -----------------------------------------------------------------------


def test_eval_prints_normal_form(capsys):
    assert main(["eval", "Comm(J[1],J[2])"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "i*J[3]"


# printed normal forms through every bracket branch of the engine, a
# reorder over two steps, adjoints and a scalar moved through a generator
EVAL_PINS = [
    ("massive-symbolic", "K[2]*J[1]", "J[1]*K[2] + -i*K[3]"),
    ("massive-symbolic", "K[3]*K[1]", "-i*J[2] + K[1]*K[3]"),
    ("massive-symbolic", "J[3]*J[1]", "J[1]*J[3] + i*J[2]"),
    ("massive-symbolic", "K[3]*J[2]*K[1]",
     "-i*J[2]*J[2] + J[2]*K[1]*K[3] + -i*K[1]*K[1]"),
    ("massless-symbolic", "K[3]*J[2]*K[1]",
     "-i*J[2]*J[2] + J[2]*K[1]*K[3] + -i*K[1]*K[1]"),
    ("massive-symbolic", "Adjoint(K[1]*J[2]*H)", "H*J[2]*K[1]"),
    ("massive-symbolic", "Adjoint(i*P[1]*J[3]*K[2])",
     "i*H + -i*P[1]*J[3]*K[2] + P[1]*K[1] + P[2]*K[2]"),
    ("massive-symbolic", "Comm(K[1],Pow(H,-1))",
     "-i*P[1]*Pow((Pow(P[1],2) + Pow(P[2],2) + Pow(P[3],2) + Pow(m,2)),-1)"),
    # rational constants that cancel to 1 print as nothing
    ("massive-symbolic", "(1/2)*J[1]*2", "J[1]"),
    ("massive-symbolic", "Pow(2*H,-1)*2*H*K[2]", "K[2]"),
    ("massive-symbolic", "(1/3)*J[1] + (1/6)*J[1]", "(1/2)*J[1]"),
    ("massive-symbolic", "Pow((1+i),-1)", "((1/2) + (-1/2)*i)"),
]

# Two inverses over large factors outside the basis, whose sum the
# printer once spent minutes on in sympy's multivariate gcd.
TWO_LARGE_FACTORS = ("Pow(Pow(P[1]+i*P[2]+m+P[3],5)+i*P[3]*P[2],-1)"
                     " + Pow(Pow(P[2]+P[1]*m,4)+P[1],-1)")


@pytest.mark.parametrize("mode,expr,want", EVAL_PINS,
                         ids=[f"{mode.split('-')[0]}:{expr}"
                              for mode, expr, _ in EVAL_PINS])
def test_eval_prints_pinned_normal_form(capsys, mode, expr, want):
    assert main(["eval", "--mode", mode, expr]) == EXIT_OK
    assert capsys.readouterr().out.strip() == want


def test_eval_vector_output(capsys):
    assert main(["eval", "Cross(P,P)"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert [line.split(" ", 1)[0] for line in out] == ["[1]", "[2]", "[3]"]


def test_eval_check_zero_pass(capsys):
    rc = main(["eval", "--check-zero", "Comm(K[1],K[2]) + i*J[3]"])
    assert rc == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_eval_check_zero_fail(capsys):
    rc = main(["eval", "--check-zero", "Comm(K[1],K[2]) - i*J[3]"])
    assert rc == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_eval_massless_mode(capsys):
    rc = main(["eval", "--mode", "massless-symbolic", "--check-zero",
               "H - Pow(Dot(P,P),1/2)"])
    assert rc == EXIT_OK


def test_eval_syntax_error_exit_code(capsys):
    rc = main(["eval", "Comm(J[1],"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "line 1" in err


def test_eval_long_literal_exits_2(capsys):
    for text in ("9" * 5000, "J[" + "9" * 5000 + "]"):
        assert main(["eval", text]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "line 1" in err and "5000 digits" in err


def test_eval_huge_power_exits_2(capsys):
    # the exponent bound at lowering, then the printer's digit limit
    for text, want in (("Pow(10,4400)", "col 8: Pow exponent 4400 is "
                                        "outside [-64, 64]"),
                       ("Pow(Pow(Pow(10,64),64),2)", "4300 digits")):
        assert main(["eval", text]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert want in err


def test_eval_long_chains_exit_0(capsys):
    for text, want in (("+".join(["1"] * 5000), "5000"),
                       ("*".join(["i"] * 5000), "1"),
                       ("Pow(H," + "/".join(["1"] * 3001) + ")", "H")):
        assert main(["eval", text]) == EXIT_OK
        assert capsys.readouterr().out.strip() == want


def test_eval_over_two_large_factors_prints_in_seconds():
    """The printer's coprimality screen settles both large factors of
    this sum, where sympy's multivariate gcd ran for minutes; the text
    lowers back to the input's value."""
    src = str(Path(spinsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "spinsplit.cli", "eval", TWO_LARGE_FACTORS],
        env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == EXIT_OK, done.stderr
    ring = Ring()
    assert lower(parse(done.stdout), ring) \
        == lower(parse(TWO_LARGE_FACTORS), ring)


def test_eval_equal_values_print_the_same(capsys):
    lines = []
    for text in ("-((P[1]*P[2] + m)/H)", "(0-1)*((P[1]*P[2] + m)/H)"):
        assert main(["eval", "--", text]) == EXIT_OK
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]


def test_run_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nsuites = nope\n")
    rc = main(["run", "--config", str(path)])
    assert rc == EXIT_ERROR


def test_run_symbolic_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    rc1 = main(["run", "--suite", "symbolic", "--normalize",
                "--json", str(out1)])
    rc2 = main(["run", "--suite", "symbolic", "--normalize",
                "--json", str(out2)])
    assert rc1 == rc2 == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    err = capsys.readouterr().err
    assert "PASS symbolic:" in err


_GATE_SUITES = tuple(SUITES)
_GATE_REPS = {"massive": [(1.3, 1)], "massless": [1]}


def _gate_config(suites, massive=_GATE_REPS["massive"],
                 massless=_GATE_REPS["massless"]) -> RunConfig:
    return RunConfig(suites=suites, ladder=((4, 12, 24), (6, 24, 48)),
                     massive=massive, massless=massless, normalize=True)


def _suite_results(suites, **reps) -> dict:
    """Per suite, its normalized records and CSV rows from one run of
    ``suites`` in the given order."""
    report = run_suites(_gate_config(suites, **reps))
    return {suite: ([json.dumps(r, sort_keys=True)
                     for r in report["records"] if r["suite"] == suite],
                    [row for row in report["_rows"] if row[0] == suite])
            for suite in suites}


def _in_process_results(suites) -> dict:
    """As ``_suite_results``, with the suites run back to back in this
    process, as they run on one CPU and within each process of a run
    shared out over several."""
    config = _gate_config(suites)
    results = {}
    for suite in suites:
        records, rows, _, _ = _run_suite(config, suite)
        results[suite] = ([json.dumps(r, sort_keys=True) for r in records],
                          rows)
    return results


@pytest.fixture(scope="module")
def alone_results() -> dict:
    """Per suite, its results from a run of that suite alone."""
    alone = {}
    for suite in _GATE_SUITES:
        alone.update(_suite_results([suite]))
    return alone


def test_suite_results_do_not_depend_on_what_ran_before(alone_results):
    # the per-grid reciprocal fields, the cached connections, the global
    # symbolic memos and the identity caches must carry nothing from one
    # suite into the next
    assert all(records for records, _ in alone_results.values())
    for suites in (list(_GATE_SUITES), list(reversed(_GATE_SUITES))):
        assert _suite_results(suites) == alone_results
        assert _in_process_results(suites) == alone_results


@pytest.mark.parametrize("suite", [s for s in _GATE_SUITES
                                   if s != "symbolic"])
def test_rep_results_do_not_depend_on_the_reps_before(suite, alone_results):
    # nor may a rep's records depend on the reps that ran before it: the
    # suite's records for a rep match a run of the suite with the rep
    # alone (the symbolic suite measures no rep)
    singles = [(RepSpec.massive(m, s), {"massive": [(m, s)], "massless": []})
               for m, s in _GATE_REPS["massive"]]
    if suite not in ("fplus", "holonomy"):  # these need a spin-1 rep
        singles += [(RepSpec.massless(h), {"massive": [], "massless": [h]})
                    for h in _GATE_REPS["massless"]]
    measured = 0
    for rep, reps in singles:
        records, _ = _suite_results([suite], **reps)[suite]
        measured += len(records)
        assert all(json.loads(r)["rep"] == rep.spec() for r in records)
        assert records == [r for r in alone_results[suite][0]
                           if json.loads(r)["rep"] == rep.spec()], rep
    assert measured == len(alone_results[suite][0])


_GOLDEN = Path(__file__).resolve().parent / "golden"


def test_gate_run_matches_its_golden_files():
    # the report and CSV of the gate config, byte for byte; a change that
    # moves a record or a row on purpose rewrites both files from
    # report_json and convergence_csv of this run, and says so
    report = run_suites(_gate_config(list(_GATE_SUITES)))
    assert (report_json(report).encode()
            == (_GOLDEN / "gate_report.json").read_bytes())
    assert (convergence_csv(report).encode()
            == (_GOLDEN / "gate.csv").read_bytes())


def test_run_with_grid_and_rep_restriction(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["run", "--suite", "leibniz", "--grid", "8,48,96",
               "--mass", "1.3", "--spin", "1", "--helicity", "1",
               "--normalize", "--json", str(out),
               "--csv", str(tmp_path / "r.csv")])
    assert rc == EXIT_OK
    data = json.loads(out.read_text())
    assert data["config"]["massive"] == [[1.3, 1]]
    assert data["config"]["massless"] == [1]
    assert data["config"]["ladder"] == [[4, 24, 48], [8, 48, 96]]
    assert (tmp_path / "r.csv").read_text().startswith("suite,")


@pytest.mark.parametrize("flag,value", [
    ("--grid", "8,48,96"), ("--mass", "1.3"), ("--spin", "1"),
    ("--helicity", "1"),
])
def test_run_config_rejects_rep_and_grid_flags(tmp_path, capsys, flag,
                                               value):
    path = _write(tmp_path, "[run]\nsuites = symbolic\n")
    assert main(["run", "--config", path, flag, value]) == EXIT_ERROR
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("text", ["a,b,c", "4,12", "4,12.5,24", "4,,24"])
def test_grid_flag_not_three_integers_exits_2(capsys, text):
    assert main(["run", "--suite", "symbolic", "--grid", text]) \
        == EXIT_ERROR
    assert "--grid" in capsys.readouterr().err


def test_grid_flag_names_the_halved_rung(capsys):
    # the ladder suites run a halved rung below --grid; 4 nodes cannot be
    # halved, and the message names the flag, not an unwritten ladder
    assert main(["run", "--suite", "algebra", "--grid", "4,12,24"]) \
        == EXIT_ERROR
    err = capsys.readouterr().err
    assert "--grid 4,12,24" in err
    assert "(4, 6, 12)" in err
    assert "strictly increasing" not in err
    # the rung is read in the spellings a [grid] ladder accepts
    for text in ("5,12,24", "5x12x24", "5X12X24"):
        args = build_parser().parse_args(
            ["run", "--suite", "algebra", "--grid", text])
        assert _build_config(args).ladder == [(4, 6, 12), (5, 12, 24)]


@pytest.mark.parametrize("grid,rung", [("8,24,10", "(4, 12, 5)"),
                                       ("8,24,11", "(8, 24, 11)")])
def test_grid_flag_odd_n_phi_exits_2_before_running(capsys, grid, rung):
    # an odd N_phi, written or produced by halving, is rejected before the
    # symbolic suite runs, naming the flag and the rung
    assert main(["run", "--suite", "symbolic", "algebra", "--grid",
                 grid]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"--grid {grid}" in captured.err
    assert rung in captured.err
    assert "N_phi" in captured.err
    assert captured.out == ""
    # a suite without a convergence ladder runs only the given rung
    assert main(["run", "--suite", "symbolic", "--grid", "8,24,10"]) \
        == EXIT_OK


def test_odd_n_phi_rung_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"\(6, 24, 47\).*N_phi"):
        RunConfig(suites=["symbolic"], ladder=[(4, 12, 24), (6, 24, 47)])
    path = _write(tmp_path, "[run]\nsuites = symbolic, algebra\n"
                            "[grid]\nladder = 4x12x25, 6x24x48\n")
    with pytest.raises(ConfigError, match=r"\(4, 12, 25\).*N_phi"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "(4, 12, 25)" in captured.err
    assert captured.out == ""


def test_negative_seed_exits_2(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(suites=["symbolic"], seed=-1)
    assert RunConfig(suites=["symbolic"], seed=0).seed == 0
    assert main(["run", "--suite", "symbolic", "--seed", "-1"]) \
        == EXIT_ERROR
    assert "seed" in capsys.readouterr().err
    path = _write(tmp_path, "[run]\nsuites = symbolic\nseed = -3\n")
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "seed" in capsys.readouterr().err
    # --seed replaces the file's seed and is checked like it
    path = _write(tmp_path, "[run]\nsuites = symbolic\nseed = 3\n")
    assert main(["run", "--config", path, "--seed", "-1"]) == EXIT_ERROR
    assert "seed" in capsys.readouterr().err
    args = build_parser().parse_args(["run", "--config", path,
                                      "--seed", "5"])
    assert _build_config(args).seed == 5


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_unwritable_output_exits_2_before_running(tmp_path, capsys, flag):
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        assert main(["run", "--suite", "symbolic", flag, str(path)]) \
            == EXIT_ERROR
        out, err = capsys.readouterr()
        assert str(path) in err
        assert out == "" and "PASS" not in err  # no suite ran
    key = flag.lstrip("-")
    missing = tmp_path / "missing" / "out.txt"
    ini = _write(tmp_path, f"[run]\nsuites = symbolic\n{key} = {missing}\n")
    assert main(["run", "--config", ini]) == EXIT_ERROR
    assert str(missing) in capsys.readouterr().err


def test_json_and_csv_same_file_flags_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    link = tmp_path / "link"
    link.symlink_to(out)
    for other in (out, link):
        rc = main(["run", "--suite", "symbolic", "--json", str(out),
                   "--csv", str(other)])
        assert rc == EXIT_ERROR
        stdout, err = capsys.readouterr()
        assert str(out) in err and str(other) in err
        assert stdout == "" and "PASS" not in err  # no suite ran
        assert not out.exists()


def test_json_and_csv_same_file_ini_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    ini = _write(tmp_path, f"[run]\nsuites = symbolic\njson = {out}\n"
                           f"csv = {out}\n")
    with pytest.raises(ConfigError, match="same file"):
        RunConfig.from_ini(ini)
    assert main(["run", "--config", ini]) == EXIT_ERROR
    stdout, err = capsys.readouterr()
    assert err.count(str(out)) == 2
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("route", ["--json", "--csv", "json =", "csv ="])
def test_empty_output_path_exits_2(tmp_path, capsys, route):
    # an empty path is not ignored: the report would go to stdout and no
    # CSV would be written, though the flag or key asked for a file
    key = route.split()[0].lstrip("-")
    if route.startswith("--"):
        argv = ["run", "--suite", "chern", route, ""]
    else:
        argv = ["run", "--config",
                _write(tmp_path, f"[run]\nsuites = chern\n{route}\n")]
    assert main(argv) == EXIT_ERROR
    stdout, err = capsys.readouterr()
    assert f"[run] {key}" in err and f"--{key}" in err
    assert stdout == "" and "PASS" not in err  # no suite ran
    with pytest.raises(ConfigError, match=rf"--{key}\b"):
        RunConfig(suites=["chern"], **{f"{key}_path": "  "})


@pytest.mark.parametrize("route", ["--json", "--csv", "ini"])
def test_output_naming_the_config_file_exits_2(tmp_path, capsys, route):
    ini = tmp_path / "run.ini"
    key = f"json = {ini}\n" if route == "ini" else ""
    path = _write(tmp_path, f"[run]\nsuites = symbolic\n{key}")
    before = ini.read_bytes()
    flags = [] if route == "ini" else [route, path]
    assert main(["run", "--config", path, *flags]) == EXIT_ERROR
    stdout, err = capsys.readouterr()
    assert "config file" in err and str(ini) in err
    assert stdout == "" and "PASS" not in err  # no suite ran
    assert ini.read_bytes() == before


def test_write_failure_is_config_error(tmp_path):
    path = str(tmp_path / "missing" / "out.json")
    with pytest.raises(ConfigError, match="missing"):
        cli._write(path, "{}")


def _records(capsys):
    return {r["name"]: r for r in json.loads(capsys.readouterr().out)
            ["records"]}


@pytest.mark.parametrize("argv", [["chern"], ["holonomy"],
                                  ["chern", "--helicity", "1"]])
def test_alias_subcommands_are_gone(capsys, argv):
    # one suite is ``run --suite NAME``; the old aliases are usage errors
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "invalid choice" in capsys.readouterr().err


def test_run_suite_chern(capsys):
    rc = main(["run", "--suite", "chern", "--helicity", "-1"])
    assert rc == EXIT_OK
    (rec,) = _records(capsys).values()
    assert rec["suite"] == "chern"
    assert rec["expected"] == 2
    assert rec["integer"] == 2
    assert rec["rep"] == {"kind": "massless", "helicity": -1}
    assert rec["passed"] is True


def test_run_suite_chern_mesh_from_grid(capsys):
    # --grid sets the last ladder rung, whose angular mesh the suite uses;
    # a suite without a convergence ladder needs no halved rung below it
    assert main(["run", "--suite", "chern", "--helicity", "1",
                 "--grid", "4,12,24"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["ladder"] == [[4, 12, 24]]
    (rec,) = data["records"]
    assert rec["integer"] == -2
    c = RunConfig(suites=["chern"], ladder=[(4, 12, 24), (8, 24, 48)],
                  massless=[1])
    row = convergence_csv(run_suites(c)).splitlines()[1].split(",")
    assert row[:5] == ["chern", "h=+1", "1", "24", "48"]


def test_run_suite_holonomy(capsys):
    rc = main(["run", "--suite", "holonomy", "--mass", "1.3", "--spin",
               "1"])
    assert rc == EXIT_OK
    records = _records(capsys)
    assert sorted(records) == sorted(
        f"holonomy-{kind}-A{a}" for kind in ("boost", "flat")
        for a in (0.01, 0.05))
    for name, rec in records.items():
        bound = 1e-2 if "boost" in name else 1e-8
        assert rec["measured"] <= bound
        assert rec["passed"] is True


@pytest.mark.parametrize("suite", ["holonomy", "fplus"])
def test_spin1_suites_need_spin1_rep(suite):
    with pytest.raises(ConfigError, match=suite):
        RunConfig(suites=[suite], massive=[(1.3, 0)])
    RunConfig(suites=[suite], massive=[(1.3, 0), (2.0, 1)])


def test_run_suite_holonomy_spin0_is_config_error(capsys):
    assert main(["run", "--suite", "holonomy", "--spin", "0"]) == EXIT_ERROR
    assert "holonomy" in capsys.readouterr().err


def test_run_suite_holonomy_failure_prints_json(monkeypatch, capsys):
    import spinsplit.report as report
    # a transport that goes nowhere fails both the boost angle and the
    # flat defect checks
    monkeypatch.setattr(report, "holonomy",
                        lambda rep, kind, loop, n_steps: np.zeros(
                            (rep.dim, rep.dim)))
    assert main(["run", "--suite", "holonomy"]) == EXIT_CHECK_FAILED
    records = _records(capsys)
    assert len(records) == 4
    assert not any(rec["passed"] for rec in records.values())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("spinsplit ")


# -- repeated suites and reps, integer values, status lines ----------------------


def test_repeated_suite_flag_exits_2_naming_it(capsys):
    # a repeated suite would run, and write its records, twice
    assert main(["run", "--suite", "holonomy", "holonomy"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "suite holonomy is given twice" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("section, line, repeat", [
    ("run", "suites = nw, symbolic, nw", "suite nw"),
    ("reps", "massive = 1.3:1, 2.0:0, 1.3:1", "massive rep 1.3:1"),
    ("reps", "massless = 1, -1, 1", "helicity 1"),
], ids=["suites", "massive", "massless"])
def test_ini_repeat_exits_2_naming_it(tmp_path, capsys, section, line,
                                      repeat):
    text = (f"[run]\n{line}\n" if section == "run"
            else f"[run]\nsuites = nw\n[reps]\n{line}\n")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=f"{repeat} is given twice"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert f"{repeat} is given twice" in capsys.readouterr().err


def test_repeated_reps_rejected_by_value():
    # the same mass written as an int and as a float is the same rep
    with pytest.raises(ConfigError, match="massive rep 2.0:1"):
        RunConfig(suites=["nw"], massive=[(2, 1), (2.0, 1)])
    RunConfig(suites=["nw"], massive=[(1.3, 0), (1.3, 1)])


def test_run_config_rejects_non_integral_and_boolean_values():
    good = {"suites": ["nw"], "seed": 2,
            "ladder": [(4, 12, 24), (6, 24, 48)],
            "massive": [(1.3, 1)], "massless": [1]}
    # each of these was truncated: seed 2, rung (4, 12, 24), spin 1,
    # helicity 1
    with pytest.raises(ConfigError, match="must be an integer"):
        RunConfig(suites=["nw"], seed=2.7,
                  ladder=[(4.9, 12, 24), (6, 24, 48)],
                  massive=[(1.3, True)], massless=[True])
    for key, bad, what in (
            ("seed", 2.7, "seed"), ("seed", True, "seed"),
            ("seed", 2.0, "seed"),
            ("ladder", [(4.9, 12, 24), (6, 24, 48)], r"rung \(4.9, 12, 24\)"),
            ("ladder", [(4, 12, 24), (6, True, 48)], "rung"),
            ("massive", [(1.3, True)], "spin"),
            ("massive", [(1.3, 1.0)], "spin"),
            ("massless", [True], "helicity"),
            ("massless", [np.bool_(True)], "helicity"),
            ("massless", [1.0], "helicity")):
        with pytest.raises(ConfigError, match=f"{what}.*must be an integer"):
            RunConfig(**{**good, key: bad})
    # NumPy integers stay accepted, as plain ints
    c = RunConfig(suites=["nw"], seed=np.int64(2),
                  ladder=[tuple(np.int32(n) for n in rung)
                          for rung in good["ladder"]],
                  massive=[(1.3, np.int64(1))], massless=[np.int8(1)])
    assert c.spec() == RunConfig(**good).spec()
    assert type(c.seed) is int
    assert all(type(n) is int for rung in c.ladder for n in rung)
    assert type(c.massive[0][1]) is int and type(c.massless[0]) is int


def test_two_masses_of_one_spin_are_told_apart(tmp_path, capsys):
    # every record that measures one rep names it, so two masses of the
    # same spin give distinct records and status lines, and the holonomy
    # suite measures each spin-1 rep
    path = tmp_path / "two.ini"
    path.write_text(
        "[run]\nsuites = " + ", ".join(s for s in SUITES if s != "symbolic")
        + "\n[grid]\nladder = 4x12x24, 6x24x48\n"
        "[reps]\nmassive = 1.3:1, 2.0:1\nmassless =\n")
    out = tmp_path / "r.json"
    # the coarse ladder fails some checks; only the records' names count
    assert main(["run", "--config", str(path), "--normalize",
                 "--json", str(out)]) in (EXIT_OK, EXIT_CHECK_FAILED)
    records = json.loads(out.read_text())["records"]
    assert all("rep" in r for r in records)
    keys = [(r["suite"], r["name"], json.dumps(r["rep"], sort_keys=True))
            for r in records]
    assert len(set(keys)) == len(keys)
    prefixes = [line.split(" measured=")[0]
                for line in capsys.readouterr().err.splitlines()]
    assert len(prefixes) == len(records) == len(set(prefixes))
    holonomy = [r for r in records if r["suite"] == "holonomy"]
    assert sorted({r["rep"]["mass"] for r in holonomy}) == [1.3, 2.0]
    assert len(holonomy) == 8


def test_status_lines_name_the_rep(tmp_path, capsys):
    # record names repeat across reps; with the rep each status line's
    # "suite:name rep" prefix is unique, and the JSON is unchanged
    out = tmp_path / "r.json"
    rc = main(["run", "--suite", "algebra", "curvature", "--grid", "5,12,24",
               "--normalize", "--json", str(out)])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    lines = capsys.readouterr().err.splitlines()
    records = json.loads(out.read_text())["records"]
    assert len(lines) == len(records)
    prefixes = [line.split(" measured=")[0] for line in lines]
    assert len(set(prefixes)) == len(prefixes)
    names = [p.split()[1] for p in prefixes]
    assert len(set(names)) < len(names)
    for prefix, rec in zip(prefixes, records):
        assert ("rep" in rec) == (" RepSpec." in prefix)
    assert any(p.endswith(" algebra:algebra-massive-KK "
                          "RepSpec.massive(mass=1.3, spin=1)")
               for p in prefixes)
    assert any(p.endswith(" algebra:algebra-massless-JJ "
                          "RepSpec.massless(helicity=-1)")
               for p in prefixes)
