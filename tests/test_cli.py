"""Command-line interface and run configuration: config parsing and
validation, subcommands, exit codes, and report determinism."""

import json

import pytest

from spinsplit.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK, main
from spinsplit.report import (
    CSV_COLUMNS,
    ConfigError,
    RunConfig,
    SUITES,
    convergence_csv,
    report_json,
    run_suites,
)


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


def test_tolerance_resolution_and_override():
    c = RunConfig(suites=["symbolic"], tolerances={"algebra": 5e-4})
    assert c.tolerance("algebra") == 5e-4
    assert c.tolerance("nw_gradient") == 1e-4  # registry default


def test_unknown_tolerance_name_rejected():
    with pytest.raises(ConfigError, match="algebr"):
        RunConfig(suites=["symbolic"], tolerances={"algebr": 1e9})


def test_every_known_tolerance_name_accepted():
    names = list(SUITES) + ["nw_gradient", "nw_hermitian", "holonomy_flat"]
    c = RunConfig(suites=["symbolic"],
                  tolerances={name: 0.25 for name in names})
    assert all(c.tolerance(name) == 0.25 for name in names)


def test_chern_suite_reads_its_tolerance():
    c = RunConfig(suites=["chern"], massive=[], massless=[1],
                  tolerances={"chern": 0.25}, normalize=True)
    (rec,) = run_suites(c)["records"]
    assert rec["tolerance"] == 0.25
    default = RunConfig(suites=["chern"], massive=[], massless=[1])
    assert default.tolerance("chern") == 0.05


def test_grid_for_uses_adapted_radial_map():
    c = RunConfig(suites=["symbolic"])
    gm = c.grid_for((4, 12, 24), mass=1.3)
    gl = c.grid_for((4, 12, 24), mass=0.0)
    assert gm.spec()["radial_map"] == "sinh"
    assert gl.spec()["radial_map"] == "linear"


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

[tolerances]
algebra = 0.002
""")
    c = RunConfig.from_ini(path)
    assert c.suites == ["symbolic", "algebra"]
    assert c.seed == 11
    assert c.normalize is True
    assert c.ladder == [(4, 12, 24), (6, 24, 48)]
    assert c.massive == [(1.3, 1)]
    assert c.massless == [-1, 1]
    assert c.tolerance("algebra") == 0.002


def test_ini_unknown_section(tmp_path):
    path = _write(tmp_path, "[run]\nsuites = symbolic\n[bogus]\nx = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini(path)


def test_ini_unknown_key(tmp_path):
    path = _write(tmp_path, "[run]\nsuites = symbolic\nspeed = 9\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini(path)


def test_ini_unknown_tolerance_name(tmp_path, capsys):
    path = _write(tmp_path,
                  "[run]\nsuites = symbolic\n[tolerances]\nalgebr = 1e9\n")
    with pytest.raises(ConfigError, match="algebr"):
        RunConfig.from_ini(path)
    assert main(["run", "--config", path]) == EXIT_ERROR
    assert "algebr" in capsys.readouterr().err


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


def test_convergence_csv_columns():
    c = RunConfig(suites=["leibniz"], normalize=True,
                  ladder=[(4, 12, 24), (6, 24, 48)],
                  massive=[(1.3, 1)], massless=[1])
    report = run_suites(c)
    text = convergence_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 1


# -- subcommands -----------------------------------------------------------------------


def test_eval_prints_normal_form(capsys):
    assert main(["eval", "Comm(J[1],J[2])"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "i*J[3]"


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


def test_convergence_requires_ladder_suite(capsys):
    rc = main(["convergence", "--suite", "symbolic"])
    assert rc == EXIT_ERROR


def test_chern_subcommand(capsys):
    rc = main(["chern", "--helicity", "-1"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["expected"] == 2
    assert data["results"]["boost"]["integer"] == 2
    assert data["results"]["rotation"]["integer"] == 2
    assert data["passed"] is True


def test_holonomy_subcommand(capsys):
    rc = main(["holonomy", "--mass", "1.3", "--spin", "1"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert len(data["loops"]) == 2
    for loop in data["loops"]:
        assert loop["relative_error"] <= 1e-2
        assert loop["flat_defect"] <= 1e-8


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("spinsplit ")
