"""Exit codes, config handling, and report output of the command line."""

import csv
import importlib
import operator
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracwkb
from fracwkb import cli
from fracwkb.cli import main


def _report_rows(outdir, suite):
    with open(outdir / suite / "report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_audit_suite_passes(tmp_path):
    assert main(["audit", "--out", str(tmp_path)]) == 0
    rows = _report_rows(tmp_path, "audit")
    assert {row["status"] for row in rows} == {"PASS"}
    claims = [row["claim"] for row in rows]
    assert "ellipticity-constant" in claims
    assert "min-metric-eigenvalue" in claims


def test_phase_suite_flat(tmp_path, capsys):
    code = main(["phase", "--metric", "flat", "--n_x", "7", "--n_t", "5",
                 "--n_xi", "3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS phase-closed-form-gap" in out
    assert "PASS hj-residual-max" in out
    assert (tmp_path / "phase" / "phase.csv").exists()


def test_stdout_line_format(tmp_path, capsys):
    main(["audit", "--out", str(tmp_path)])
    for line in capsys.readouterr().out.strip().splitlines():
        assert line.startswith(("PASS", "FAIL"))
        assert " = " in line
        assert "(threshold " in line


def test_strichartz_suite_passes(tmp_path):
    for mode in ("semiclassical", "unscaled"):
        out = tmp_path / mode
        code = main(["strichartz", "--mode", mode, "--hmax", "0.125", "--hmin", "0.0078125",
                     "--n_t", "33", "--out", str(out)])
        assert code == 0
        claims = {row["claim"]: row for row in _report_rows(out, "strichartz")}
        # both modes' exponents are 1/8 at p = 8, q = 4 (1/2 - 1/q - 1/p and
        # gamma + loss), less the fixed 0.1 margin
        assert claims[f"{mode}-norm-slope"]["threshold"] == ">= -0.225"
        assert claims[f"{mode}-norm-slope"]["status"] == "PASS"
        assert claims["time-rescaling-gap"]["status"] == "PASS"
        assert (out / "strichartz" / "strichartz.csv").exists()


@pytest.mark.parametrize("suite, claims", [
    ("kernel", ["kernel-sup-times-h", "stationary-peak-gap"]),
    ("dispersive", ["dispersive-decay-slope", "dispersive-fit-r2"]),
], ids=["kernel", "dispersive"])
def test_fio_suites_pass_at_their_defaults(tmp_path, suite, claims):
    # the kernel default is t != 0, so its stationary-phase row is checked
    assert main([suite, "--out", str(tmp_path)]) == 0
    rows = {row["claim"]: row["status"] for row in _report_rows(tmp_path, suite)}
    assert rows == dict.fromkeys(claims, "PASS")


def test_kernel_default_time_is_sigma_adapted(tmp_path, capsys):
    """At sigma < 1 the default t is 1, where first-order stationary phase
    holds (peak gap 0.011); the sigma >= 1 default stays 0.125 and an
    explicit t, 0 included, is kept."""
    assert cli._resolve("kernel", {}, {})["t"] == 0.125
    assert cli._resolve("kernel", {}, {"sigma": "0.5"})["t"] == 1.0
    assert cli._resolve("kernel", {"t": "0"}, {"sigma": "0.5"})["t"] == 0.0
    assert main(["kernel", "--sigma", "0.5", "--t", "0", "--n_x", "9", "--y_lo", "-0.5",
                 "--y_hi", "0.5", "--n_y", "9", "--out", str(tmp_path)]) == 0
    assert "zero-time-hermitian-gap" in capsys.readouterr().out
    assert main(["kernel", "--sigma", "0.5", "--out", str(tmp_path)]) == 0
    rows = {row["claim"]: row for row in _report_rows(tmp_path, "kernel")}
    assert float(rows["stationary-peak-gap"]["value"]) < 0.05
    assert {row["status"] for row in rows.values()} == {"PASS"}


# the rows whose value must reach its bound from below; every other numeric
# bound is an upper one
LOWER_BOUNDED = {"caustic-free-horizon", "dispersive-fit-r2"}


def _holds(claim, value, threshold):
    """Whether `value` meets the bound a report row prints as `threshold`."""
    if isinstance(threshold, str):
        if "+/-" in threshold:
            centre, tol = map(float, threshold.split(" +/- "))
            return abs(value - centre) <= tol
        op, bound = threshold.split()
        return {">": operator.gt, ">=": operator.ge}[op](value, float(bound))
    if isinstance(threshold, bool):
        return value == threshold
    return value >= threshold if claim in LOWER_BOUNDED else value <= threshold


@pytest.mark.parametrize("suite", list(cli.SCHEMAS))
def test_every_row_at_the_defaults_reads_a_fixed_bound(tmp_path, monkeypatch, suite):
    """Each row's status is its value against a finite or named bound.  Only
    the two phase-constant rows, the one record of C1 and C2, read inf and
    fail on NaN alone."""
    rows, row = [], cli._row
    monkeypatch.setattr(cli, "_row", lambda *args: rows.append(args) or row(*args))
    assert main([suite, "--out", str(tmp_path)]) == 0
    assert rows
    for claim, value, threshold, ok in rows:
        if claim in ("phase-linear-constant", "phase-quadratic-constant"):
            assert threshold == np.inf
            continue
        assert isinstance(threshold, str) or np.isfinite(threshold), claim
        assert ok == _holds(claim, value, threshold), claim


@pytest.mark.parametrize("suite, key", [
    ("phase", "residual_tol"), ("dispersive", "slope_tol"), ("strichartz", "margin"),
    ("nlfs", "mass_tol"), ("nlfs", "energy_tol"), ("nlfw", "energy_tol"), ("audit", "c_max"),
])
def test_threshold_keys_are_unknown(tmp_path, capsys, suite, key):
    # each bound is fixed at its row: a key such as mass_tol = 1 turned any
    # drift into a PASS
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert main([suite, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([suite, f"--{key}", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / suite).exists()


def test_dispersive_defaults_are_sigma_adapted():
    # a pair default is (sigma < 1, sigma >= 1); a value that is set, 0
    # included, is kept
    keys = ("t0", "n_t", "r1", "r2", "p1", "p2")
    low = cli._resolve("dispersive", {}, {"sigma": "0.5"})
    high = cli._resolve("dispersive", {}, {})
    assert [low[k] for k in keys] == [8.0, 12, 0.1, 30.0, 0.5, 1.0]
    assert [high[k] for k in keys] == [1.0, 10, 0.25, 3.8, 0.5, 3.0]
    assert cli._resolve("dispersive", {"r1": "0"}, {"sigma": "0.5"})["r1"] == 0.0


def test_nlfs_suite_passes(tmp_path):
    code = main(["nlfs", "--n", "64", "--T", "0.1", "--amp", "0.5",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "nlfs" / "monitors.csv").exists()


def test_nlfw_suite_passes(tmp_path):
    code = main(["nlfw", "--n", "64", "--T", "0.1", "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("suite", ["nlfs", "nlfw"])
@pytest.mark.parametrize("n", [None, "256", "1025"])
def test_bump_metric_grid_that_the_eigensolver_cannot_take_exits_two(tmp_path, capsys,
                                                                     suite, n):
    """An even n (the default 256) or one above EIG_MAX_POINTS is a config error."""
    args = [suite, "--metric", "bump", "--out", str(tmp_path)]
    if n is not None:
        args += ["--n", n]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err


def test_nlfs_suite_on_the_bump_eigenbasis(tmp_path):
    code = main(["nlfs", "--metric", "bump", "--n", "255", "--T", "0.01",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = _report_rows(tmp_path, "nlfs")
    assert [row["claim"] for row in rows] == ["mass-drift", "energy-drift"]
    assert {row["status"] for row in rows} == {"PASS"}


@pytest.mark.parametrize("flag", [("--n_t", "4"), ("--t_max", "0"), ("--t_max", "nan"),
                                  ("--t_max", "inf")],
                         ids=["n_t-4", "t_max-0", "t_max-nan", "t_max-inf"])
def test_phase_grid_the_residual_stencil_cannot_take_exits_two(tmp_path, capsys, flag):
    # the 4th-order time stencil needs five nodes and a nonzero, finite step
    assert main(["phase", *flag, "--out", str(tmp_path)]) == 2
    assert "needs n_t >= 5 and t_max != 0" in capsys.readouterr().err
    assert not (tmp_path / "phase" / "phase.csv").exists()


def test_flag_that_does_not_parse_as_its_type_exits_two(tmp_path, capsys):
    assert main(["phase", "--n_t", "abc", "--out", str(tmp_path)]) == 2
    assert "config error: key 'n_t'" in capsys.readouterr().err
    assert not (tmp_path / "phase").exists()


def test_pair_that_is_not_admissible_fails_and_stops_the_suite(tmp_path, capsys):
    # p = 1 is below the p >= 2 of an admissible pair: no sweep is measured
    assert main(["strichartz", "--p", "1", "--out", str(tmp_path)]) == 1
    assert "FAIL pair-admissible" in capsys.readouterr().out
    assert [row["claim"] for row in _report_rows(tmp_path, "strichartz")] == ["pair-admissible"]


def test_nlfs_of_the_zero_state_passes(tmp_path):
    # zero mass: the drift is taken relative to max(mass, 1e-30), as the energy's is
    code = main(["nlfs", "--n", "64", "--T", "0.1", "--amp", "0", "--out", str(tmp_path)])
    assert code == 0
    rows = {row["claim"]: row for row in _report_rows(tmp_path, "nlfs")}
    assert float(rows["mass-drift"]["value"]) == 0.0
    assert {row["status"] for row in rows.values()} == {"PASS"}


def test_phase_constants_name_the_times_they_skip(tmp_path, capsys):
    """At t_max = 1e-8 rounding hides every nonzero time's increment and the
    stencil's step: the constant rows name the times and the residual row
    the step, and all three fail on NaN instead of reading C2 = 16.6 and a
    residual of 8.97e-8 that is rounding over dt = 5e-9."""
    assert main(["phase", "--n_t", "5", "--t_max", "1e-8", "--out", str(tmp_path)]) == 1
    rows = _report_rows(tmp_path, "phase")
    unresolved = [row for row in rows if "skipping" in row["claim"]]
    suffix = " skipping t = -1e-08, -5e-09, 5e-09, 1e-08"
    assert [row["claim"] for row in unresolved] == ["hj-residual-max skipping step dt = 5e-09",
                                                    "phase-linear-constant" + suffix,
                                                    "phase-quadratic-constant" + suffix]
    assert {row["status"] for row in unresolved} == {"FAIL"}
    assert {row["value"] for row in unresolved} == {"nan"}
    assert {row["status"] for row in rows if row not in unresolved} == {"PASS"}


@pytest.mark.parametrize("t_max", ["0.1", "-0.1"])
def test_caustic_horizon_row_reads_the_window_magnitude(tmp_path, monkeypatch, t_max):
    """A negative t_max is a window of |t_max|: a horizon short of it fails
    (at --t_max -6 on a strong bump a horizon of 0.1 passed against -6)."""
    monkeypatch.setattr(cli, "caustic_horizon", lambda tab: 0.05)
    assert main(["phase", "--t_max", t_max, "--n_x", "7", "--n_t", "5", "--n_xi", "3",
                 "--out", str(tmp_path)]) == 1
    row, = [row for row in _report_rows(tmp_path, "phase")
            if row["claim"] == "caustic-free-horizon"]
    assert (row["value"], row["threshold"], row["status"]) == ("0.05", "0.1", "FAIL")


def test_phase_report_values_are_numbers(tmp_path):
    assert main(["phase", "--out", str(tmp_path)]) == 0
    for row in _report_rows(tmp_path, "phase"):
        float(row["value"])


def test_kernel_zero_time_symmetry(tmp_path, capsys):
    code = main(["kernel", "--t", "0", "--n_x", "9", "--y_lo", "-0.5",
                 "--y_hi", "0.5", "--n_y", "9", "--out", str(tmp_path)])
    assert code == 0
    assert "zero-time-hermitian-gap" in capsys.readouterr().out


def test_kernel_zero_time_symmetry_on_the_default_grid(tmp_path):
    # 33 x nodes against 65 y nodes: the symmetry is checked on the x grid
    assert main(["kernel", "--t", "0", "--out", str(tmp_path)]) == 0
    rows = {row["claim"]: row for row in _report_rows(tmp_path, "kernel")}
    assert float(rows["zero-time-hermitian-gap"]["value"]) < 1e-8
    with open(tmp_path / "kernel" / "kernel.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 33 * 65


def test_kernel_suites_take_their_guard_band_from_the_cutoff(tmp_path, monkeypatch):
    bands = []

    def recording(metric, sigma, xi_band=None):
        bands.append(xi_band)
        raise RuntimeError("stop after the symbol")

    monkeypatch.setattr(cli, "fractional_symbol", recording)
    assert main(["kernel", "--r1", "0.5", "--r2", "8.0", "--out", str(tmp_path)]) == 1
    assert main(["dispersive", "--out", str(tmp_path)]) == 1
    assert bands == [(0.4, 10.0), (0.8 * 0.25, 1.25 * 3.8)]
    for key in ("band_lo", "band_hi"):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", f"--{key}", "1.0", "--out", str(tmp_path)])
        assert exc.value.code == 2


@pytest.mark.parametrize("args, key", [
    (["kernel", "--h", "0"], "h"),
    (["kernel", "--h", "-0.01"], "h"),
    (["kernel", "--n_y", "0"], "y_grid"),
    (["audit", "--n_samples", "0"], "n_samples"),
    (["kernel", "--r2", "inf"], "cutoff"),
    (["strichartz", "--r2", "inf"], "cutoff"),
    (["dispersive", "--r2", "inf"], "cutoff"),
    (["phase", "--n_x", "0"], "x_grid"),
    (["phase", "--n_xi", "0"], "xi_grid"),
])
def test_bad_scale_or_empty_grid_exits_one_naming_it(tmp_path, capsys, args, key):
    assert main(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{args[0]} failed: {key} " in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("args, key", [
    (["dispersive", "--t0", "0"], "t0"),
    (["dispersive", "--t0", "-1"], "t0"),
    (["dispersive", "--t0", "nan"], "t0"),
    (["dispersive", "--t0", "0.03125"], "t0"),
    (["dispersive", "--h", "0"], "h"),
    (["dispersive", "--h", "-0.01"], "h"),
    (["dispersive", "--h", "nan"], "h"),
    (["dispersive", "--n_t", "0"], "n_t"),
    (["dispersive", "--n_t", "3"], "n_t"),
    (["strichartz", "--n_t", "1"], "n_t"),
    (["strichartz", "--n_t", "0"], "n_t"),
    (["strichartz", "--t0", "0"], "t0"),
    (["strichartz", "--t0", "-1"], "t0"),
    (["strichartz", "--mode", "unscaled", "--interval_lo", "1"], "interval_lo"),
    (["strichartz", "--mode", "unscaled", "--interval_hi", "inf"], "interval_lo"),
], ids=["dispersive-t0-0", "dispersive-t0-negative", "dispersive-t0-nan",
        "dispersive-t0-2h", "dispersive-h-0", "dispersive-h-negative", "dispersive-h-nan",
        "dispersive-n_t-0", "dispersive-n_t-3", "strichartz-n_t-1",
        "strichartz-n_t-0", "strichartz-t0-0", "strichartz-t0-negative",
        "strichartz-interval-empty", "strichartz-interval-unbounded"])
def test_degenerate_time_window_exits_two_naming_its_key(tmp_path, monkeypatch, capsys,
                                                         args, key):
    # rejected before any table, state or fit: a zero t0 or h fed numpy's
    # geomspace, t0 = 2h a decay fit over one time, one node a zero trapezoid
    # norm and a reversed window a negative one
    monkeypatch.setattr(cli, "build_phase", None)
    monkeypatch.setattr(cli, "classify_pair", None)
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("args, key", [
    (["nlfs", "--T", "0"], "T"),
    (["nlfs", "--T", "nan"], "T"),
    (["nlfs", "--dt", "0"], "dt"),
    (["nlfs", "--dt", "inf"], "dt"),
    (["nlfs", "--nu", "1"], "nu"),
    (["nlfs", "--mu", "2"], "mu"),
    (["nlfs", "--n", "0"], "n"),
    (["nlfw", "--T", "0"], "T"),
    (["nlfw", "--dt", "nan"], "dt"),
    (["nlfw", "--n", "-3"], "n"),
], ids=["nlfs-T-0", "nlfs-T-nan", "nlfs-dt-0", "nlfs-dt-inf", "nlfs-nu-1", "nlfs-mu-2",
        "nlfs-n-0", "nlfw-T-0", "nlfw-dt-nan", "nlfw-n-negative"])
def test_nlfs_setting_the_problem_or_grid_rejects_exits_two_naming_its_key(
        tmp_path, monkeypatch, capsys, args, key):
    # NlfsProblem's and the grid's own checks, read as configuration: no solver runs
    monkeypatch.setattr(cli, "solve_nlfs", None)
    monkeypatch.setattr(cli, "solve_nlfw", None)
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") and len(err.splitlines()) == 1


def test_nlfs_backward_window_passes(tmp_path):
    # a negative T runs the split step backward from u0
    assert main(["nlfs", "--n", "64", "--T", "-1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "nlfs" / "monitors.csv", newline="") as fh:
        times = [float(row["t"]) for row in csv.DictReader(fh)]
    assert times[-1] == pytest.approx(-1.0, abs=1e-12)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 7\n")
    code = main(["audit", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "bogus_key" in err


def test_seed_key_rejected(tmp_path, capsys):
    # the suites are deterministic, so no suite takes a seed
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 1\n")
    code = main(["audit", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "'seed'" in capsys.readouterr().err


def test_sigma_one_rejected_before_running(tmp_path, capsys):
    code = main(["phase", "--sigma", "1.0", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "phase").exists()


def test_malformed_config_line_names_location(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("sigma = 2.0\nn_x 7\n")
    code = main(["phase", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert f"{cfg}:2" in capsys.readouterr().err


def test_bad_strichartz_mode_rejected(tmp_path):
    code = main(["strichartz", "--mode", "bogus", "--out", str(tmp_path)])
    assert code == 2


def test_strichartz_has_no_dimension_key(tmp_path, capsys):
    # the sweep measures 1-D states, so a d key could only mislabel the bound
    with pytest.raises(SystemExit) as exc:
        main(["strichartz", "--d", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "d3.cfg"
    cfg.write_text("d = 3\n")
    assert main(["strichartz", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown key 'd'" in capsys.readouterr().err
    assert not (tmp_path / "strichartz").exists()


def test_short_sweep_rejected(tmp_path):
    code = main(["strichartz", "--hmax", "0.125", "--hmin", "0.03125",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("bounds", [("--hmin", "0"), ("--hmin", "-0.01"), ("--hmax", "inf")],
                         ids=["hmin-zero", "hmin-negative", "hmax-inf"])
def test_sweep_bounds_outside_the_open_half_line_rejected(tmp_path, capsys, bounds):
    # with any of these the dyadic sweep never ends: h sinks to 0.0 or stays inf
    assert main(["strichartz", *bounds, "--out", str(tmp_path)]) == 2
    assert "hmin and hmax must satisfy 0 < hmin <= hmax < inf" in capsys.readouterr().err


def test_bad_metric_value_rejected(tmp_path):
    assert main(["audit", "--metric", "weird", "--out", str(tmp_path)]) == 2


def test_module_error_exits_one(tmp_path, capsys):
    # the settings pass, and the solver's blow-up guard stops the first step
    code = main(["nlfs", "--amp", "nan", "--n", "64", "--T", "0.01", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "nlfs failed: non-finite values at t=0\n"


@pytest.mark.parametrize("dt", ["0", "-0.01"])
def test_phase_step_that_is_not_positive_exits_one(tmp_path, capsys, dt):
    code = main(["phase", "--dt", dt, "--out", str(tmp_path)])
    assert code == 1
    assert "phase step dt must be positive and finite" in capsys.readouterr().err


def test_failed_check_exits_one(tmp_path):
    # at h = 1 the kernel is far from its semiclassical decay: the slope reads
    # -0.189 and the fit's r2 0.595.  Its window, from 2h = 2 down to t0 = 1,
    # spans the least factor the decay fit takes
    assert main(["dispersive", "--h", "1", "--out", str(tmp_path)]) == 1
    statuses = {row["claim"]: row["status"]
                for row in _report_rows(tmp_path, "dispersive")}
    assert statuses == {"dispersive-decay-slope": "FAIL", "dispersive-fit-r2": "FAIL"}


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# fast run\nn = 64\nT = 0.05\namp = 0.5\n")
    assert main(["nlfs", "--config", str(cfg), "--T", "0.02", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "nlfs" / "monitors.csv", newline="") as fh:
        times = [float(row["t"]) for row in csv.DictReader(fh)]
    assert times[-1] == pytest.approx(0.02, abs=1e-12)


def test_config_file_values_are_applied(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 64\nT = 0.05\namp = 0.5\n")
    assert main(["nlfs", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "nlfs" / "monitors.csv", newline="") as fh:
        times = [float(row["t"]) for row in csv.DictReader(fh)]
    assert times[-1] == pytest.approx(0.05, abs=1e-12)


def test_report_bytes_deterministic(tmp_path):
    argv = ["strichartz", "--hmax", "0.125", "--hmin", "0.0078125",
            "--n_t", "33"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("report.csv", "strichartz.csv"):
        first = (tmp_path / "a" / "strichartz" / name).read_bytes()
        second = (tmp_path / "b" / "strichartz" / name).read_bytes()
        assert first == second


def _run_python(args, cwd):
    """Run a fresh ``python`` child process on the imported package."""
    package_parent = str(Path(fracwkb.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def test_console_script(tmp_path):
    proc = _run_python(["-m", "fracwkb", "audit", "--out", str(tmp_path)],
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert (tmp_path / "audit" / "report.csv").exists()

    proc = _run_python(["-m", "fracwkb", "audit", "--metric", "weird",
                        "--out", str(tmp_path)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr


@pytest.mark.skipif(shutil.which("fracwkb") is None,
                    reason="fracwkb console script not installed on PATH")
def test_installed_console_script(tmp_path):
    proc = subprocess.run(["fracwkb", "audit", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_entry_point_declaration(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fracwkb"]
    assert target == "fracwkb.cli:main"
    # `python -m fracwkb` must call the same callable and exit with its value.
    module, attr = target.split(":")
    calls = []

    def fake_main(argv=None):
        calls.append(argv)
        return 7

    monkeypatch.setattr(importlib.import_module(module), attr, fake_main)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fracwkb", run_name="__main__")
    assert calls == [None]
    assert exc.value.code == 7


def test_imports_load_only_declared_dependencies(tmp_path):
    """Importing every fracwkb module loads no third-party package but numpy.

    The child records ``sys.modules`` first, since ``site`` may already have
    loaded packages of its own; every new top-level name outside the
    standard library must be fracwkb or a ``[project] dependencies`` entry.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in deps}
    assert declared == {"numpy"}
    names = sorted(p.stem for p in Path(fracwkb.__file__).parent.glob("*.py")
                   if not p.stem.startswith("_"))
    code = ("import importlib, sys\n"
            "before = set(sys.modules)\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('fracwkb.' + name)\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(*sorted(new - set(sys.stdlib_module_names)))\n")
    proc = _run_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= declared | {"fracwkb"}
