import contextlib
import io
import json
import re
import sys
from math import frexp, isnan, sqrt
from pathlib import Path

import numpy as np
import pytest

from kummer import algebra, cli, meanfield, quantum, serialize, verify
from kummer.cli import UsageError, main, parse_config
from kummer.model import ModelSpec
from kummer.semiclassics import SADDLE_MARGIN


class TestParseConfig:
    def test_sweep_flags(self):
        cfg = parse_config(
            "sweep --m 2 --n 1 --N 80 --v 1 --eps-min -3 --eps-max 3 --eps-steps 301".split()
        )
        assert cfg.command == "sweep"
        assert (cfg.spec.m, cfg.spec.n, cfg.spec.N) == (2, 1, 80)
        assert cfg.options["eps_steps"] == 301
        assert cfg.options["eps_min"] == -3.0

    def test_dos_flags(self):
        cfg = parse_config("dos --m 3 --n 3 --N 9000 --v 1 --eps 0.08 --bins 200".split())
        assert cfg.spec.N == 9000
        assert cfg.options["bins"] == 200

    def test_default_particle_number(self):
        cfg = parse_config("kummer-mesh --m 3 --n 3".split())
        assert cfg.spec.N == 360

    def test_invalid_model_is_usage_error(self):
        with pytest.raises(UsageError, match="multiple of m\\*n"):
            parse_config("spectrum --m 2 --n 1 --N 7".split())

    def test_missing_required_flag(self):
        with pytest.raises(UsageError, match="--eps-steps"):
            parse_config("sweep --m 2 --n 1 --eps-min 0 --eps-max 1".split())

    def test_config_file_with_overrides(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("m = 2\nn = 1\nN = 80  # comment\neps = 0.25\nbins = 50\n")
        cfg = parse_config(["dos", "--config", str(conf), "--eps", "0.5"])
        assert cfg.spec.eps == 0.5  # flag wins
        assert cfg.spec.N == 80
        assert cfg.options["bins"] == 50

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("m = 2\nn = 1\nwibble = 3\n")
        with pytest.raises(UsageError, match="wibble"):
            parse_config(["spectrum", "--config", str(conf)])

    def test_consecutive_calls_share_no_values(self, tmp_path):
        # the parser is built once per process; each parse starts afresh
        out = str(tmp_path)
        first = parse_config(["dos", "--m", "3", "--n", "2", "--eps", "0.4",
                              "--bins", "300", "--plot", "--out", out])
        traj = parse_config("trajectory --m 1 --n 4 --sx 0.1 --sy 0 --sz 0.2 --dt 0.01".split())
        again = parse_config("dos --m 2 --n 1".split())
        assert (first.spec.m, first.spec.n, first.spec.eps) == (3, 2, 0.4)
        assert first.options == {"bins": 300} and first.plot and first.out == out
        assert (traj.spec.m, traj.spec.n, traj.spec.eps, traj.spec.N) == (1, 4, 0.0, 160)
        assert traj.options == {"sx": 0.1, "sy": 0.0, "sz": 0.2, "t_end": 100.0,
                                "dt": 0.01, "stride": 100}
        assert traj.plot is False and traj.out == "."
        assert (again.spec.m, again.spec.n, again.spec.N, again.spec.eps) == (2, 1, 80, 0.0)
        assert again.options == {"bins": 200} and again.plot is False and again.out == "."

    def test_usage_error_after_parse_unchanged(self, capsys):
        # a rejected command line leaves the cached parser as a fresh one
        with pytest.raises(SystemExit):
            parse_config("dos --m x --n 1".split())
        first = capsys.readouterr().err
        parse_config("dos --m 2 --n 1".split())
        with pytest.raises(SystemExit):
            parse_config("dos --m x --n 1".split())
        assert capsys.readouterr().err == first
        assert "invalid int value: 'x'" in first
        fresh = cli._build_parser.__wrapped__()
        assert cli._build_parser().format_help() == fresh.format_help()

    def test_config_booleans(self, tmp_path, capsys):
        # 1/true/yes and 0/false/no in any case; a typo is a usage error
        conf = tmp_path / "run.conf"
        for raw, want in (("1", True), ("TRUE", True), ("Yes", True),
                          ("0", False), ("False", False), ("NO", False)):
            conf.write_text(f"m = 2\nn = 1\nplot = {raw}\n")
            assert parse_config(["spectrum", "--config", str(conf)]).plot is want
        conf.write_text("m = 2\nn = 1\nplot = ture\n")
        with pytest.raises(UsageError, match="'plot'.*'ture'"):
            parse_config(["spectrum", "--config", str(conf)])
        assert main(["spectrum", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "'ture'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.svg"))

    def test_malformed_config_line(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("m 2\n")
        with pytest.raises(UsageError, match="key = value"):
            parse_config(["spectrum", "--config", str(conf)])

    def test_negative_value_in_exponent_notation(self, tmp_path):
        # argparse alone takes -1.37e-3 for an option and wants a value for --eps
        cfg = parse_config("fixed-points --m 1 --n 3 --eps -1.37e-3 --v -1".split())
        assert (cfg.spec.eps, cfg.spec.v) == (-1.37e-3, -1.0)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(f"fixed-points --m 1 --n 3 --eps -1.37e-3 --out {a}".split()) == 0
        assert main(f"fixed-points --m 1 --n 3 --eps=-1.37e-3 --out {b}".split()) == 0
        assert (a / "fixed_points.csv").read_bytes() == (b / "fixed_points.csv").read_bytes()


class TestMain:
    def test_usage_exit_code(self, capsys):
        assert main("spectrum --m 2 --n 1 --N 7".split()) == 2
        err = capsys.readouterr().err
        assert "multiple of m*n" in err

    def test_spectrum_files(self, tmp_path):
        out = str(tmp_path)
        code = main(f"spectrum --m 2 --n 1 --N 8 --eps 0.5 --out {out} --plot".split())
        assert code == 0
        assert (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "spectrum.json").exists()
        svg = (tmp_path / "spectrum.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_fixed_points_and_bifurcations(self, tmp_path):
        out = str(tmp_path)
        assert main(f"fixed-points --m 2 --n 2 --N 160 --eps 0.6 --out {out}".split()) == 0
        assert main(f"bifurcations --m 3 --n 3 --out {out}".split()) == 0
        _, rows = serialize.read_csv(tmp_path / "fixed_points.csv")
        assert len(rows) == 4
        _, rows = serialize.read_csv(tmp_path / "bifurcations.csv")
        assert len(rows) == 4

    def test_bifurcations_at_small_slopes(self, tmp_path):
        # at (13, 13) eps_c = +-3.2e-16: four saddle-node events, none
        # dropped by an absolute threshold on the slope
        assert main(f"bifurcations --m 13 --n 13 --out {tmp_path}".split()) == 0
        _, rows = serialize.read_csv(tmp_path / "bifurcations.csv")
        assert len(rows) == 4

    def test_sweep_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = "sweep --m 2 --n 1 --N 40 --eps-min -1 --eps-max 1 --eps-steps 5"
        assert main(argv.split() + ["--out", str(a), "--plot"]) == 0
        assert main(argv.split() + ["--out", str(b), "--plot"]) == 0
        for name in ("sweep_levels.csv", "sweep_fixed_points.csv", "sweep.json", "sweep.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_row_at_rounded_zero_eps(self, tmp_path):
        # linspace gives 5.55e-17 for eps = 0; that row keeps both interior centres
        argv = "sweep --m 2 --n 1 --N 80 --eps-min -0.3 --eps-max 0.5 --eps-steps 9"
        assert main(argv.split() + ["--out", str(tmp_path)]) == 0
        _, rows = serialize.read_csv(tmp_path / "sweep_fixed_points.csv")
        row = [(float(e), kind) for eps, e, kind in rows if 0.0 < float(eps) < 1e-15]
        assert sorted(kind for _, kind in row) == ["center", "center", "saddle"]
        centres = sorted(e for e, kind in row if kind == "center")
        r = 2.0 * sqrt(2.0) / (3.0 * sqrt(3.0))  # r(p0) of (2,1) at p0 = 1/6
        assert centres == pytest.approx([-r, r], abs=1e-12)

    def test_sweep_parallel_jobs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = "sweep --m 2 --n 1 --N 40 --eps-min -1 --eps-max 1 --eps-steps 4"
        assert main(argv.split() + ["--out", str(a)]) == 0
        assert main(argv.split() + ["--jobs", "2", "--out", str(b)]) == 0
        assert (a / "sweep_levels.csv").read_bytes() == (b / "sweep_levels.csv").read_bytes()

    def test_trajectory_rejects_off_surface(self, tmp_path, capsys):
        argv = (
            f"trajectory --m 2 --n 1 --N 80 --sx 0.9 --sy 0 --sz 0 "
            f"--t-end 1 --out {tmp_path}"
        )
        assert main(argv.split()) == 1
        assert "surface" in capsys.readouterr().err

    def test_trajectory_runs(self, tmp_path, capsys):
        argv = (
            f"trajectory --m 2 --n 1 --N 80 --eps 0.5 --sx 0.5 --sy 0 --sz 0 "
            f"--t-end 2 --out {tmp_path} --plot"
        )
        assert main(argv.split()) == 0
        assert "drift_H" in capsys.readouterr().out
        # the header comments hold plain floats, equal to the record's
        record = meanfield.integrate_trajectory(
            ModelSpec(2, 1, 80, eps=0.5), (0.5, 0.0, 0.0), 2.0, 1e-3, stride=100)
        comments = dict(
            line[2:].split("=", 1)
            for line in (tmp_path / "trajectory.csv").read_text().splitlines()
            if line.startswith("# drift_")
        )
        assert float(comments["drift_H"]) == record.drift_h
        assert float(comments["drift_C"]) == record.drift_c

    def test_diverged_trajectory_is_an_error(self, tmp_path, capsys):
        # RK4 at dt = 5 blows up within a few steps: no NaN rows are written
        argv = (
            f"trajectory --m 2 --n 1 --eps 0.5 --sx 0 --sy 0 --sz 0.5 "
            f"--t-end 20000 --dt 5 --stride 1 --out {tmp_path}"
        )
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert "ArithmeticError: the flow diverged by t = " in err and "--dt 5.0" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("flags,name", [
        ("--stride 0", "stride"),
        ("--dt nan", "dt"),
        ("--t-end inf", "t_end"),
        ("--dt 5 --t-end 1", "dt"),
    ])
    def test_trajectory_rejects_bad_steps(self, tmp_path, capsys, flags, name):
        argv = (
            f"trajectory --m 2 --n 1 --N 80 --eps 0.5 --sx 0.5 --sy 0 --sz 0 "
            f"{flags} --out {tmp_path}"
        )
        assert main(argv.split()) == 1
        assert f"ValueError: {name} " in capsys.readouterr().err

    def test_trajectory_rejects_step_count_overflow(self, tmp_path, capsys):
        argv = (
            f"trajectory --m 1 --n 1 --sx 0 --sy 0 --sz 0.5 --t-end 1e300 --dt 1e-10 "
            f"--out {tmp_path}"
        )
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert "ValueError: t_end = 1e+300 over dt = 1e-10 is no finite step count" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", [
        ("trajectory --sx 0 --sy 0 --sz 0.5 --t-end 1", "eps"),
        ("fixed-points", "eps"),
        ("spectrum", "eps"),
        ("quantize", "v"),
        ("bifurcations", "v"),
        ("sweep --eps-max 1 --eps-steps 3", "eps-min"),
    ])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, command, flag, value):
        name, *rest = command.split()
        argv = [name, "--m", "2", "--n", "1", *rest, f"--{flag}={value}", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_quantize_compare_columns(self, tmp_path, capsys):
        argv = f"quantize --m 4 --n 1 --N 160 --eps 0.5 --out {tmp_path}"
        assert main(argv.split()) == 0
        header = (tmp_path / "quantize.csv").read_text().splitlines()[1]
        assert header == "nu,scaled_energy,exact,abs_deviation,regime"
        assert "max |semiclassical - exact|" in capsys.readouterr().out

    @pytest.mark.parametrize("m,n", [(150, 150), (83, 83)])
    @pytest.mark.parametrize("command", ["bifurcations", "fixed-points", "quantize", "spectrum"])
    def test_shape_without_normal_radius_scale(self, tmp_path, capsys, command, m, n):
        # r0^2 = m^(2-n) n^(2-m) is 0.0 at (150,150) and subnormal at (83,83):
        # the classical commands name m and n; the eigensolve needs no r0
        argv = f"{command} --m {m} --n {n} --out {tmp_path}"
        if command == "spectrum":
            assert main(argv.split()) == 0
            return
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert "ValueError: r0^2 = m^(2-n) n^(2-m) = " in err
        assert f"at m = {m}, n = {n}" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_quantize_well_born_at_pinched_pole(self, tmp_path):
        # at eps = 0.00137 a saddle sits 1.3e-10 below the n = 3 pole centre
        argv = f"quantize --m 1 --n 3 --eps 0.00137 --out {tmp_path}"
        assert main(argv.split()) == 0
        rows = (tmp_path / "quantize.csv").read_text().splitlines()
        assert len([r for r in rows if not r.startswith("#")]) == 1 + 41

    def test_dos_outputs(self, tmp_path):
        argv = f"dos --m 2 --n 1 --N 900 --eps 1.5 --bins 40 --out {tmp_path} --plot"
        assert main(argv.split()) == 0
        assert (tmp_path / "dos_histogram.csv").exists()
        assert (tmp_path / "dos_curve.csv").exists()
        assert (tmp_path / "dos.svg").exists()

    def test_mesh_output(self, tmp_path):
        argv = f"kummer-mesh --m 3 --n 3 --n-theta 8 --n-p 9 --out {tmp_path}"
        assert main(argv.split()) == 0
        rows = (tmp_path / "kummer_mesh.csv").read_text().splitlines()
        assert len([r for r in rows if not r.startswith("#")]) == 1 + 72

    def test_verify_small_spec(self, tmp_path, capsys):
        assert main(f"verify --m 1 --n 1 --N 20 --eps 0.4 --out {tmp_path}".split()) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_verify_upper_double_well(self, tmp_path, capsys):
        # at eps = 0.1 the (3,3) band has two wells under U+: the total
        # area counts the gap between them once
        assert main(f"verify --m 3 --n 3 --N 90 --eps 0.1 --out {tmp_path}".split()) == 0
        out = capsys.readouterr().out
        assert "17/17 checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("m,n", [(3, 1), (1, 4), (2, 1), (2, 2)])
    def test_bifurcations_without_coupling(self, tmp_path, m, n):
        # at v = 0, H = eps*sz: at every eps != 0 only the poles are fixed
        # points, and their stability eps^2 never changes
        assert main(f"bifurcations --m {m} --n {n} --v 0 --out {tmp_path}".split()) == 0
        header, rows = serialize.read_csv(tmp_path / "bifurcations.csv")
        assert header == ["eps_critical", "kind", "location", "energy"] and rows == []

    def test_verify_without_coupling(self, tmp_path, capsys):
        # at v = 0 the band holds no orbit: verify fails, with failed checks
        # rather than exceptions from the bifurcation and area checks
        assert main(f"verify --m 3 --n 1 --N 12 --v 0 --out {tmp_path}".split()) == 1
        out = capsys.readouterr().out
        assert "ZeroDivisionError" not in out and "IndexError" not in out
        assert "Poincare index across bifurcations" in out and "no events" in out
        assert "no grid energy in the band" in out

    def test_verify_names_an_unrepresentable_prefactor(self, tmp_path, capsys):
        # at m = n = 83 the prefactor n^n m^m / (2 N^(m+n-2)) is about
        # exp(-1321): the checks that need it fail with a ValueError naming
        # m, n and N, not a bare OverflowError
        assert main(f"verify --m 83 --n 83 --out {tmp_path}".split()) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "OverflowError" not in text
        lines = [line for line in text.splitlines()
                 if "check_structure_symmetry" in line or "check_ladder_identity" in line]
        assert len(lines) == 2
        assert all("ValueError" in line and "m = 83, n = 83, N = " in line for line in lines)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_worker_count_is_usage_error(tmp_path, capsys, source):
    # no workers are started: the count is checked while parsing, whether
    # it comes from --jobs or from the config key jobs
    argv = "sweep --m 2 --n 1 --N 20 --eps-min 0 --eps-max 1 --eps-steps 3".split()
    if source == "flag":
        argv += ["--jobs", "-2"]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text("jobs = -2\n")
        argv += ["--config", str(conf)]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "--jobs must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "sweep_levels.csv").exists()


def test_jobs_environment_variable_is_not_read(tmp_path, monkeypatch):
    # --jobs (config key jobs) is the only source of the worker count: a
    # KUMMER_JOBS value that once was a usage error changes nothing
    monkeypatch.setenv("KUMMER_JOBS", "abc")
    argv = "sweep --m 2 --n 1 --N 20 --eps-min 0 --eps-max 1 --eps-steps 3"
    assert parse_config(argv.split()).options["jobs"] == 1
    assert main(argv.split() + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep_levels.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("grid,message", [
    ({"eps_min": "-1", "eps_max": "1", "eps_steps": "0"},
     "--eps-steps must be a positive integer, got 0"),
    ({"eps_min": "-1", "eps_max": "1", "eps_steps": "-3"},
     "--eps-steps must be a positive integer, got -3"),
    # the width overflows, so np.linspace would give NaN even at one step
    ({"eps_min": "-1e308", "eps_max": "1e308", "eps_steps": "1"},
     "--eps-min -1e+308 and --eps-max 1e+308 are too far apart"),
    ({"eps_min": "1e308", "eps_max": "-1e308", "eps_steps": "3"},
     "--eps-min 1e+308 and --eps-max -1e+308 are too far apart"),
])
def test_unusable_sweep_grid_is_usage_error(tmp_path, capsys, source, grid, message):
    argv = ["sweep", "--m", "2", "--n", "1", "--N", "20", "--out", str(tmp_path)]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in grid.items()]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{key} = {value}\n" for key, value in grid.items()))
        argv += ["--config", str(conf)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sweep_levels.csv").exists()


def test_wide_finite_sweep_grid_is_accepted():
    # the bounds' difference is finite, so np.linspace gives finite eps
    argv = "sweep --m 1 --n 1 --N 2 --eps-min -8e307 --eps-max 8e307 --eps-steps 1"
    assert parse_config(argv.split()).options["eps_steps"] == 1


@pytest.mark.parametrize("command,code", [
    ("fixed-points --eps 0.3", 1),
    ("sweep --eps-min -1 --eps-max 1 --eps-steps 2", 1),
    ("dos", 1),  # eps = 0: the check comes before the turning points
    ("quantize", 1),  # eps = 0: and before the first-order shifts
    ("kummer-mesh", 0),  # reads only the factored forms of r
])
def test_overflowing_fixed_point_coefficients(tmp_path, capsys, command, code):
    # (1/2 - p)^2000 has binomial coefficients past the double range
    argv = f"{command} --m 1 --n 2000 --N 2000 --out {tmp_path}"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv.split()) == code
    if code:
        err = capsys.readouterr().err
        assert ("ValueError: the coefficients of the fixed-point residual overflow "
                "at m = 1, n = 2000") in err
        assert not list(tmp_path.glob("*.csv"))


def test_dos_reports_saddle_energies(tmp_path):
    argv = f"dos --m 2 --n 1 --N 360 --eps 0.5 --bins 30 --out {tmp_path}"
    assert main(argv.split()) == 0
    text = (tmp_path / "dos_curve.csv").read_text()
    assert "saddle energies" in text
    assert "-0.25" in text


def test_dos_finds_fixed_points_once(tmp_path, monkeypatch):
    # dos_semiclassical finds the saddles and hands them to the writer in
    # its DosCurve; the command searches no fixed points of its own
    calls = []
    find = meanfield.find_fixed_points
    monkeypatch.setattr(meanfield, "find_fixed_points", lambda s: calls.append(s) or find(s))
    argv = f"dos --m 2 --n 1 --N 360 --eps 0.5 --bins 30 --plot --out {tmp_path}"
    assert main(argv.split()) == 0
    assert calls == [ModelSpec(2, 1, 360, eps=0.5)]
    assert "saddle energies" in (tmp_path / "dos_curve.csv").read_text()


@pytest.mark.parametrize("scale", ["--eps 0.6 --v 1", "--eps 0.6e-12 --v 1e-12",
                                   "--eps 0.6e12 --v 1e12", "--eps 1e-300 --v 1.3e-300"])
def test_verify_passes_at_every_energy_scale(tmp_path, capsys, scale):
    # the checks run at unit scale, as the solvers do: in the caller's
    # units an absolute rounding would merge the +-eps_c bifurcation
    # events, the trajectory's fixed time step would diverge at 1e12, and
    # the area check's grid would hold no energy of the 1e-300 band
    assert main(f"verify --m 2 --n 2 --N 40 {scale} --out {tmp_path}".split()) == 0
    out = capsys.readouterr().out
    assert "17/17 checks passed" in out and "FAIL" not in out


class TestVerifyAtSmallStructureScale:
    # at eps = 0 and m = n >= 10 the band, the bifurcation slopes and f are
    # all far below 1, so absolute thresholds at unit scale pass anything
    SPECS = [ModelSpec(m, m, 40 * m * m) for m in (10, 12, 13)]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_poincare_line_names_both_events(self, spec):
        _, ok, detail = verify.check_poincare_index(spec)
        groups = detail.split("; ")
        assert ok and len(groups) == 2, detail
        assert groups[0].startswith("-") and groups[1].startswith("+"), detail
        assert groups[0].split(":")[0][1:] == groups[1].split(":")[0][1:] and "e-" in groups[0]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_spectrum_bounds_catch_stretched_levels(self, spec, monkeypatch):
        assert verify.check_spectrum_bounds(spec)[1]
        exact = quantum.eigen_spectrum
        monkeypatch.setattr(quantum, "eigen_spectrum", lambda s: quantum.SpectrumResult(
            s, 1.5 * exact(s).raw_eigenvalues))
        assert not verify.check_spectrum_bounds(spec)[1]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_spectrum_bounds_line_keeps_four_digits(self, spec):
        # .4f printed every bound here as 0.0000 or -0.0000
        _, _, detail = verify.check_spectrum_bounds(spec)
        scaled = quantum.eigen_spectrum(spec).scaled_eigenvalues
        energies = [fp.energy for fp in meanfield.find_fixed_points(spec)]
        want = np.array([scaled.min(), scaled.max(), min(energies), max(energies)])
        got = np.array([float(x) for x in re.findall(r"-?\d\.\d{3}e[-+]\d+", detail)])
        assert len(got) == 4 and np.all(np.abs(got - want) <= 5e-4 * np.abs(want)), detail

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_classical_limit_catches_a_scaled_f(self, spec, monkeypatch):
        _, ok, detail = verify.check_classical_limit(spec)
        assert ok and detail.startswith("rate "), detail
        commutator = algebra.commutator_poly
        monkeypatch.setattr(algebra, "commutator_poly", lambda s, z: 1.3 * commutator(s, z))
        _, ok, detail = verify.check_classical_limit(spec)
        assert not ok, detail


def test_dos_curve_states_the_saddle_margin_in_the_callers_units(tmp_path):
    # the mask is SADDLE_MARGIN at unit scale: SADDLE_MARGIN * 2^332 at 1e100
    argv = f"dos --m 2 --n 1 --N 360 --eps 0.5e100 --v 1e100 --bins 30 --out {tmp_path}"
    assert main(argv.split()) == 0
    margin = np.format_float_scientific(SADDLE_MARGIN * 2.0**332, trim="-", exp_digits=1)
    assert f"(curve masked within {margin}): -2.5e+99" in (tmp_path / "dos_curve.csv").read_text()


def test_quantization_error_names_the_energy_in_the_callers_units(tmp_path, capsys):
    # eps/v = 1e100 is the ratio limit of ROADMAP item 3, solved at
    # (1.14, 1.14e-100); the message still gives E at eps = 1e100
    argv = f"quantize --m 2 --n 2 --N 16 --eps 1e100 --out {tmp_path}"
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert "the area is unresolved at E = -3.7499992499999997e+99, inside its edges" in err


def test_quantize_pinched_pole_band_bottom(tmp_path):
    argv = f"quantize --m 4 --n 1 --N 160 --eps 0.9 --out {tmp_path}"
    assert main(argv.split()) == 0
    rows = (tmp_path / "quantize.csv").read_text().splitlines()
    assert len([r for r in rows if not r.startswith("#")]) == 1 + 41


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2)])
def test_quantize_at_zero_coupling_names_v(tmp_path, capsys, m, n):
    argv = f"quantize --m {m} --n {n} --v 0 --eps 0.3 --out {tmp_path}"
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert "QuantizationError: v = 0" in err
    assert not (tmp_path / "quantize.csv").exists()


# the columns of each file that carry an energy (times s) or a density of
# states (times 1/s); the other columns do not scale
_ENERGY_COLUMNS = {
    "fixed_points.csv": {"energy", "rate"},
    "bifurcations.csv": {"eps_critical", "energy"},
    "spectrum.csv": {"raw", "scaled"},
    "sweep_fixed_points.csv": {"eps", "energy"},
    "sweep_levels.csv": {"eps", "scaled_energy"},
    "quantize.csv": {"scaled_energy", "exact", "abs_deviation"},
    "dos_histogram.csv": {"bin_left", "bin_right", "bin_center"},
    "dos_curve.csv": {"scaled_energy"},
}
_DENSITY_COLUMNS = {"density", "period_over_2pi"}


@pytest.mark.parametrize("argv", [
    "fixed-points --m 1 --n 1 --eps 1e200",
    "fixed-points --m 2 --n 1 --eps 1e200",  # eps^2 overflowed, then v^2
    "fixed-points --m 1 --n 1 --v 1e200",
    "fixed-points --m 2 --n 1 --eps 1e154",  # v^2 a(p) - eps^2 b(p) overflowed
    "fixed-points --m 2 --n 1 --eps 0.5e-300 --v 1e-300",  # one degenerate pole
    "sweep --m 1 --n 1 --N 2 --eps-min -8e307 --eps-max 8e307 --eps-steps 3",
    "dos --m 1 --n 1 --eps 1e200",
    "dos --m 2 --n 2 --eps 1e200",
    "dos --m 1 --n 1 --N 4 --v 1e155",  # stebz did not converge
    "dos --m 3 --n 3 --N 36 --bins 20 --v 1e154",  # the band polynomial overflowed
    "quantize --m 2 --n 1 --N 8 --v 1e154",
    "quantize --m 1 --n 3 --N 12 --v 1e154",
    "quantize --m 2 --n 1 --N 80 --eps 1e-300 --v 1e-300",  # "degenerate band"
    "quantize --m 3 --n 2 --N 120 --eps 0.5e-200 --v 1e-200",
    "spectrum --m 1 --n 1 --eps 1e200",
    "kummer-mesh --m 1 --n 1 --eps 1e200",
    "bifurcations --m 1 --n 1 --v 1e200",
    "bifurcations --m 2 --n 2 --v 1e200",
    "bifurcations --m 3 --n 1 --v 1e200",  # v^2 overflowed
    "bifurcations --m 3 --n 1 --v 1e-200",  # v^2 underflowed
])
def test_extreme_parameters_give_the_scaled_unit_run(tmp_path, argv):
    # H is linear in (eps, v): the run at (eps, v) writes s times the
    # energies of the run at (eps/s, v/s), s the power of two with the
    # largest |eps|, |v| in [s, 2s), wherever both values are normal doubles
    words = argv.split()
    values = {"--v": 1.0}
    values.update((w, float(words[k + 1])) for k, w in enumerate(words)
                  if w in ("--eps", "--v", "--eps-min", "--eps-max"))
    s = 2.0 ** (frexp(max(abs(x) for x in values.values()))[1] - 1)
    twin = [w for k, w in enumerate(words) if w not in values and words[k - 1] not in values]
    twin += [x for flag, x in values.items() for x in (flag, repr(x / s))]
    big, unit = tmp_path / "big", tmp_path / "unit"
    assert main(words + ["--out", str(big)]) == 0
    assert main(twin + ["--out", str(unit)]) == 0
    if words[0] == "fixed-points" and "0.5e-300" in words:
        assert len(serialize.read_csv(big / "fixed_points.csv")[1]) == 3
    tiny = np.finfo(float).tiny
    for path in sorted(big.glob("*.csv")):
        header, rows = serialize.read_csv(path)
        twin_header, twin_rows = serialize.read_csv(unit / path.name)
        assert header == twin_header and len(rows) == len(twin_rows), path.name
        for j, column in enumerate(header):
            cells = [(a[j], b[j]) for a, b in zip(rows, twin_rows)]
            scale = (s if column in _ENERGY_COLUMNS.get(path.name, ())
                     else 1.0 / s if column in _DENSITY_COLUMNS else None)
            for a, b in cells:
                if scale is None:
                    assert a == b, (path.name, column)
                    continue
                got, want = float(a), float(b) * scale
                if want == 0.0 != got:  # the twin's value underflowed to zero
                    assert abs(got) < tiny * scale, (path.name, column, a, b)
                    continue
                if any(0.0 < abs(x) < tiny for x in (got, want, float(b))):
                    continue  # a subnormal value keeps fewer bits
                assert got == want or (isnan(got) and isnan(want)), (path.name, column, a, b)


class TestCommandTable:
    # a small run of each command in the table, with --plot where it draws
    RUNS = {
        "spectrum": "--m 2 --n 1 --N 8 --plot",
        "fixed-points": "--m 2 --n 1 --N 8 --eps 0.5",
        "bifurcations": "--m 2 --n 2",
        "sweep": "--m 2 --n 1 --N 8 --eps-min -1 --eps-max 1 --eps-steps 3 --plot",
        "trajectory": "--m 2 --n 1 --eps 0.5 --sx 0.5 --sy 0 --sz 0 --t-end 0.5 --plot",
        "quantize": "--m 2 --n 1 --N 40 --eps 0.5 --plot",
        "dos": "--m 2 --n 1 --N 200 --eps 0.5 --bins 10 --plot",
        "kummer-mesh": "--m 2 --n 1 --n-theta 4 --n-p 5 --plot",
        "verify": "--m 1 --n 1 --N 20 --eps 0.4",
    }

    def test_runs_cover_the_table(self):
        assert list(self.RUNS) == list(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_files_under_the_command_stem(self, tmp_path, capsys, command):
        # run makes the output directory; files go under <out>/<command with "-" as "_">
        out = tmp_path / "a" / "b"
        assert main([command, *self.RUNS[command].split(), "--out", str(out)]) == 0
        stem = command.replace("-", "_")
        names = sorted(path.name for path in out.iterdir())
        assert all(name.split(".")[0] == stem or name.startswith(stem + "_") for name in names)
        if command == "verify":
            assert names == []
        else:
            assert any(name.endswith(".csv") for name in names)
            assert ("--plot" in self.RUNS[command]) == (f"{stem}.svg" in names)


HELP = json.loads((Path(__file__).parent / "data" / "help_texts.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11's argparse")
@pytest.mark.parametrize("command", list(HELP["texts"]))
def test_help_text_unchanged(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    assert list(HELP["texts"]) == ["", *cli._COMMANDS]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parse_config([command, "--help"] if command else ["--help"])
    assert out.getvalue() == HELP["texts"][command]


class TestPrecedence:
    # table defaults, then the config file, then explicit flags
    def test_sweep_grid_from_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("m = 2\nn = 1\nN = 80\neps_min = -1\neps-max = 1\neps_steps = 31\n")
        cfg = parse_config(["sweep", "--config", str(conf), "--eps-steps", "5"])
        assert cfg.options == {"eps_min": -1.0, "eps_max": 1.0, "eps_steps": 5, "jobs": 1}
        assert main(["sweep", "--config", str(conf), "--eps-steps", "5", "--out", str(tmp_path)]) == 0
        _, rows = serialize.read_csv(tmp_path / "sweep_levels.csv")
        assert len({eps for eps, *_ in rows}) == 5

    def test_trajectory_start_from_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("m = 2\nn = 1\nsx = 0.5\nsy = 0.25\nsz = 0\nt_end = 3\n")
        cfg = parse_config(["trajectory", "--config", str(conf), "--sy", "0", "--dt", "0.01"])
        assert cfg.options == {"sx": 0.5, "sy": 0.0, "sz": 0.0, "t_end": 3.0,
                               "dt": 0.01, "stride": 100}
        assert (cfg.spec.m, cfg.spec.n, cfg.spec.N) == (2, 1, 80)

    @pytest.mark.parametrize("command,config,message", [
        ("spectrum", "n = 1\neps = 0.5\n", "--m is required"),
        ("dos", "m = 2\nbins = 10\n", "--n is required"),
        ("sweep", "m = 2\nn = 1\neps_max = 1\neps_steps = 3\n",
         "--eps-min is required for sweep"),
        ("trajectory", "m = 2\nn = 1\nsx = 0.5\nsy = 0\n", "--sz is required for trajectory"),
    ])
    def test_required_option_in_neither(self, tmp_path, capsys, command, config, message):
        conf = tmp_path / "run.conf"
        conf.write_text(config)
        with pytest.raises(UsageError) as err:
            parse_config([command, "--config", str(conf)])
        assert str(err.value) == message
        assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"kummer: {message}\n"
