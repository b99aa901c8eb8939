"""Command-line front door: formats, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fracflux.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMO = str(ROOT / "configs" / "demo.cfg")
CRIME = str(ROOT / "configs" / "ip1_crime.cfg")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestValidate:
    def test_demo_config_valid(self, capsys):
        assert main(["validate", DEMO]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["admissible"] is True
        assert report["separation_violations"] == []

    def test_violation_names_inequality_exit_2(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "bad.cfg",
            "model.alpha = 0.7\nmodel.a = 3.0\nmodel.b = 2.0\nmodel.c = 1.0\nmodel.d = 1.0\n"
            "model.kappa = 1.0\nmodel.varkappa = 1.0\nmodel.t0 = 1.0\nmodel.t1 = 2.0\n",
        )
        assert main(["validate", cfg]) == 2
        err = capsys.readouterr().err
        assert "a*b <= min(c^2, d^2)" in err

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "broken.cfg", "model alpha 0.7\n")
        assert main(["validate", cfg]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert main(["validate", "/nonexistent/x.cfg"]) == 2


class TestForward:
    def test_writes_state_and_flux_csv(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["forward", DEMO, "--out", out, "--quiet"]) == 0
        flux = (tmp_path / "out" / "flux.csv").read_text().splitlines()
        assert flux[0] == "t,re_h,im_h"
        assert len(flux) > 10
        state = (tmp_path / "out" / "state.csv").read_text().splitlines()
        assert state[0].startswith("t,re_u_1,im_u_1")
        assert state[0].endswith("re_v_4,im_v_4")

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["forward", DEMO, "--out", out1, "--quiet"])
        main(["forward", DEMO, "--out", out2, "--quiet"])
        for name in ("state.csv", "flux.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_data_config_gives_zero_csvs(self, tmp_path):
        base = (ROOT / "configs" / "demo.cfg").read_text()
        stripped = "\n".join(
            line
            for line in base.splitlines()
            if not any(line.startswith(f"data.{k}") for k in ("phi", "psi", "f", "chi"))
        )
        cfg = write(tmp_path, "zero.cfg", stripped)
        assert main(["forward", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        for name in ("state.csv", "flux.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            vals = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
            assert np.all(vals == 0.0)

    def test_noise_seed_deterministic(self, tmp_path):
        noisy = (ROOT / "configs" / "demo.cfg").read_text().replace("data.noise = 0.0", "data.noise = 0.01")
        cfg = write(tmp_path, "noisy.cfg", noisy)
        main(["forward", cfg, "--out", str(tmp_path / "n1"), "--seed", "7", "--quiet"])
        main(["forward", cfg, "--out", str(tmp_path / "n2"), "--seed", "7", "--quiet"])
        main(["forward", cfg, "--out", str(tmp_path / "n3"), "--seed", "8", "--quiet"])
        f1 = (tmp_path / "n1" / "flux.csv").read_bytes()
        assert f1 == (tmp_path / "n2" / "flux.csv").read_bytes()
        assert f1 != (tmp_path / "n3" / "flux.csv").read_bytes()


class TestScans:
    def test_laplace_scan_format(self, tmp_path):
        out = str(tmp_path)
        assert main(["laplace-scan", DEMO, "--out", out, "--quiet"]) == 0
        lines = (tmp_path / "laplace_scan.csv").read_text().splitlines()
        assert lines[0] == "re_s,im_s,re_value,im_value"
        assert len(lines) == 11  # header + default 10-point grid

    def test_jump_scan_format(self, tmp_path):
        out = str(tmp_path)
        assert main(["jump-scan", DEMO, "--out", out, "--quiet"]) == 0
        lines = (tmp_path / "jump_scan.csv").read_text().splitlines()
        assert lines[0] == "re_s,im_s,re_value,im_value"
        row = [float(v) for v in lines[1].split(",")]
        assert row[1] == 0.0  # jump scans store rho in re_s

    def test_residues_json(self, tmp_path):
        out = str(tmp_path)
        assert main(["residues", DEMO, "--out", out, "--quiet"]) == 0
        reports = json.loads((tmp_path / "residues.json").read_text())
        assert len(reports) == 4
        assert all(r["report_breve"]["rel_error"] < 1e-6 for r in reports)

    def test_residues_zero_data(self, tmp_path):
        base = (ROOT / "configs" / "demo.cfg").read_text()
        stripped = "\n".join(
            line
            for line in base.splitlines()
            if not any(line.startswith(f"data.{k}") for k in ("phi", "psi", "f", "chi"))
        )
        cfg = write(tmp_path, "zero.cfg", stripped)
        assert main(["residues", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        reports = json.loads((tmp_path / "residues.json").read_text())
        for r in reports:
            assert r["report_breve"]["contour_value"] == [0.0, 0.0]


class TestInvertRoundTrip:
    def test_forward_then_invert_recovers_config(self, tmp_path):
        out = str(tmp_path)
        from fracflux.config import load_config

        cfg = load_config(pathlib.Path(CRIME).read_text())
        assert main(["forward", CRIME, "--out", out, "--quiet"]) == 0
        data_file = str(tmp_path / "flux.csv")
        assert main(["invert", CRIME, data_file, "--out", out, "--quiet"]) == 0
        result = json.loads((tmp_path / "inversion.json").read_text())
        f_hat = np.array([[complex(re, im) for re, im in row] for row in result["f_hat"]])
        phi_hat = np.array([complex(re, im) for re, im in result["phi_hat"]])
        scale = np.abs(cfg.source.f_coeffs).max()
        assert np.abs(f_hat - cfg.source.f_coeffs).max() / scale < 1e-6
        assert np.abs(phi_hat - cfg.phi.coeffs).max() / scale < 1e-6

    def test_crime_at_alpha_099(self, tmp_path):
        # every kernel of the crime config at alpha = 0.99 resolves in double
        # precision; an arbitrary-precision fallback once ran out of budget at z = -27.4
        text = pathlib.Path(CRIME).read_text().replace("model.alpha    = 0.9\n", "model.alpha    = 0.99\n")
        assert "model.alpha    = 0.99\n" in text
        cfg = write(tmp_path, "crime99.cfg", text)
        out = str(tmp_path / "out")
        assert main(["forward", cfg, "--out", out, "--quiet"]) == 0
        assert main(["invert", cfg, str(tmp_path / "out" / "flux.csv"), "--out", out, "--quiet"]) == 0

    def test_bad_header_exit_2(self, tmp_path):
        bad = write(tmp_path, "bad.csv", "time,flux\n1.0,2.0\n")
        assert main(["invert", CRIME, bad, "--out", str(tmp_path), "--quiet"]) == 2

    @pytest.mark.parametrize("row", ["2.0,1.0", "2.0", "2.0,1.0,x", "2.0,abc,0.0", "2.0,nan,0.0", "inf,1.0,0.0"])
    def test_malformed_row_exit_2(self, tmp_path, capsys, row):
        bad = write(tmp_path, "bad.csv", f"t,re_h,im_h\n1.5,0.1,0.0\n\n{row}\n")
        assert main(["invert", CRIME, bad, "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "flux CSV line 4" in err and repr(row) in err
        assert not (tmp_path / "inversion.json").exists()

    def test_times_outside_window_exit_3(self, tmp_path, capsys):
        # crime observes on (t0, t1) = (1, 400); data before t0 cannot be inverted
        data = write(tmp_path, "early.csv", "t,re_h,im_h\n0.2,1.0,0.0\n0.5,0.5,0.0\n")
        assert main(["invert", CRIME, data, "--out", str(tmp_path), "--quiet"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "inversion.json").exists()

    def test_out_of_order_times_exit_3(self, tmp_path, capsys):
        data = write(tmp_path, "unsorted.csv", "t,re_h,im_h\n1.5,1.0,0.0\n2.5,0.5,0.0\n2.0,0.7,0.0\n")
        assert main(["invert", CRIME, data, "--out", str(tmp_path), "--quiet"]) == 3
        assert "strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "inversion.json").exists()


class TestTaskOptions:
    """model.a decides the problem family; task keys that contradict it or the mode range exit 2."""

    def test_agreeing_leftover_problem_accepted(self, tmp_path):
        cfg = write(tmp_path, "old.cfg", pathlib.Path(DEMO).read_text() + "task.problem = ip2\n")
        assert main(["validate", cfg, "--quiet"]) == 0

    def test_leftover_x_points_accepted(self, tmp_path):
        cfg = write(tmp_path, "old.cfg", pathlib.Path(DEMO).read_text() + "disc.x_points = 101\n")
        assert main(["validate", cfg, "--quiet"]) == 0

    def test_disagreeing_problem_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "ip2.cfg", pathlib.Path(CRIME).read_text() + "task.problem = ip2\n")
        assert main(["residues", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "task.problem" in capsys.readouterr().err

    def test_misspelled_problem_exit_2(self, tmp_path):
        cfg = write(tmp_path, "ip3.cfg", pathlib.Path(DEMO).read_text() + "task.problem = ip3\n")
        flux = write(tmp_path, "flux.csv", "t,re_h,im_h\n1.5,0.0,0.0\n2.0,0.0,0.0\n")
        assert main(["jump-scan", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert main(["invert", cfg, flux, "--out", str(tmp_path), "--quiet"]) == 2
        assert not (tmp_path / "jump_scan.csv").exists()
        assert not (tmp_path / "inversion.json").exists()

    @pytest.mark.parametrize("modes", ["9", "0", "1,5", "x", "1j", "2.5"])
    def test_modes_outside_range_exit_2(self, tmp_path, capsys, modes):
        cfg = write(tmp_path, "modes.cfg", pathlib.Path(DEMO).read_text() + f"task.modes = {modes}\n")
        assert main(["residues", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "task.modes" in capsys.readouterr().err
        assert not (tmp_path / "residues.json").exists()

    @pytest.mark.parametrize("modes, expected", [("2.0", [2]), ("1,2.0", [1, 2])])
    def test_integral_float_modes_run(self, tmp_path, modes, expected):
        cfg = write(tmp_path, "modes.cfg", pathlib.Path(DEMO).read_text() + f"task.modes = {modes}\n")
        assert main(["residues", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        reports = json.loads((tmp_path / "residues.json").read_text())
        assert [r["report_breve"]["mode"] for r in reports] == expected

    @pytest.mark.parametrize("grid", ["1:2:x", "1:2", "1:2:0", "a:2:3", "nan:5:3", "1:inf:3"])
    def test_malformed_grid_spec_exit_2(self, tmp_path, capsys, grid):
        cfg = write(tmp_path, "grid.cfg", pathlib.Path(DEMO).read_text() + f"task.s_grid = {grid}\n")
        assert main(["laplace-scan", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert "grid spec" in capsys.readouterr().err


class TestConfigValues:
    """A numeric config key with a value of the wrong kind exits 2 and names the key and the value."""

    @pytest.mark.parametrize(
        "line",
        [
            "disc.K = 2.5",
            "disc.K = x",
            "disc.M = 1.5",
            "disc.t_points = 200.5",
            "data.seed = 0.5",
            "data.noise = x",
            "data.noise = 1j",
            "model.alpha = x",
            "task.mu = abc",
            "task.mu = 1j",
            "task.mu = -1",
            "task.mu = nan",
            "task.s_imag = abc",
            "task.s_imag = 1j",
            "task.s_imag = inf",
            "data.phi = nan",
            "data.psi = inf",
            "data.f = 1.0 nan 0.0",
            "data.f = 1.0 abc 0.0",
            "data.phi = abc",
        ],
    )
    def test_wrong_kind_exit_2(self, tmp_path, capsys, line):
        cfg = write(tmp_path, "kind.cfg", pathlib.Path(DEMO).read_text() + line + "\n")
        assert main(["validate", cfg, "--quiet"]) == 2
        key, value = (part.strip() for part in line.split("="))
        err = capsys.readouterr().err
        assert key in err and repr(value) in err

    def test_integral_float_accepted(self, tmp_path):
        cfg = write(tmp_path, "float.cfg", pathlib.Path(DEMO).read_text() + "disc.K = 4.0\ndata.seed = 1e1\n")
        assert main(["validate", cfg, "--quiet"]) == 0


class TestSpecfunCheck:
    def test_identity_suite_passes(self, capsys):
        assert main(["specfun-check", "--quiet"]) == 0
        assert main(["specfun-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def _fresh_python(code: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code, *args], check=True, env=env)


def test_cli_import_leaves_mpmath_out():
    # mpmath is only the reference of specfun-check, and scipy's roots_jacobi
    # and erfc serve only specfun-check; both are imported inside it
    _fresh_python("import sys, fracflux.cli; assert 'mpmath' not in sys.modules and 'scipy' not in sys.modules")


def test_artifact_commands_leave_scipy_out(tmp_path):
    # every command that writes an artifact runs without importing scipy, so
    # that a fresh process does not pay for it
    crime, demo = str(tmp_path / "crime"), str(tmp_path / "demo")
    runs = [["forward", CRIME, "--out", crime], ["invert", CRIME, crime + "/flux.csv", "--out", crime]]
    runs += [[c, DEMO, "--out", demo] for c in ("forward", "residues", "jump-scan", "laplace-scan")]
    code = (
        "import json, sys; from fracflux.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv + ['--quiet']) == 0, argv\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    _fresh_python(code, json.dumps(runs))
