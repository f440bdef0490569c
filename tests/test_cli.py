import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import reglab
from reglab import blayer, cli, criteria, kernels, spectral
from reglab.numcore import BvpError, OdeError


def run_cli(tmp_path, *argv):
    out = tmp_path / "artifact.txt"
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text()


class TestImportFootprint:
    @staticmethod
    def fresh(probe):
        src = os.path.dirname(os.path.dirname(reglab.__file__))
        return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=os.environ | {"PYTHONPATH": src}, check=True).stdout.split()

    def test_fresh_import_loads_no_scipy_subpackage(self):
        # each layer reads scipy.<subpackage> at its call sites, so scipy
        # imports a subpackage on first use, not when reglab is imported
        probe = ("import sys, reglab.cli; print(*sorted({m.split('.')[1] for m in sys.modules "
                 "if m.startswith('scipy.')} & {'integrate', 'optimize', 'special', 'linalg', "
                 "'sparse'}))")
        assert self.fresh(probe) == []

    def test_shooting_loads_no_scipy_integrate(self):
        # determinants, zero half-widths and eigenfunctions share one Taylor stepper
        probe = ("import sys; from reglab import spectral; spectral.branch_trace((3.9, 4.3)); "
                 "spectral.interval_spectrum(spectral.IntervalEigenProblem(4.0)); "
                 "print('scipy.integrate' in sys.modules)")
        assert self.fresh(probe) == ["False"]


class TestKernelCommand:
    def test_row_count_and_header(self, tmp_path):
        code, text = run_cli(tmp_path, "kernel", "--family", "parabolic", "--m", "2",
                             "--range", "0:10:0.05")
        assert code == 0
        lines = text.strip().split("\n")
        header = json.loads(lines[0][2:])
        assert header["d0"] == pytest.approx(0.23623, abs=1e-5)
        assert lines[1] == "y,F,asymptotic,abs_diff"
        assert len(lines) - 2 == 201

    def test_heat_asymptotic_form_matches_the_kernel(self, tmp_path):
        code, text = run_cli(tmp_path, "kernel", "--family", "heat", "--range=-6:6:2")
        rows = [line.split(",") for line in text.strip().split("\n")[2:]]
        diffs = {float(y): float(d) for y, _, _, d in rows if y != "0"}
        assert code == 0 and sorted(diffs) == [-6.0, -4.0, -2.0, 2.0, 4.0, 6.0]
        assert max(diffs.values()) <= 1e-15

    def test_dispersion_header_constant(self, tmp_path):
        code, text = run_cli(tmp_path, "kernel", "--family", "dispersion3",
                             "--range", "0:5:0.5")
        header = json.loads(text.split("\n")[0][2:])
        assert header["d0"] == pytest.approx(0.38490, abs=1e-5)

    @pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
    def test_bad_tolerance_is_an_error(self, tmp_path, capsys, tol):
        out = tmp_path / "x.txt"
        code = cli.main(["kernel", "--family", "beam4", "--range", "0:1:0.5", f"--tol={tol}",
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("kernel: tol must be positive and finite")

    def test_dispersion_asymptotic_column_is_right_side_only(self, tmp_path):
        code, text = run_cli(tmp_path, "kernel", "--family", "dispersion3", "--range=-6:6:2")
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in text.strip().split("\n")[2:]]
        for y, _, asym, diff in rows:
            if y < 0:
                assert math.isnan(asym) and math.isnan(diff)
            elif y >= 1:
                assert math.isfinite(asym)

    def test_bad_range_exits_nonzero(self):
        # argparse raises SystemExit for flag-validation failures
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["kernel", "--range", "nonsense"])
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["kernel", "--range", "5:1:0.1"])


class TestSpectrumCommand:
    def test_single_width(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--l", "1")
        assert code == 0
        row = text.strip().split("\n")[-1].split(",")
        assert float(row[1]) == pytest.approx(-31.16, abs=0.05)

    def test_near_root_width(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--l", "4.0775")
        row = text.strip().split("\n")[-1].split(",")
        assert abs(float(row[1])) <= 3e-4

    def test_branch_with_roots(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--branch", "3.9:4.3:0.05")
        header = json.loads(text.split("\n")[0][2:])
        assert header["roots"][0] == pytest.approx(4.0775, abs=3e-3)

    def test_branch_command_header_carries_roots(self, tmp_path):
        code, text = run_cli(tmp_path, "branch", "--range", "3.9:4.3:0.05", "--json")
        header = json.loads(text)["header"]
        assert code == 0 and header["method"] == "shooting"
        assert header["roots"] == [pytest.approx(4.0775, abs=3e-3)]

    def test_branch_header_names_the_route_that_ran(self, tmp_path):
        # branch_trace always shoots, so --method collocation must not show
        code, text = run_cli(tmp_path, "spectrum", "--branch", "3.9:4.0:0.05",
                             "--method", "collocation")
        header = json.loads(text.split("\n")[0][2:])
        assert code == 0 and header["method"] == "shooting"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--branch", "3.9:4.3:0.05", "--roots"],
        ["branch", "--range", "3.9:4.3:0.05", "--method", "shooting"],
        ["branch", "--range", "3.9:4.3:0.05", "--grid-size", "96"],
    ])
    def test_removed_flags_exit_two(self, tmp_path, argv):
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", ["method", "grid_size"])
    def test_removed_branch_config_keys_exit_two(self, tmp_path, key):
        config = tmp_path / "branch.json"
        config.write_text(json.dumps({"range": "3.9:4.3:0.05", key: "shooting"}))
        with pytest.raises(SystemExit) as info:
            cli.main(["branch", "--range", "3.9:4.3:0.05", "--config", str(config)])
        assert info.value.code == 2

    def test_missing_selection_is_an_error(self, tmp_path):
        out = tmp_path / "x.txt"
        code = cli.main(["spectrum", "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("l", ["-1", "0", "nan", "inf"])
    def test_invalid_half_length_is_an_error(self, tmp_path, capsys, l):
        out = tmp_path / "x.txt"
        code = cli.main(["spectrum", "--l", l, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "half-length" in capsys.readouterr().err

    def test_numerics_error_is_one_line_exit_two(self, tmp_path, capsys, monkeypatch):
        def failing(l, *args, **kwargs):
            raise OdeError("shooting failed at lambda=-0.1: step size underflow", 0.0)

        monkeypatch.setattr(spectral, "top_eigenvalue", failing)
        code = cli.main(["spectrum", "--l", "4", "--out", str(tmp_path / "x.txt")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("spectrum: shooting failed") and err.count("\n") == 1


class TestBlayerCommand:
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_bad_tolerance_is_one_line_exit_two(self, tmp_path, capsys, tol):
        out = tmp_path / "x.txt"
        code = cli.main(["blayer", "--family", "biharmonic", "--solver", "bvp", f"--tol={tol}",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert err.startswith("blayer: tol must be positive and finite") and err.count("\n") == 1

    @pytest.mark.parametrize("solver", ["closed", "bvp"])
    @pytest.mark.parametrize("length", ["nan", "0"])
    def test_bad_length_is_one_line_exit_two(self, tmp_path, capsys, solver, length):
        # the closed-form route used to print a profile of nan or of zeros
        out = tmp_path / "x.txt"
        code = cli.main(["blayer", "--family", "biharmonic", "--solver", solver,
                         f"--length={length}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert "must be positive and finite" in err and err.count("\n") == 1

    def test_failed_solve_is_one_line_exit_two(self, tmp_path, capsys, monkeypatch):
        def failing(family, *args, **kwargs):
            raise BvpError(f"layer BVP for {family} did not converge: node limit")

        monkeypatch.setattr(blayer, "solve_bl_bvp", failing)
        code = cli.main(["blayer", "--family", "pme4", "--solver", "bvp",
                         "--out", str(tmp_path / "x.txt")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("blayer: layer BVP for pme4 did not converge") and err.count("\n") == 1


class TestCriterionCommand:
    def test_critical_family_with_cutoff(self, tmp_path):
        code, text = run_cli(tmp_path, "criterion", "--family", "biharmonic",
                             "--phi", "powerlog:C=2.9511,g=0.75", "--cutoff")
        data = json.loads(text)
        assert code == 0
        assert data["verdict"] == "regular"
        assert data["threshold_constant"] == pytest.approx(2.95115, abs=1e-4)

    def test_heat_above_threshold(self, tmp_path):
        code, text = run_cli(tmp_path, "criterion", "--family", "heat",
                             "--phi", "sqrtlog:C=2.2")
        assert json.loads(text)["verdict"] == "irregular-nonsingular"

    def test_dispersion_right_steep(self, tmp_path):
        code, text = run_cli(tmp_path, "criterion", "--family", "dispersion3",
                             "--side", "right", "--phi", "powerlog:C=1,g=1.5")
        assert json.loads(text)["verdict"] == "irregular-nonsingular"

    def test_indeterminate_still_exit_zero(self, tmp_path):
        code, text = run_cli(tmp_path, "criterion", "--family", "biharmonic",
                             "--phi", "powerlog:C=2.5,g=0.75")
        assert code == 0
        assert json.loads(text)["verdict"] == "indeterminate"


    def test_cutoff_follows_the_side(self, tmp_path):
        # the left kernel does not oscillate: --cutoff leaves the boundary as it is
        code, text = run_cli(tmp_path, "criterion", "--family", "dispersion3", "--side", "left",
                             "--phi", "powerlog:C=2.9511,g=0.75", "--cutoff")
        data = json.loads(text)
        assert code == 0
        assert data["boundary"] == "PowerLog(C=2.9511, gamma=0.75)"
        assert data["cutoff"] is False

    def test_cutoff_reports_what_was_applied(self, tmp_path):
        code, text = run_cli(tmp_path, "criterion", "--family", "heat",
                             "--phi", "sqrtlog:C=2.2", "--cutoff")
        data = json.loads(text)
        assert code == 0 and data["cutoff"] is False
        code, text = run_cli(tmp_path, "criterion", "--family", "dispersion3",
                             "--phi", "powertau:C=1,g=1.3", "--cutoff")
        data = json.loads(text)
        assert data["cutoff"] is True and data["boundary"].startswith("Cutoff(")

    @pytest.mark.parametrize("eps", ["nan", "0", "-1"])
    def test_bad_cutoff_window_is_one_line_exit_two(self, tmp_path, capsys, eps):
        # these used to print "verdict": "regular" and exit 0
        out = tmp_path / "x.txt"
        code = cli.main(["criterion", "--family", "biharmonic", "--phi", "powerlog:C=2,g=0.75",
                         "--cutoff", f"--eps-s={eps}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert err.startswith("criterion: cut-off window eps_s must be positive and finite")
        assert err.count("\n") == 1

    def test_unknown_boundary_key_is_one_line_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = cli.main(["criterion", "--family", "biharmonic",
                         "--phi", "powerlog:C=2.9,g=0.75,x=1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert "unknown key 'x'" in err and err.count("\n") == 1

    def test_constant_boundary_takes_its_key(self, tmp_path):
        assert cli._parse_phi("const:l=4").describe() == cli._parse_phi("const:4").describe()
        code, text = run_cli(tmp_path, "criterion", "--family", "biharmonic", "--phi", "const:l=4")
        assert code == 0 and json.loads(text)["boundary"] == criteria.Constant(4.0).describe()

    def test_unsupported_spectral_delegation_is_one_line_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = cli.main(["criterion", "--family", "polyharmonic", "--m", "3",
                         "--phi", "const:4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert err == "criterion: spectral delegation is wired for the fourth-order case\n"


    def test_polyharmonic_threshold_is_the_classifier_rule(self, tmp_path):
        code, text = run_cli(tmp_path, "criterion", "--family", "polyharmonic", "--m", "3",
                             "--phi", "powerlog:C=4.3,g=0.8333333333333334")
        data = json.loads(text)
        assert code == 0 and data["verdict"] == "irregular-nonsingular"
        assert data["threshold_constant"] == criteria.threshold(kernels.parabolic(3))


class TestRecordCommands:
    @pytest.mark.parametrize("argv", [
        ["criterion", "--family", "dispersion3", "--side", "left",
         "--phi", "powerlog:C=1.8,g=0.6666666666666666"],
        ["criterion", "--family", "biharmonic", "--phi", "powerlog:C=2.9511,g=0.75",
         "--cutoff"],
        ["reproduce", "critical-constants"],
    ])
    def test_json_flag_changes_no_byte(self, capsys, argv):
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        assert cli.main([*argv, "--json"]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["command"] == argv[0]


class TestWarningFilters:
    def test_main_leaves_the_global_filters_alone(self, tmp_path):
        before = list(warnings.filters)
        code, _ = run_cli(tmp_path, "criterion", "--family", "heat", "--phi", "sqrtlog:C=2.2")
        assert code == 0
        assert warnings.filters == before


class TestSimulateCommand:
    def test_decay_run(self, tmp_path):
        code, text = run_cli(tmp_path, "simulate", "--family", "biharmonic",
                             "--phi", "const:4", "--tau-end", "120", "--dt", "0.05")
        header = json.loads(text.split("\n")[0][2:])
        assert code == 0
        assert header["sigma_fit"] < 0.0

    def test_determinism(self, tmp_path):
        argv = ["simulate", "--family", "biharmonic", "--phi", "const:3",
                "--tau-end", "10", "--dt", "0.05", "--initial", "random-smooth",
                "--seed", "11"]
        _, first = run_cli(tmp_path, *argv)
        _, second = run_cli(tmp_path, *argv)
        assert first == second

    def test_negative_seed_is_one_line_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = cli.main(["simulate", "--family", "heat", "--phi", "const:2", "--tau-end", "1",
                         "--initial", "random-smooth", "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert err == "simulate: seed must be a non-negative integer, got -1\n"


class TestReproduceCommand:
    def test_critical_constants(self, tmp_path):
        code, text = run_cli(tmp_path, "reproduce", "critical-constants")
        data = json.loads(text)
        assert code == 0
        assert float(data["biharmonic_c_star"]) == pytest.approx(
            float(data["closed_form_identity"]), rel=1e-12)

    def test_petrovskii_heat_sweep(self, tmp_path):
        code, text = run_cli(tmp_path, "reproduce", "petrovskii-heat")
        data = json.loads(text)
        assert data["sweep"]["C=2.0"] == "regular"
        assert data["sweep"]["C=2.2"] == "irregular-nonsingular"


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "spectrum", "l": 2.0}))
        out = tmp_path / "out.csv"
        code = cli.main(["spectrum", "--l", "1", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().split("\n")[-1].split(",")
        assert float(row[0]) == 2.0
        assert float(row[1]) == pytest.approx(-1.83, abs=0.02)

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "spectrum", "l": 2.0, "bogus": 1}))
        with pytest.raises(SystemExit):
            cli.main(["spectrum", "--config", str(cfg)])

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "kernel"}))
        with pytest.raises(SystemExit):
            cli.main(["spectrum", "--l", "1", "--config", str(cfg)])


class TestJsonMode:
    def test_json_artifact(self, tmp_path):
        out = tmp_path / "a.json"
        code = cli.main(["spectrum", "--l", "3", "--json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert code == 0
        assert data["rows"][0][1] == pytest.approx(-0.2647, abs=5e-3)
