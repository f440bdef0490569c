import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
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
        # determinants, zero half-widths and eigenfunctions share one Taylor
        # stepper, numcore.find_roots refines every root, and a constant wall
        # needs neither
        probe = ("import sys; from reglab import criteria, pdesim, spectral; "
                 "spectral.branch_trace((3.9, 4.3)); spectral.top_eigenvalue(4.0); "
                 "spectral.interval_spectrum(spectral.IntervalEigenProblem(4.0)); "
                 "pdesim.simulate(pdesim.SimConfig('biharmonic', criteria.Constant(4.0), "
                 "tau_span=(0.0, 5.0), dt=0.05)); "
                 "print(*(f'scipy.{p}' in sys.modules for p in ('integrate', 'optimize')))")
        assert self.fresh(probe) == ["False", "False"]

    def test_beam_kernel_loads_neither_optimize_nor_integrate(self):
        # the beam kernel and both far forms are closed-form
        probe = ("import os, sys; from reglab import cli; "
                 "cli.main(['kernel', '--family', 'beam4', '--range', '0:40:1', '--out', os.devnull]); "
                 "print(*(f'scipy.{p}' in sys.modules for p in ('integrate', 'optimize')))")
        assert self.fresh(probe) == ["False", "False"]

    def test_layers_load_no_scipy_integrate(self):
        # the linear layers are one numpy solve on Chebyshev coefficients, and
        # the cubic pme4 layer Newton's method on values at Chebyshev points
        probe = ("import sys; from reglab import blayer; "
                 "[blayer.solve_bl_bvp(f) for f in ('biharmonic', 'dispersion3', 'pme4')]; "
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

    def test_samples_never_pass_the_end_of_the_range(self, tmp_path):
        # arange would give 0, 0.4, 0.8 and 1.2; the end 1.1 is read instead
        code, text = run_cli(tmp_path, "kernel", "--family", "heat", "--range", "0:1.1:0.4",
                             "--json")
        ys = [row[0] for row in json.loads(text)["rows"]]
        assert code == 0 and ys == pytest.approx([0.0, 0.4, 0.8, 1.1], abs=1e-15)
        assert ys[-1] == 1.1

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

    @pytest.mark.parametrize("family", ["heat", "biharmonic", "dispersion3", "beam4"])
    def test_json_output_is_strict(self, tmp_path, family):
        # the asymptotic column is nan at |y| < 1 (and on the dispersion left
        # side); bare NaN tokens are not JSON, so --json writes null there
        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, text = run_cli(tmp_path, "kernel", "--family", family, "--range=-3:3:0.5", "--json")
        data = json.loads(text, parse_constant=refuse)
        assert code == 0 and data["rows"][6][2] is None and data["rows"][6][3] is None
        assert all(isinstance(v, float) for v in data["header"].values() if not isinstance(v, str))

    def test_bad_range_exits_nonzero(self):
        # argparse raises SystemExit for flag-validation failures
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["kernel", "--range", "nonsense"])
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["kernel", "--range", "5:1:0.1"])


class TestRangeFlags:
    # numpy used to fail on these inside the command, with "arange: cannot
    # compute length" or "Maximum allowed size exceeded"
    @pytest.mark.parametrize("argv", [["kernel", "--range", "0:nan:0.5"],
                                      ["kernel", "--range", "0:1:nan"],
                                      ["spectrum", "--l-range", "1:inf:0.5"]])
    def test_non_finite_range_exits_two_naming_it(self, tmp_path, capsys, argv):
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()
        assert f"range {argv[-1]!r} needs a finite start, stop and step" in capsys.readouterr().err

    def test_non_finite_config_range_exits_two(self, tmp_path, capsys):
        # a bad range string in a config file used to escape as a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"range": "0:nan:0.5"}))
        with pytest.raises(SystemExit) as info:
            cli.main(["kernel", "--range", "0:1:0.5", "--config", str(cfg)])
        assert info.value.code == 2
        assert "range '0:nan:0.5' needs a finite" in capsys.readouterr().err


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

    def test_branch_reads_the_end_of_its_range(self, tmp_path):
        code, text = run_cli(tmp_path, "branch", "--range", "4.0:4.3:1", "--json")
        table = json.loads(text)
        assert code == 0 and [row[0] for row in table["rows"]] == [4.0, 4.3]
        assert table["header"]["roots"] == [pytest.approx(4.0775, abs=1e-3)]

    def test_l_range_reads_the_end_of_its_range(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--l-range", "1:1.7:0.5", "--json")
        assert code == 0 and [row[0] for row in json.loads(text)["rows"]] == [1.0, 1.5, 1.7]

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

    SELECTORS = {"--l": "4", "--l-range": "1:2:1", "--branch": "3.9:4.3:0.05",
                 "--reproduce": "table1"}

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize("first, second", itertools.combinations(SELECTORS, 2))
    def test_two_selectors_exit_two(self, tmp_path, capsys, first, second, from_config):
        # --l 4 --l-range 1:2:1 used to print rows for l = 1 and 2 alone
        argv = ["spectrum", first, self.SELECTORS[first], second, self.SELECTORS[second]]
        if from_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({second[2:].replace("-", "_"): self.SELECTORS[second]}))
            argv[3:] = ["--config", str(cfg)]
        out = tmp_path / "x.txt"
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.endswith(f"not {first} and {second}\n") and err.count("\n") == 1

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

    @pytest.mark.parametrize("size", ["3", "0", "-1"])
    def test_bad_grid_size_is_one_line_exit_two(self, tmp_path, capsys, size):
        # grid size 3 used to print a plausible lambda_0 and 0 "Singular matrix"
        out = tmp_path / "x.txt"
        code = cli.main(["spectrum", "--l", "2", "--method", "collocation", "--grid-size", size,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err == f"spectrum: grid_size must be an integer of at least 16 (8m), got {size}\n"

    def test_non_integer_config_grid_size_is_one_line_exit_two(self, tmp_path, capsys):
        # a float grid size used to end in a TypeError traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l": 2, "method": "collocation", "grid_size": 2.5}))
        out = tmp_path / "x.txt"
        code = cli.main(["spectrum", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("spectrum: grid_size must be an integer") and err.count("\n") == 1

    def test_numerics_error_is_one_line_exit_two(self, tmp_path, capsys, monkeypatch):
        def failing(l, *args, **kwargs):
            raise OdeError("shooting failed at lambda=-0.1: step size underflow", np.float64(0.5))

        monkeypatch.setattr(spectral, "top_eigenvalue", failing)
        code = cli.main(["spectrum", "--l", "4", "--out", str(tmp_path / "x.txt")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("spectrum: shooting failed") and err.count("\n") == 1
        assert err.endswith("(last abscissa 0.5)\n")


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

    def test_no_closed_form_is_one_line_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = cli.main(["blayer", "--family", "pme4", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "blayer: no closed form for pme4; use --solver bvp\n"

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
                             "--side", "right", "--phi", "powertau:C=1,g=1.5")
        assert json.loads(text)["verdict"] == "irregular-nonsingular"

    def test_dispersion_right_steep_log_power_is_one_line_exit_two(self, tmp_path, capsys):
        # (ln tau)^2 used to be read as tau^2 and reported irregular-nonsingular;
        # its own window sums cannot be certified
        out = tmp_path / "x.txt"
        code = cli.main(["criterion", "--family", "dispersion3", "--side", "right",
                         "--phi", "powerlog:C=1,g=2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert err.startswith("criterion: ") and err.count("\n") == 1

    def test_quadrature_error_line_prints_plain_floats(self, tmp_path, capsys):
        # the estimate and bound are numpy floats, whose repr reads
        # np.float64(5.64...e+53)
        code = cli.main(["criterion", "--family", "dispersion3", "--phi", "powerlog:C=1,g=2",
                         "--out", str(tmp_path / "x.txt")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "(best estimate 5." in err and "np." not in err

    def test_cut_off_constant_reads_its_cut_value(self, tmp_path):
        # the cut wall is 7.7125, not 5: it used to report l = 5, irregular-singular
        code, text = run_cli(tmp_path, "criterion", "--family", "biharmonic",
                             "--phi", "const:5", "--cutoff")
        data = json.loads(text)
        assert code == 0 and data["verdict"] == "regular"
        assert data["diagnostics"]["l"] == pytest.approx(7.7125, abs=1e-4)
        assert data["diagnostics"]["lambda0"] < 0.0

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

    @pytest.mark.parametrize("spec", ["sqrtlog:C=1,C=2.5", "powerlog:C=1,g=0.5,c=2",
                                      "const:l=4,l=5"])
    def test_repeated_boundary_key_is_one_line_exit_two(self, tmp_path, capsys, spec):
        # sqrtlog:C=1,C=2.5 used to run PetrovskiiSqrtLog(C=2.5)
        out = tmp_path / "x.txt"
        code = cli.main(["criterion", "--family", "heat", "--phi", spec, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert "given twice" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("family", ["biharmonic", "heat"])
    @pytest.mark.parametrize("gamma", ["-200", "200"])
    @pytest.mark.parametrize("dt", [[], ["--dt", "0.02"]], ids=["auto-dt", "dt"])
    def test_wall_without_a_step_matrix_is_one_line_exit_two(self, tmp_path, capsys,
                                                             family, gamma, dt):
        # tau^-200 and tau^200 leave the float range at once: these ended in
        # a ZeroDivisionError or OverflowError traceback with exit 1
        out = tmp_path / "x.txt"
        code = cli.main(["simulate", "--family", family, "--phi", f"powertau:C=1,g={gamma}",
                         "--tau-end", "10", "--n", "64", *dt, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        tau = "2.71828" if not dt else "2.73828"
        assert err.startswith(f"simulate: boundary is outside (") and err.count("\n") == 1
        assert f" at tau={tau}: phi=" in err


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

    # the least each command needs on its command line
    REQUIRED = {"kernel": ["--range", "0:1:0.5"], "spectrum": [], "branch": ["--range", "4:5:1"],
                "blayer": [], "criterion": ["--family", "heat", "--phi", "sqrtlog:C=2"],
                "simulate": [], "reproduce": ["table1"]}

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_every_flag_is_a_config_key(self, tmp_path, command):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.REQUIRED)
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "config"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(dests)))
        args = parser.parse_args([command, *self.REQUIRED[command], "--config", str(cfg)])
        args = cli._apply_config(args, parser)
        assert all(getattr(args, dest) is None for dest in dests)

    @pytest.mark.parametrize("argv, config", [
        (["kernel", "--family", "heat", "--range", "0:1:0.5"], {"tol": "1e-8", "m": "1"}),
        (["simulate", "--family", "heat", "--n", "64", "--tau-end", "20"], {"dt": "0.05"}),
        (["spectrum"], {"l": "2", "grid_size": "64"}),
    ], ids=["kernel", "simulate", "spectrum"])
    def test_string_values_take_their_flag_type(self, tmp_path, argv, config):
        # a string used to reach the command as it was: "1e-8" ended in a TypeError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, text = run_cli(tmp_path, *argv, "--config", str(cfg))
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in config.items()]
        assert code == 0 and text == run_cli(tmp_path, *argv, *flags)[1]

    @pytest.mark.parametrize("config, message", [
        ({"tol": "abc"}, "kernel: config key 'tol': could not convert string to float: 'abc'"),
        ({"m": "2.5"}, "kernel: config key 'm': invalid literal for int() with base 10: '2.5'"),
    ], ids=["tol", "m"])
    def test_unconvertible_value_exits_two_naming_the_key(self, tmp_path, capsys, config,
                                                           message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as info:
            cli.main(["kernel", "--range", "0:1:0.5", "--config", str(cfg), "--out", str(out)])
        assert info.value.code == 2 and not out.exists()
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("argv, config, message", [
        (["spectrum"], {"method": "bogus", "l": 2},
         "spectrum: config key 'method': 'bogus' is not one of shooting, collocation"),
        (["kernel", "--range", "0:1:0.5"], {"family": "bogus"},
         "kernel: config key 'family': 'bogus' is not one of parabolic, heat, biharmonic, "
         "dispersion3, beam4"),
    ], ids=["spectrum", "kernel"])
    def test_value_outside_choices_exits_two_naming_the_key(self, tmp_path, capsys, argv,
                                                             config, message):
        # a bad method used to run as shooting, with "bogus" in the header and rows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--config", str(cfg), "--out", str(out)])
        assert info.value.code == 2 and not out.exists()
        assert capsys.readouterr().err == message + "\n"

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
