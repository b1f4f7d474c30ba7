import json
import math
import warnings

import pytest

from idepcag.cli import (
    EXIT_CONFIG,
    EXIT_NO_CROSSING,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_SINGULAR,
    build_problem,
    main,
)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return str(path)


def base_config(**overrides):
    cfg = {
        "problem": {
            "a": "-a0",
            "b": "sin(2*pi*t)",
            "params": {"a0": 2.2},
            "grid": {"type": "uniform", "t0": 0, "h": 1, "alpha": 0},
            "impulse": {"type": "multiplier", "C": 1.0},
            "tau": 0.0,
            "z0": 1.0,
            "horizon": 12.0,
        },
        "analysis": {"window": {"burn_in": 2, "width": 8}},
        "output": {"samples_per_interval": 8},
    }
    cfg.update(overrides)
    return cfg


class TestBuildProblem:
    def test_parameters_bind_into_expressions(self):
        cfg = base_config()
        p = build_problem(cfg)
        assert p.a.ev(0.0) == -2.2
        assert p.impulses.factor(3) == 1.0

    def test_parameter_override(self):
        p = build_problem(base_config(), {"a0": 1.5})
        assert p.a.ev(0.0) == -1.5

    def test_lagged_grid_with_history(self):
        cfg = base_config()
        cfg["problem"]["grid"] = {"type": "lagged", "t0": 0, "h": 1, "lag": 1}
        cfg["problem"]["history"] = [1.0]
        p = build_problem(cfg)
        assert p.grid.lagged and p.history == (1.0,)

    def test_impulse_forms(self):
        cfg = base_config()
        cfg["problem"]["impulse"] = {"type": "alternating", "c": 0.5}
        p = build_problem(cfg)
        assert p.impulses.c(0) == 0.5 and p.impulses.c(1) == -0.5
        cfg["problem"]["impulse"] = {"type": "expr", "expr": "0.5*k-1"}
        p = build_problem(cfg)
        assert p.impulses.factor(3) == pytest.approx(1.5)

    def test_explicit_grid_config(self):
        cfg = base_config()
        cfg["problem"]["grid"] = {
            "type": "explicit",
            "knots": [0.0, 0.5, 1.5, 3.0],
            "zetas": [0.2, 1.0, 2.0],
        }
        cfg["problem"]["horizon"] = 2.5
        p = build_problem(cfg)
        assert p.grid.interval_index(0.9) == 1
        assert p.grid.gamma(2.0) == 2.0


class TestSolveCommand:
    def test_csv_deterministic(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", base_config())
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "r1")]) == EXIT_OK
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "r2")]) == EXIT_OK
        b1 = (tmp_path / "r1" / "trajectory.csv").read_bytes()
        b2 = (tmp_path / "r2" / "trajectory.csv").read_bytes()
        assert b1 == b2
        out = capsys.readouterr().out
        assert "knots=" in out and "zeros=" in out

    def test_csv_schema(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", base_config())
        main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,z,interval_k,is_knot,z_left,z_right"
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "1"
        # 12 intervals x 8 samples + final point
        assert len(lines) == 1 + 12 * 8 + 1

    def test_trivial_constant_column(self, tmp_path):
        cfg = base_config()
        cfg["problem"].update({"a": "0", "b": "0", "params": {}})
        cfg["problem"]["impulse"] = {"type": "multiplier", "C": 1.0}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]:
            assert line.split(",")[1] == "1"


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_expression(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["a"] = "sin(2*pi*t"
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_singular_kernel_exit(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"].update({"a": "0", "b": "2", "params": {}})
        cfg["problem"]["grid"]["alpha"] = 0.5
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_SINGULAR
        assert "singular" in capsys.readouterr().err

    def test_overflow_exit_names_interval(self, tmp_path, capsys):
        # exp(int a) passes exp(709) inside the first interval
        cfg = base_config()
        cfg["problem"].update({"a": "800", "b": "0.1", "params": {}, "horizon": 3.0})
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_RANGE
        err = capsys.readouterr().err
        assert "range error" in err and "k=0" in err
        assert "Traceback" not in err

    def test_non_finite_solution_is_refused(self, tmp_path, capsys):
        # e^30 per interval: the knot values leave the float range on k=23
        cfg = base_config()
        cfg["problem"].update({"a": "30", "b": "0.1", "params": {}, "horizon": 30.0})
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_RANGE
        captured = capsys.readouterr()
        assert "range error" in captured.err and "not finite on interval k=23" in captured.err
        assert captured.out == "" and not (out / "trajectory.csv").exists()

    def test_oracle_overflow_exit_names_interval(self, tmp_path, capsys):
        # h a = -15 per RK4 step is far outside the stability region: the
        # oracle leaves the float range on k=0 while the kernel route is fine
        cfg = base_config()
        cfg["problem"].update({"a": "-3000", "b": "0.1", "params": {}, "horizon": 3.0})
        cfg["analysis"].update({"oracle_steps": 200, "check_samples": 3})
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["oracle-check", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == EXIT_RANGE
        err = capsys.readouterr().err
        assert "range error" in err and "not finite on interval k=0" in err
        assert "Traceback" not in err and "Warning" not in err
        assert caught == []

    @pytest.mark.parametrize("command", ["solve", "classify", "oracle-check"])
    @pytest.mark.parametrize("c", [-1.0, -0.9999999999999999])
    def test_singular_impulse_is_refused(self, tmp_path, capsys, command, c):
        # 1 + c_k = 1.1e-16 is not an exact zero, but no more invertible than one
        cfg = base_config()
        cfg["problem"]["impulse"] = {"type": "constant", "c": c}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "k=1" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "classify", "oracle-check"])
    def test_explicit_grid_must_cover_the_horizon(self, command, tmp_path, capsys):
        cfg = base_config()
        grid = {"type": "explicit", "knots": [0, 1, 2, 3], "zetas": [0.5, 1.5, 2.5]}
        cfg["problem"]["grid"] = grid
        cfg["problem"]["horizon"] = 3.0
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "horizon=3.0" in err and "[0.0, 3.0)" in err

    def test_over_deep_expression_is_a_config_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["a"] = "sin(" * 1000 + "t" + ")" * 1000
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, option",
        [("solve", "--window"), ("solve", "--quad-tol"), ("classify", "--tol"),
         ("oracle-check", "--quad-tol"), ("criterion", "--seed"),
         ("criterion", "--quad-tol"), ("sweep", "--quad-tol")],
    )
    def test_subcommand_rejects_options_it_does_not_read(self, tmp_path, command, option):
        cfg_path = write_config(tmp_path / "cfg.json", base_config())
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg_path, "--out", str(tmp_path), option, "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["criterion", "sweep"])
    def test_quadrature_tolerance_key_is_refused(self, tmp_path, capsys, command):
        cfg = base_config()
        cfg["analysis"]["tolerances"] = {"quad_rel_tol": 1e-12}
        cfg["sweep"] = {"parameter": "a0", "lo": 1.5, "hi": 2.5, "steps": 2}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "IDEPCAG_QUAD_TOL" in err and "Traceback" not in err

    def test_criterion_rejects_lagged(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["grid"] = {"type": "lagged", "t0": 0, "h": 1, "lag": 1}
        cfg["problem"]["history"] = [1.0]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["criterion", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG


class TestClassifyCommand:
    def test_oscillatory_verdict(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"].update({"a": "0", "b": "1", "params": {}})
        cfg["problem"]["impulse"] = {"type": "multiplier", "C": -1.0}
        cfg["problem"]["horizon"] = 30.0
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["classify", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: oscillatory" in out
        assert (tmp_path / "classify_report.txt").exists()

    def test_nonoscillatory_with_continuous_refinement(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"].update({"a": "0", "b": "-0.5", "params": {}})
        cfg["problem"]["impulse"] = {"type": "none"}
        cfg["problem"]["horizon"] = 30.0
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        main(["classify", "--config", cfg_path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "verdict: nonoscillatory" in out
        assert "continuous: nonoscillatory" in out

    def test_lagged_classify(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"].update({"a": "-1", "b": "-0.3", "params": {}})
        cfg["problem"]["grid"] = {"type": "lagged", "t0": 0, "h": 1, "lag": 1}
        cfg["problem"]["impulse"] = {"type": "none"}
        cfg["problem"]["history"] = [1.0]
        cfg["problem"]["horizon"] = 50.0
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["classify", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert "verdict: oscillatory" in capsys.readouterr().out


class TestCriterionCommand:
    def test_oscillatory_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", base_config())
        assert main(["criterion", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: oscillatory" in out
        text = (tmp_path / "criterion_report.txt").read_text()
        assert "inf_i_minus" in text and "branch: positive-impulse" in text

    def test_nonoscillatory_report(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["params"] = {"a0": 1.9}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        main(["criterion", "--config", cfg_path, "--out", str(tmp_path)])
        assert "verdict: nonoscillatory" in capsys.readouterr().out

    def test_mixed_impulses_inconclusive(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["impulse"] = {"type": "alternating", "c": 1.5}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        main(["criterion", "--config", cfg_path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "verdict: inconclusive" in out


class TestSweepCommand:
    def test_crossing_located(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"].update({"a": "-p", "b": "-q0", "params": {"p": 1.0, "q0": 0.5}})
        cfg["problem"]["impulse"] = {"type": "none"}
        cfg["sweep"] = {
            "parameter": "q0",
            "lo": 0.3,
            "hi": 0.9,
            "steps": 4,
            "target": {"quantity": "inf_i_minus", "threshold": -1.0},
        }
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "crossing: q0=" in out
        root = float(out.split("crossing: q0=")[1].split(" ")[0])
        assert root == pytest.approx(1.0 / (math.e - 1.0), abs=1e-6)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("parameter,")
        assert len(lines) == 5

    def test_no_crossing_exit(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"].update({"a": "0", "b": "0*q", "params": {"q": 1.0}})
        cfg["problem"]["impulse"] = {"type": "none"}
        cfg["sweep"] = {
            "parameter": "q",
            "lo": 0.0,
            "hi": 1.0,
            "steps": 2,
            "target": {"quantity": "inf_i_minus", "threshold": -1.0},
        }
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_NO_CROSSING
        assert "no crossing" in capsys.readouterr().out

    def test_unknown_parameter(self, tmp_path):
        cfg = base_config()
        cfg["sweep"] = {"parameter": "zzz", "lo": 0, "hi": 1, "steps": 2}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG


class TestOracleCheckCommand:
    def test_agreement_within_tolerance(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["horizon"] = 6.0
        cfg["analysis"]["oracle_steps"] = 2000
        cfg["analysis"]["check_samples"] = 40
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["oracle-check", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max_rel_dev=" in out
        assert (tmp_path / "oracle_check.txt").exists()

    def test_seeded_samples(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["horizon"] = 4.0
        cfg["analysis"]["oracle_steps"] = 1000
        cfg["analysis"]["check_samples"] = 20
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code = main(
            ["oracle-check", "--config", cfg_path, "--out", str(tmp_path), "--seed", "7"]
        )
        assert code == EXIT_OK

    def test_zero_solution_absolute_fallback(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["z0"] = 0.0
        cfg["problem"]["horizon"] = 4.0
        cfg["analysis"]["oracle_steps"] = 500
        cfg["analysis"]["check_samples"] = 10
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["oracle-check", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert "max_rel_dev=0.0" in capsys.readouterr().out


class TestWindowFlag:
    def test_criterion_window_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", base_config())
        assert (
            main(
                ["criterion", "--config", cfg_path, "--out", str(tmp_path), "--window", "3,12"]
            )
            == EXIT_OK
        )
        text = (tmp_path / "criterion_report.txt").read_text()
        assert "window: [3, 15)" in text
