import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idepcag.cli as cli_module
import idepcag.expressions as expressions_module
import idepcag.kernel as kernel_module
from idepcag.cli import (
    EXIT_CONFIG,
    EXIT_NO_CROSSING,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_SINGULAR,
    _affine_rows,
    build_problem,
    main,
)
from idepcag.expressions import Const, Pow, Prod, Sum, Var, affine_split
from idepcag.kernel import KernelTable
from idepcag.oscillation import _extrema
from idepcag.quadrature import QuadratureError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize("command", ["criterion", "sweep"])
    @pytest.mark.parametrize(
        "tol, key",
        [("-1", None), ("nan", None), ("inf", None), (None, -1e-9), (None, math.inf)],
        ids=["negative-flag", "nan-flag", "inf-flag", "negative-key", "inf-key"],
    )
    def test_bad_criterion_tolerance_exits_before_any_work(
        self, tmp_path, capsys, command, tol, key
    ):
        # with --tol -1 a nonoscillatory case read "oscillatory" at a negative margin
        cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
        cfg["problem"]["params"]["a0"] = 1.9
        if key is not None:
            cfg["analysis"]["tolerances"] = {"criterion_tol": key}
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]
        if tol is not None:
            argv.append(f"--tol={tol}")
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "finite and non-negative" in err
        assert not out.exists()

    def test_criterion_rejects_lagged(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["grid"] = {"type": "lagged", "t0": 0, "h": 1, "lag": 1}
        cfg["problem"]["history"] = [1.0]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["criterion", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, section, value",
        [
            ("sweep", "sweep", {"parameter": "q0", "hi": 0.9}),
            ("sweep", "sweep", {"parameter": "q0", "lo": 0.3, "hi": 0.9,
                                "target": {"quantity": "inf_i_minus"}}),
            ("sweep", "sweep", {"parameter": "q0", "lo": 0.3, "hi": 0.9, "target": "inf_i_minus"}),
            ("sweep", "sweep", {"parameter": ["q0"], "lo": 0.3, "hi": 0.9}),
            ("sweep", "sweep", {"parameter": "q0", "lo": 0.3, "hi": 0.9,
                                "target": {"quantity": "sup_q0", "threshold": -1.0}}),
            ("criterion", "analysis", [8, 64]),
            ("sweep", "analysis", [8, 64]),
            ("oracle-check", "analysis", [8, 64]),
            ("solve", "output", {"samples_per_interval": 0}),
            ("solve", "output", {"samples_per_interval": -3}),
            ("oracle-check", "analysis", {"check_samples": -5}),
            ("oracle-check", "analysis", {"check_samples": 0}),
            ("oracle-check", "analysis", {"oracle_steps": 1}),
            ("oracle-check", "analysis", {"check_tol": -1e-6}),
            ("oracle-check", "analysis", {"check_tol": math.nan}),
            ("oracle-check", "analysis", {"check_tol": math.inf}),
        ],
        ids=[
            "sweep-without-lo", "target-without-threshold", "target-as-string",
            "parameter-as-list", "unknown-quantity", "criterion-analysis-as-list",
            "sweep-analysis-as-list", "oracle-check-analysis-as-list", "zero-samples",
            "negative-samples", "negative-check-samples", "zero-check-samples",
            "one-oracle-step", "negative-check-tol", "nan-check-tol", "inf-check-tol",
        ],
    )
    def test_malformed_section_exits_before_any_work(
        self, tmp_path, capsys, command, section, value
    ):
        cfg = json.loads((CONFIGS / "decay_with_floor.json").read_text())
        cfg[section] = value
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()


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


class TestLaggedUnderflow:
    """z stays positive (b > 0, positive data) while |z| underflows past knot
    about 215; the float values then round to 0.0, which must read as
    neither a zero nor a sign change."""

    @pytest.mark.parametrize("horizon", [150.0, 300.0])
    def test_no_false_zeros_or_sign_changes(self, tmp_path, capsys, horizon):
        cfg = base_config()
        cfg["problem"].update({"a": "-10", "b": "0.01", "params": {}, "history": [1.0]})
        cfg["problem"]["grid"] = {"type": "lagged", "t0": 0, "h": 1, "lag": 1}
        cfg["problem"]["impulse"] = {"type": "none"}
        cfg["problem"]["horizon"] = horizon
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["classify", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert "verdict: nonoscillatory" in capsys.readouterr().out
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert " zeros=0 " in capsys.readouterr().out


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

    def test_reversed_bounds_find_the_same_crossing(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
        cfg["sweep"]["lo"], cfg["sweep"]["hi"] = cfg["sweep"]["hi"], cfg["sweep"]["lo"]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert "crossing: a0=2.07553339 " in capsys.readouterr().out

    def test_table_is_reported_before_a_failing_bisection(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise QuadratureError("no convergence")

        monkeypatch.setattr(cli_module, "_window_extrema", fail)
        path = str(CONFIGS / "sine_forcing.json")
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == f"sweep: 5 rows -> {tmp_path / 'sweep.csv'}\n"
        assert "quadrature failure: no convergence" in captured.err
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 6


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

    def test_deviation_does_not_depend_on_the_scale_of_z0(self, tmp_path, capsys):
        # the problem is linear, so z0 = 1e-13 scales both routes alike; an
        # absolute floor would report the deviation scaled by 1e-13 too
        def max_rel_dev(z0):
            cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
            cfg["problem"]["z0"] = z0
            cfg_path = write_config(tmp_path / "cfg.json", cfg)
            assert main(["oracle-check", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
            return float(capsys.readouterr().out.split()[0].split("=")[1])

        unit, tiny = max_rel_dev(1.0), max_rel_dev(1e-13)
        assert unit > 0.0
        assert unit / 2.0 <= tiny <= 2.0 * unit


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


@pytest.fixture
def window_passes(monkeypatch):
    """Arguments of every window pass, that is every KernelTable.criterion call."""
    calls = []
    original = KernelTable.criterion

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(KernelTable, "criterion", counted)
    return calls


class TestWindowPasses:
    def test_criterion_hands_the_extrema_to_the_second_test(self, tmp_path, capsys, window_passes):
        cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
        cfg["problem"]["params"]["a0"] = 1.9
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["criterion", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oscillation: inconclusive" in out and "nonoscillation: nonoscillatory" in out
        assert window_passes == [(8, 48)]

    @pytest.mark.parametrize(
        "name, passes, crossing",
        [
            # a0 is read by a: one pass per row, the end rows give g(lo) and
            # g(hi), then 20 bisection steps down to xtol = 1e-6
            ("sine_forcing.json", 5 + 20, "a0=2.07553339 "),
            # b = -q0 is affine in q0 and no other text reads it: the first
            # row's pass on b(lo) and one on b's coefficient serve every row
            # and step; 0.3 + (0.9 - 0.3)*6/6 is 0.9000000000000001, the last row is hi
            ("decay_with_floor.json", 2, "q0=0.58197699 "),
        ],
    )
    def test_sweep_reads_the_bracket_from_its_end_rows(
        self, tmp_path, capsys, window_passes, name, passes, crossing
    ):
        assert main(["sweep", "--config", str(CONFIGS / name), "--out", str(tmp_path)]) == EXIT_OK
        assert f"crossing: {crossing}" in capsys.readouterr().out
        assert len(window_passes) == passes
        sweep = json.loads((CONFIGS / name).read_text())["sweep"]
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        values = [float(row.split(",")[0]) for row in rows]
        assert (len(values), values[0], values[-1]) == (sweep["steps"], sweep["lo"], sweep["hi"])

    def test_a_bisection_step_integrates_only_the_targeted_side(
        self, tmp_path, capsys, monkeypatch
    ):
        rows = []
        original = kernel_module.flow_weighted_integral

        def counted(a, g, lo, hi, *args):
            rows.append(len(lo))
            return original(a, g, lo, hi, *args)

        monkeypatch.setattr(kernel_module, "flow_weighted_integral", counted)
        path = str(CONFIGS / "sine_forcing.json")
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        assert "crossing: a0=2.07553339 " in capsys.readouterr().out
        # window [8, 48): 5 table rows over both sides, 20 steps over i_minus
        assert rows == [80] * 5 + [40] * 20


class TestAffineSweep:
    @pytest.mark.parametrize(
        "a, b, impulse, crossing",
        [
            # q0 read by a only; -0.6 (e^q - 1)/q = -1 at q = 0.9474049
            ("-q0", "-0.6", None, "q0=0.94740486 "),
            # b affine in q0, but the impulse's C reads it too; q (e - 1) = 1 at q = 0.5819767
            ("-p", "-q0", {"type": "multiplier", "C": "1 + q0/100"}, "q0=0.58197670 "),
            # the same text in a and in b, two readers; -(e^q - 1) = -1 at q = ln 2
            ("-q0", "-q0", None, "q0=0.69314690 "),
            # b reads q0 inside sin
            ("-p", "-q0 - 0.01*sin(q0*t)", None, "q0=0.57211113 "),
        ],
    )
    def test_a_sweep_that_is_not_affine_in_b_alone_passes_every_row_and_step(
        self, tmp_path, capsys, window_passes, a, b, impulse, crossing
    ):
        cfg = json.loads((CONFIGS / "decay_with_floor.json").read_text())
        cfg["problem"].update({"a": a, "b": b})
        if impulse:
            cfg["problem"]["impulse"] = impulse
        cfg["sweep"].update({"lo": 0.4, "hi": 1.2})
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert f"crossing: {crossing}" in capsys.readouterr().out
        # 7 rows over both sides, then 20 one-sided bisection steps down to xtol = 1e-6
        assert [len(args) for args in window_passes] == [2] * 7 + [3] * 20

    def test_combined_rows_match_per_row_passes(self, tmp_path, capsys, window_passes):
        cfg = json.loads((CONFIGS / "decay_with_floor.json").read_text())
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert len(window_passes) == 2
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        for i, row in enumerate(rows):
            v, *extrema, _ = row.split(",")
            problem = build_problem(cfg, {"q0": float(v)})
            direct = _extrema(*KernelTable(problem).criterion(8, 72)[:2])
            assert [float(x) for x in extrema] == pytest.approx(direct, rel=1e-14, abs=0)
            if i == 0:  # the first row is the pass on b(lo) itself
                assert tuple(map(float, extrema)) == direct


# affine texts in q0, each a sum of terms with at most one factor reading q0
_affine_terms = st.sampled_from(
    ["q0", "-q0", "q0*sin(2*pi*t)", "q0*t/3", "(q0 + 1)*cos(t)", "0.5*q0*exp(-t/4)",
     "sin(t)", "-0.7", "b1*cos(3*t)"]
)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.lists(_affine_terms, min_size=1, max_size=4).filter(
        lambda ts: any("q0" in t for t in ts)
    ),
    a=st.sampled_from(["-p", "-p + 0.3*sin(t)"]),
    h=st.floats(0.4, 1.5),
    alpha=st.floats(0.0, 1.0),
    burn_in=st.integers(0, 4),
    width=st.integers(1, 8),
    lo=st.floats(-2.0, 2.0),
    dv=st.floats(-3.0, 3.0),
)
def test_combined_rows_agree_with_a_direct_pass_within_the_error_estimates(
    terms, a, h, alpha, burn_in, width, lo, dv
):
    cfg = {"problem": {
        "a": a, "b": " + ".join(terms), "params": {"p": 0.8, "q0": lo, "b1": 0.3},
        "grid": {"type": "uniform", "t0": 0, "h": h, "alpha": alpha}, "horizon": 20 * h,
    }}
    window = (burn_in, burn_in + width)
    problem = build_problem(cfg)
    rows_at = _affine_rows(cfg, "q0", lo, lo + dv, problem, window)
    assert rows_at is not None
    v = lo + dv
    _, b1 = affine_split(cfg["problem"]["b"], ("t",), cfg["problem"]["params"], "q0")
    u_plus, u_minus, err_u = KernelTable(problem).criterion(*window)
    w_plus, w_minus, err_w = KernelTable(replace(problem, b=b1)).criterion(*window)
    d_plus, d_minus, err_d = KernelTable(build_problem(cfg, {"q0": v})).criterion(*window)
    sides = (("plus", u_plus, w_plus, d_plus), ("minus", u_minus, w_minus, d_minus))
    for side, u, w, direct in sides:
        rows = rows_at(v, side)
        if rows is None:  # the guard sends this value to a direct pass
            continue
        scale = np.abs(u) + abs(v - lo) * np.abs(w) + np.abs(direct)
        bound = err_u + abs(v - lo) * err_w + err_d + 8 * np.finfo(float).eps * scale
        assert np.all(np.abs(rows - direct) <= bound)


def _sweep_config(tmp_path, section, key, value):
    cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
    sweep = cfg["sweep"]
    (sweep["target"] if section == "target" else sweep)[key] = value
    return write_config(tmp_path / "cfg.json", cfg)


class TestSweepTargetNumbers:
    @pytest.mark.parametrize(
        "section, key, value, name",
        [
            ("target", "xtol", math.nan, "sweep.target.xtol"),
            ("target", "xtol", math.inf, "sweep.target.xtol"),
            ("target", "xtol", -1e-6, "sweep.target.xtol"),
            ("target", "threshold", math.nan, "sweep.target.threshold"),
            ("target", "threshold", math.inf, "sweep.target.threshold"),
            ("target", "threshold", -math.inf, "sweep.target.threshold"),
            ("sweep", "lo", math.nan, "sweep.lo"),
            ("sweep", "lo", -math.inf, "sweep.lo"),
            ("sweep", "hi", math.nan, "sweep.hi"),
            ("sweep", "hi", math.inf, "sweep.hi"),
        ],
    )
    def test_non_finite_numbers_are_refused_before_any_window_pass(
        self, tmp_path, capsys, window_passes, section, key, value, name
    ):
        cfg_path = _sweep_config(tmp_path, section, key, value)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {name} must be finite" in captured.err
        assert window_passes == []

    def test_zero_xtol_bisects_to_neighbouring_floats(self, tmp_path, capsys):
        # within the default xtol = 1e-6 of the 2.07553339 found with it
        cfg_path = _sweep_config(tmp_path, "target", "xtol", 0.0)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert "crossing: a0=2.07553385 " in capsys.readouterr().out


class TestNonFiniteInputs:
    @pytest.mark.parametrize("command", ["classify", "solve"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_history_is_refused(self, tmp_path, capsys, command, value):
        cfg = json.loads((CONFIGS / "lagged_unit_delay.json").read_text())
        cfg["problem"]["history"] = [value]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "history[0] must be finite" in captured.err

    @pytest.mark.parametrize("command", ["criterion", "solve"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_impulse_value_is_refused(self, tmp_path, capsys, command, value):
        cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
        cfg["problem"]["impulse"]["C"] = value
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "impulse.C must be finite" in captured.err

    @pytest.mark.parametrize("command", ["criterion", "sweep", "solve", "oracle-check"])
    def test_non_finite_expression_impulse_is_refused(self, tmp_path, capsys, command):
        # c_k = 1e308 k^2 leaves the float range from k = 2 on
        cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
        cfg["problem"].update({"impulse": {"type": "expr", "expr": "1e308*k*k"}, "horizon": 6.0})
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_RANGE
        captured = capsys.readouterr()
        assert "crossing" not in captured.out and "verdict" not in captured.out
        assert "impulse value c_k is not finite at k=" in captured.err

    def test_non_finite_explicit_impulse_is_refused(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["impulse"] = {"type": "explicit", "values": [0.1, math.nan]}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["criterion", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "impulse.values[1] must be finite" in capsys.readouterr().err


class TestSweepParameterIsRead:
    @pytest.mark.parametrize("name", ["zz", "pi", "t"])
    def test_sweep_over_an_unread_parameter_is_refused(
        self, tmp_path, capsys, window_passes, name
    ):
        cfg = json.loads((CONFIGS / "sine_forcing.json").read_text())
        cfg["problem"]["params"][name] = 1.0
        cfg["sweep"]["parameter"] = name
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sweep parameter {name!r} is read by no expression" in captured.err
        assert window_passes == []

    def test_the_index_of_an_impulse_expression_is_not_a_parameter(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["params"]["k"] = 0.1
        cfg["problem"]["impulse"] = {"type": "expr", "expr": "0.1*k"}
        cfg["sweep"] = {"parameter": "k", "lo": 0.0, "hi": 1.0, "steps": 2}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "sweep parameter 'k' is read by no expression" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "impulse",
        [{"type": "expr", "expr": "c1*k"}, {"type": "constant", "c": "c1/2"}],
    )
    def test_a_parameter_read_by_the_impulse_rule_is_swept(self, tmp_path, capsys, impulse):
        cfg = base_config()
        cfg["problem"]["params"]["c1"] = 0.1
        cfg["problem"]["impulse"] = impulse
        cfg["sweep"] = {"parameter": "c1", "lo": 0.0, "hi": 0.2, "steps": 2}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        assert "sweep: 2 rows" in capsys.readouterr().out


@pytest.fixture
def cold_caches():
    """Empty the pre-parse and shape caches, so a test sees every first use."""
    expressions_module._preparse.cache_clear()
    expressions_module._shape_code.cache_clear()


def _tree_shape(node):
    """Node types, exponents and variable names of a tree, no constant values."""
    if isinstance(node, Const):
        return Const
    if isinstance(node, Var):
        return node.name
    if isinstance(node, (Sum, Prod)):
        return (type(node), *map(_tree_shape, node.children))
    if isinstance(node, Pow):
        return (Pow, _tree_shape(node.base), node.exponent)
    return (type(node), _tree_shape(node.child))


class TestTextReuse:
    def test_a_sweep_tokenizes_each_text_once(self, tmp_path, capsys, monkeypatch, cold_caches):
        texts = []
        original = expressions_module._tokenize

        def spy(text):
            texts.append(text)
            return original(text)

        monkeypatch.setattr(expressions_module, "_tokenize", spy)
        path = str(CONFIGS / "sine_forcing.json")
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        # a, b and the impulse's C, over 5 rows and 20 bisection steps
        assert sorted(texts) == ["-a0", "C", "sin(2*pi*t)"]

    def test_a_sweep_compiles_each_tree_shape_once(
        self, tmp_path, capsys, monkeypatch, cold_caches
    ):
        nodes, codes = [], []
        original = expressions_module._compile

        def spy_node(node):
            nodes.append(node)
            return original(node)

        def spy_compile(*args):
            codes.append(args[0])
            return compile(*args)

        monkeypatch.setattr(expressions_module, "_compile", spy_node)
        monkeypatch.setattr(expressions_module, "compile", spy_compile, raising=False)
        path = str(CONFIGS / "sine_forcing.json")
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        shapes = {_tree_shape(node) for node in nodes}
        assert len(nodes) > 25 and len(codes) == len(shapes)
