import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import idepcag.quadrature as quadrature_module
from idepcag.cli import EXIT_CONFIG, build_problem, main
from idepcag.kernel import KernelTable
from idepcag.oscillation import GronwallBound
from idepcag.quadrature import QuadratureError, default_rel_tol, integrate

SINE_FORCING = Path(__file__).resolve().parent.parent / "configs" / "sine_forcing.json"


class TestClosedForms:
    def test_constant(self):
        value, err = integrate(lambda s: 1.0, 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_exponential(self):
        value, _ = integrate(lambda s: math.exp(s), 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_full_period_sine(self):
        value, _ = integrate(lambda s: math.sin(2 * math.pi * s), 0.0, 1.0)
        assert abs(value) < 1e-10

    def test_polynomial(self):
        value, _ = integrate(lambda s: 5 * s**4 - 3 * s**2, -1.0, 2.0)
        # antiderivative s^5 - s^3
        assert value == pytest.approx((32 - 8) - (-1 + 1), rel=1e-12)

    def test_needs_refinement(self):
        value, _ = integrate(lambda s: math.sin(40.0 * s), 0.0, 3.0, rel_tol=1e-12)
        exact = (1.0 - math.cos(120.0)) / 40.0
        assert value == pytest.approx(exact, rel=1e-9, abs=1e-12)


class TestContract:
    def test_empty_interval(self):
        assert integrate(lambda s: 7.0, 2.0, 2.0) == (0.0, 0.0)

    def test_antisymmetric_swap(self):
        fwd, _ = integrate(lambda s: s**2, 0.0, 1.0)
        bwd, _ = integrate(lambda s: s**2, 1.0, 0.0)
        assert bwd == -fwd

    def test_error_estimate_returned(self):
        value, err = integrate(lambda s: math.cos(s), 0.0, 2.0)
        assert err >= 0.0
        assert abs(value - math.sin(2.0)) <= max(1e-10 * abs(value), 1e-10)

    def test_tolerance_respected(self):
        for tol in (1e-6, 1e-10, 1e-12):
            value, err = integrate(lambda s: math.exp(-s) * math.sin(3 * s), 0.0, 4.0, rel_tol=tol)
            exact = (3.0 - math.exp(-4.0) * (math.sin(12.0) * 1 + 3 * math.cos(12.0))) / 10.0
            assert abs(value - exact) <= 10 * max(tol * abs(value), tol)

    def test_nonconvergence_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as info:
            integrate(lambda s: math.sin(50 * s), 0.0, 10.0, rel_tol=1e-14, max_panels=2)
        assert math.isfinite(info.value.value)
        assert info.value.err > 0

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            integrate(lambda s: 1.0 / s, 0.0, 1.0)

    def test_determinism(self):
        f = lambda s: math.exp(-(s**2)) * math.cos(5 * s)
        first = integrate(f, -1.0, 3.0)
        for _ in range(3):
            assert integrate(f, -1.0, 3.0) == first

    def test_env_override(self, monkeypatch):
        assert default_rel_tol() == 1e-10
        monkeypatch.setenv("IDEPCAG_QUAD_TOL", "1e-6")
        assert default_rel_tol() == 1e-6


class TestOneToleranceSetting:
    """IDEPCAG_QUAD_TOL reaches every adaptive quadrature: 1e-30 cannot be met."""

    @pytest.fixture(autouse=True)
    def unreachable_tolerance(self, monkeypatch):
        monkeypatch.setenv("IDEPCAG_QUAD_TOL", "1e-30")

    def test_criterion_command(self, tmp_path, capsys):
        code = main(["criterion", "--config", str(SINE_FORCING), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "quadrature failure" in capsys.readouterr().err

    def test_envelope(self):
        problem = build_problem(json.loads(SINE_FORCING.read_text()))
        with pytest.raises(QuadratureError):
            GronwallBound(problem)

    def test_kernel_criterion(self):
        problem = build_problem(json.loads(SINE_FORCING.read_text()))
        with pytest.raises(QuadratureError):
            KernelTable(problem).criterion(0, 3)


class TestRowPassRefinement:
    """Only rows that miss their target on the first panel are refined, in
    groups of at most 64."""

    @pytest.fixture
    def groups(self, monkeypatch):
        """The row count of each _refine call."""
        sizes = []
        refine = quadrature_module._refine

        def spy(f, rows, *args):
            sizes.append(rows.size)
            return refine(f, rows, *args)

        monkeypatch.setattr(quadrature_module, "_refine", spy)
        return sizes

    def test_rows_that_converge_on_their_first_panel_are_not_refined(self, groups):
        lo, hi = np.linspace(-2.0, 3.0, 200), np.linspace(0.0, 6.0, 200)
        value, _ = integrate(lambda s: 1.0 - s * s, lo, hi)  # GK15 is exact on a quadratic
        assert groups == []
        assert value == pytest.approx(hi - hi**3 / 3 - (lo - lo**3 / 3), rel=1e-13, abs=1e-13)

    def test_failing_rows_are_refined_in_groups_of_at_most_64(self, groups):
        # 150 long rows miss their target on one panel; 50 short ones meet it
        lo = np.zeros(200)
        hi = np.where(np.arange(200) % 4 == 0, 0.01, np.linspace(5.0, 20.0, 200))
        value, _ = integrate(lambda s: np.sin(8.0 * s), lo, hi)
        assert groups == [64, 64, 22]
        assert value == pytest.approx((1.0 - np.cos(8.0 * hi)) / 8.0, rel=1e-9, abs=1e-12)
        # a row comes out the same in its group as integrated alone
        for i in (1, 150, 199):
            assert integrate(lambda s: np.sin(8.0 * s), lo[i:i + 1], hi[i:i + 1])[0][0] == value[i]


class TestUnreachableToleranceFailsEarly:
    """A target below the rounding floor of an estimate fails as soon as the
    estimate reaches that floor, far below the panel cap."""

    @staticmethod
    def _panels(message):
        return int(re.search(r"panels=(\d+)", message).group(1))

    def test_criterion_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IDEPCAG_QUAD_TOL", "1e-30")
        code = main(["criterion", "--config", str(SINE_FORCING), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert self._panels(capsys.readouterr().err) <= 16

    def test_scalar_integral(self):
        with pytest.raises(QuadratureError) as info:
            integrate(math.exp, 0.0, 1.0, rel_tol=1e-30)
        assert self._panels(str(info.value)) <= 16
        assert info.value.value == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_row_pass(self):
        lo, hi = np.zeros(3), np.array([1.0, 2.0, 3.0])
        with pytest.raises(QuadratureError) as info:
            integrate(np.exp, lo, hi, rel_tol=1e-30)
        assert self._panels(str(info.value)) <= 16

    def test_an_estimate_of_zero_does_not_meet_an_unreachable_target(self):
        # refining [0, 3] once leaves an error estimate of exactly 0.0
        with pytest.raises(QuadratureError) as info:
            integrate(np.exp, np.zeros(1), np.array([3.0]), rel_tol=1e-30)
        assert info.value.value == pytest.approx(math.exp(3.0) - 1.0, rel=1e-14)
        assert info.value.err == 0.0


class TestToleranceVariableIsChecked:
    """IDEPCAG_QUAD_TOL follows the rule of the config tolerances: a finite,
    non-negative number, else exit 2 naming the variable."""

    BAD = ["nan", "-1", "abc", "inf", ""]

    @pytest.mark.parametrize("text", BAD)
    def test_default_rel_tol_refuses(self, monkeypatch, text):
        monkeypatch.setenv("IDEPCAG_QUAD_TOL", text)
        with pytest.raises(ValueError, match="IDEPCAG_QUAD_TOL"):
            default_rel_tol()

    @pytest.mark.parametrize("text", BAD)
    def test_criterion_command_exits_2(self, tmp_path, capsys, monkeypatch, text):
        # with nan no integral was ever refined and the verdict read "oscillatory";
        # -1 ran to the panel cap; abc did not name the variable
        monkeypatch.setenv("IDEPCAG_QUAD_TOL", text)
        code = main(["criterion", "--config", str(SINE_FORCING), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "IDEPCAG_QUAD_TOL" in captured.err and "verdict" not in captured.out

    @pytest.mark.parametrize("text, tol", [("0", 0.0), ("1e-8", 1e-8), (" 1e-6 ", 1e-6)])
    def test_finite_non_negative_values_are_read(self, monkeypatch, text, tol):
        monkeypatch.setenv("IDEPCAG_QUAD_TOL", text)
        assert default_rel_tol() == tol
