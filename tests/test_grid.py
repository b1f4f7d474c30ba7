import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idepcag.expressions import Const
from idepcag.grid import ExplicitGrid, GridRangeError, LaggedUniformGrid, UniformGrid
from idepcag.kernel import KernelTable
from idepcag.problem import Problem


class TestIntervalIndex:
    def test_unit_floor(self):
        g = UniformGrid(0.0, 1.0, 0.0)
        assert g.interval_index(3.7) == 3

    def test_knot_is_right_continuous(self):
        g = UniformGrid(0.0, 1.0, 0.0)
        assert g.interval_index(4.0) == 4

    def test_half_step(self):
        g = UniformGrid(0.0, 0.5, 1.0)
        assert g.interval_index(0.75) == 1

    def test_negative_times(self):
        g = UniformGrid(0.0, 1.0, 0.0)
        assert g.interval_index(-0.25) == -1


class TestGamma:
    def test_floor_argument(self):
        assert UniformGrid(0.0, 1.0, 0.0).gamma(3.7) == 3.0

    def test_advanced_argument(self):
        assert UniformGrid(0.0, 1.0, 1.0).gamma(3.7) == 4.0

    def test_lagged_argument(self):
        assert LaggedUniformGrid(0.0, 1.0, 1).gamma(3.7) == 2.0


def _split(grid, k):
    """Advanced part [t_k, zeta_k] and delayed part [zeta_k, t_{k+1}] of
    interval k, as the criterion rows take them from ``window``."""
    knots, zetas = grid.window(k, k + 1)
    return (knots[0], zetas[0]), (zetas[0], knots[1])


class TestSplit:
    def test_alpha_zero_degenerates_advanced(self):
        assert _split(UniformGrid(0.0, 1.0, 0.0), 2) == ((2.0, 2.0), (2.0, 3.0))

    def test_alpha_one_degenerates_delayed(self):
        assert _split(UniformGrid(0.0, 1.0, 1.0), 2) == ((2.0, 3.0), (3.0, 3.0))

    def test_midpoint_split(self):
        assert _split(UniformGrid(0.0, 2.0, 0.5), 1) == ((2.0, 3.0), (3.0, 4.0))

    def test_lagged_has_no_split(self):
        # the argument lies outside the interval, so there is no kernel table
        p = Problem(Const(0.0), Const(1.0), LaggedUniformGrid(0.0, 1.0, 1), history=(1.0,))
        with pytest.raises(ValueError, match="lagged"):
            KernelTable(p)


class TestExplicitGrid:
    def test_lookup(self):
        g = ExplicitGrid((0.0, 0.5, 1.5, 3.0), (0.25, 1.0, 2.0))
        assert g.interval_index(0.6) == 1
        assert g.gamma(2.0) == 2.0

    def test_out_of_range(self):
        g = ExplicitGrid((0.0, 1.0), (0.5,))
        with pytest.raises(GridRangeError):
            g.interval_index(1.0)
        with pytest.raises(GridRangeError):
            g.interval_index(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitGrid((0.0, 1.0, 0.5), (0.2, 0.7))
        with pytest.raises(ValueError):
            ExplicitGrid((0.0, 1.0), (1.5,))


class TestInvariants:
    def test_bracketing_and_constancy(self):
        rng = random.Random(7)
        for _ in range(50):
            t0 = rng.uniform(-3, 3)
            h = rng.uniform(0.1, 2.5)
            alpha = rng.random()
            g = UniformGrid(t0, h, alpha)
            for _ in range(20):
                t = rng.uniform(-20, 20)
                k = g.interval_index(t)
                assert g.knot(k) <= t < g.knot(k + 1)
                assert g.knot(k) <= g.gamma(t) <= g.knot(k + 1)
                s = rng.uniform(g.knot(k), g.knot(k + 1))
                if g.interval_index(s) == k:
                    assert g.gamma(s) == g.gamma(t)

    def test_split_partitions_interval(self):
        rng = random.Random(8)
        for _ in range(50):
            g = UniformGrid(rng.uniform(-2, 2), rng.uniform(0.1, 3), rng.random())
            k = rng.randint(-5, 5)
            (a0, a1), (d0, d1) = _split(g, k)
            assert a0 == g.knot(k)
            assert a1 == d0 == g.zeta(k)
            assert d1 == g.knot(k + 1)


def _scalar_window(grid, k_lo, k_hi):
    return [grid.knot(j) for j in range(k_lo, k_hi + 1)], [grid.zeta(j) for j in range(k_lo, k_hi)]


def _bits(values):
    return [float(x).hex() for x in values]


class TestWindow:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-6, 1e3),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        st.integers(-1000, 10**6),
        st.integers(0, 40),
        st.integers(0, 3),
    )
    def test_even_grid_window_is_the_scalar_lookups_bitwise(self, t0, h, alpha, k_lo, width, lag):
        grid = LaggedUniformGrid(t0, h, lag) if lag else UniformGrid(t0, h, alpha)
        k_hi = min(k_lo + width, 10**6)
        knots, zetas = grid.window(k_lo, k_hi)
        want_knots, want_zetas = _scalar_window(grid, k_lo, k_hi)
        assert _bits(knots) == _bits(want_knots)
        assert _bits(zetas) == _bits(want_zetas)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=20), st.data())
    def test_explicit_grid_window_is_the_scalar_lookups_bitwise(self, steps, data):
        knots = [data.draw(st.floats(-100.0, 100.0))]
        for h in steps:
            knots.append(knots[-1] + h)
        zetas = [min(hi, lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo))
                 for lo, hi in zip(knots, knots[1:])]
        grid = ExplicitGrid(tuple(knots), tuple(zetas))
        k_lo = data.draw(st.integers(0, len(steps)))
        k_hi = data.draw(st.integers(k_lo, len(steps)))
        got_knots, got_zetas = grid.window(k_lo, k_hi)
        want_knots, want_zetas = _scalar_window(grid, k_lo, k_hi)
        assert _bits(got_knots) == _bits(want_knots)
        assert _bits(got_zetas) == _bits(want_zetas)

    @pytest.mark.parametrize("k_lo, k_hi", [(2, 5), (3, 9), (-1, 2), (4, 6), (7, 8)])
    def test_explicit_window_past_the_grid_names_the_same_index(self, k_lo, k_hi):
        grid = ExplicitGrid((0.0, 1.0, 2.0, 3.0), (0.5, 1.5, 2.5))
        with pytest.raises(GridRangeError) as scalar:
            _scalar_window(grid, k_lo, k_hi)
        with pytest.raises(GridRangeError, match=f"^{scalar.value}$"):
            grid.window(k_lo, k_hi)
