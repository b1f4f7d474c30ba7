import dataclasses
import math
import random
from fractions import Fraction

import pytest

from idepcag.expressions import Const, Cos, Exp, Neg, Pow, Prod, Sin, Sum, Var
from idepcag.grid import LaggedUniformGrid, UniformGrid
from idepcag.kernel import KernelTable, SingularKernel
from idepcag.oscillation import classify_discrete
from idepcag.problem import ImpulseDegenerate, ImpulseRule, Problem
from idepcag.quadrature import integrate
from idepcag.solver import bisect_root, solve


def unit_problem(a, b, impulses=None, alpha=0.0, tau=0.0, z0=1.0, horizon=10.0):
    return Problem(
        a=a,
        b=b,
        grid=UniformGrid(0.0, 1.0, alpha),
        impulses=impulses or ImpulseRule.none(),
        tau=tau,
        z0=z0,
        horizon=horizon,
    )


def knot_ratio(p, k):
    """z(t_{k+1}) / z(t_k) of the solve: the one-step factor (1 + c_{k+1}) w(t_{k+1}, t_k)."""
    traj = solve(p)
    return traj.knot_value(k + 1) / traj.knot_value(k)


class TestStep:
    def test_growth_times_multiplier(self):
        # b = alpha - 1 with alpha = 2 and multiplier beta = -0.5: step = -z
        p = unit_problem(Const(0.0), Const(1.0), ImpulseRule.multiplier(-0.5))
        assert knot_ratio(p, 3) * 2.0 == pytest.approx(-2.0, rel=1e-12)

    def test_pure_flow(self):
        p = unit_problem(Const(-0.7), Const(0.0))
        assert knot_ratio(p, 1) * 3.0 == pytest.approx(3.0 * math.exp(-0.7), rel=1e-11)

    def test_structural_family_reduces_to_multiplier(self):
        a = Exp(Prod((Const(0.1), Var("t"))))
        p = unit_problem(a, Neg(a), ImpulseRule.multiplier(-0.9))
        assert knot_ratio(p, 2) * 5.0 == pytest.approx(-4.5, rel=1e-12)

    def test_degenerate_impulse(self):
        p = unit_problem(Const(0.0), Const(0.0), ImpulseRule.multiplier(0.0))
        with pytest.raises(ImpulseDegenerate):
            solve(p)


class TestFlow:
    """b = 0: between impulses z follows the flow exp(int_s^t a)."""

    def test_unit_decay(self):
        traj = solve(unit_problem(Const(-1.0), Const(0.0)))
        assert traj.value(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_coefficient(self):
        traj = solve(unit_problem(Const(0.0), Const(0.0)))
        for t in (0.0, 2.5, 5.0, 9.75):
            assert traj.value(t) == 1.0

    def test_cocycle_across_knots(self):
        a = Sum((Const(0.3), Prod((Const(0.7), Sin(Var("t"))))))
        traj = solve(unit_problem(a, Const(0.0), alpha=0.4))
        rng = random.Random(11)
        for _ in range(10):
            r, t = sorted(rng.uniform(0.0, 6.0) for _ in range(2))
            flow = math.exp(integrate(a.ev, r, t)[0])
            assert traj.value(t) / traj.value(r) == pytest.approx(flow, rel=1e-9)

    def test_multipliers_scale_the_flow(self):
        traj = solve(unit_problem(Const(-0.7), Const(0.0), ImpulseRule.multiplier(0.5)))
        for t in (0.4, 1.5, 3.4, 7.9):
            want = math.exp(-0.7 * t) * 0.5 ** math.floor(t)
            assert traj.value(t) == pytest.approx(want, rel=1e-12)

    def test_knot_ratio_is_flow_times_e_ratio(self):
        # z(t_{k+1}) / z(t_k) = exp(int_{t_k}^{t_{k+1}} a) j(t_{k+1}) / j(t_k), and
        # j = e exp(int_t^zeta a), so the flow cancels to e(t_{k+1}) / e(t_k)
        a = Prod((Const(0.2), Sin(Prod((Const(2 * math.pi), Var("t"))))))
        b = Sum((Prod((Const(0.4), Cos(Prod((Const(2 * math.pi), Var("t")))))), Const(-0.1)))
        p = unit_problem(a, b, alpha=0.6)
        traj, table = solve(p), KernelTable(p)
        for k in range(0, 6):
            e_k, e_k1, _ = table.e_at_knots(k)
            ratio = traj.knot_value(k + 1) / traj.knot_value(k)
            assert ratio == pytest.approx(e_k1 / e_k, rel=1e-12)


class TestSolve:
    def test_multiplier_chain_constant_intervals(self):
        # z' = a(t)(z - z([t])) with z(k) = c z(k^-): z is (c^k z0) on [k, k+1)
        a = Sin(Var("t"))
        p = unit_problem(a, Neg(a), ImpulseRule.multiplier(-0.9), z0=-19.0, horizon=20.0)
        traj = solve(p)
        assert traj.value(1.5) == pytest.approx(17.1, rel=1e-12)
        for k in range(0, 20):
            assert traj.knot_value(k) == pytest.approx((-0.9) ** k * (-19.0), rel=1e-12)

    def test_knot_ratios_of_a_pure_flow_are_its_flow_factor(self):
        # b = 0, no impulses: z(t_{n+1}) / z(t_n) = exp(int_n^{n+1} a), whatever the
        # kernel, so the flow factor divides out to exactly 1
        traj = solve(unit_problem(Const(-2.3), Const(0.0), horizon=30.0))
        ratios = [traj.knot_value(n + 1) / traj.knot_value(n) * math.exp(2.3) for n in range(6)]
        assert ratios == pytest.approx([1.0] * 6, rel=1e-10)

    def test_constant_solution(self):
        p = unit_problem(Const(0.0), Const(0.0), ImpulseRule.multiplier(1.0))
        traj = solve(p)
        for t in (0.0, 0.5, 3.25, 9.9):
            assert traj.value(t) == 1.0

    def test_multiplier_chain_other_ratio(self):
        a = Cos(Var("t"))
        c = -60.0 / 67.0
        p = unit_problem(a, Neg(a), ImpulseRule.multiplier(c), z0=-11.0, horizon=15.0)
        traj = solve(p)
        for k in range(0, 15):
            assert traj.knot_value(k) == pytest.approx(c**k * (-11.0), rel=1e-12)

    def test_advanced_argument_without_impulses_is_constant(self):
        # z' = a(t)(z - z([t+1])) with no jumps keeps z identically z0
        a = Sum((Const(0.5), Cos(Var("t"))))
        p = unit_problem(a, Neg(a), alpha=1.0, z0=3.5)
        traj = solve(p)
        for t in (0.0, 0.4, 2.7, 8.9):
            assert traj.value(t) == pytest.approx(3.5, rel=1e-12)

    def test_skeleton_jump_identity_exact(self):
        p = unit_problem(
            Const(-0.2), Const(0.3), ImpulseRule.alternating(0.4), horizon=12.0
        )
        traj = solve(p)
        for pt in traj.skeleton()[1:]:
            assert pt.z_right == p.impulses.factor(pt.k) * pt.z_left

    def test_no_impulse_continuity(self):
        p = unit_problem(Const(0.1), Prod((Const(0.3), Sin(Var("t")))))
        traj = solve(p)
        for pt in traj.skeleton()[1:]:
            assert pt.z_right == pt.z_left
            left_limit = traj.value(pt.t - 1e-9, "right")
            assert left_limit == pytest.approx(pt.z_left, rel=1e-6, abs=1e-9)

    def test_singular_kernel_reported_with_interval(self):
        # i_plus = 1 at alpha h = 0.5 makes j(t_k, zeta_k) = 0
        p = unit_problem(Const(0.0), Const(2.0), alpha=0.5)
        with pytest.raises(SingularKernel) as info:
            solve(p)
        assert info.value.k == 0

    def test_telescoped_restart(self):
        p = unit_problem(
            Prod((Const(0.2), Sin(Var("t")))),
            Sum((Const(-0.3), Prod((Const(0.2), Cos(Var("t")))))),
            ImpulseRule.multiplier(1.1),
            alpha=0.3,
            horizon=8.0,
        )
        full = solve(p)
        mid_k = 4
        restart = dataclasses.replace(
            p, tau=p.grid.knot(mid_k), z0=full.knot_value(mid_k)
        )
        tail = solve(restart)
        rng = random.Random(2)
        for _ in range(20):
            t = rng.uniform(4.0, 8.0)
            assert tail.value(t) == pytest.approx(full.value(t), rel=1e-9)


class TestEvalDense:
    def test_knot_values_and_sides(self):
        p = unit_problem(Const(0.0), Const(0.0), ImpulseRule.multiplier(2.0), horizon=5.0)
        traj = solve(p)
        assert traj.value(3.0) == traj.knot_value(3)
        assert traj.value(3.0, "left") == traj.knot_value(3, "left")
        assert traj.value(3.0) == 2.0 * traj.value(3.0, "left")

    def test_linear_interior_value(self):
        p = unit_problem(Const(0.0), Const(-2.0))
        traj = solve(p)
        assert traj.value(0.75) == pytest.approx(-0.5, rel=1e-12)

    def test_knot_value_refuses_an_unknown_side(self):
        # at a knot with multiplier -0.5 the two sides differ in sign
        traj = solve(unit_problem(Const(0.0), Const(1.0), ImpulseRule.multiplier(-0.5)))
        assert traj.knot_value(2, "left") == -2.0 * traj.knot_value(2)
        for side in ("Left", "post", ""):
            with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
                traj.knot_value(2, side)

    def test_out_of_range(self):
        traj = solve(unit_problem(Const(0.0), Const(0.0), horizon=2.0))
        with pytest.raises(ValueError):
            traj.value(2.5)
        with pytest.raises(ValueError):
            traj.value(-0.5)

    def test_sign_matches_kernel_quotient(self):
        p = unit_problem(Const(0.0), Const(-2.0), horizon=4.0)
        traj, table = solve(p), KernelTable(p)
        rng = random.Random(9)
        for _ in range(20):
            t = rng.uniform(0.0, 4.0)
            k = p.grid.interval_index(t)
            zk = traj.knot_value(k)
            quotient = table.e_value(k, t) / table.e_value(k, p.grid.knot(k))  # j = e for a = 0
            predicted = math.copysign(1.0, zk) * math.copysign(1.0, quotient)
            value = traj.value(t)
            if value != 0.0 and quotient != 0.0:
                assert math.copysign(1.0, value) == predicted


class TestZeros:
    def test_linear_root(self):
        traj = solve(unit_problem(Const(0.0), Const(-2.0), horizon=4.0))
        roots = traj.zeros_in_interval(0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-12)

    def test_steeper_root(self):
        traj = solve(unit_problem(Const(0.0), Const(-4.0), horizon=4.0))
        assert traj.zeros_in_interval(0)[0] == pytest.approx(0.25, abs=1e-12)

    def test_no_forcing_no_roots(self):
        traj = solve(unit_problem(Const(-1.0), Const(0.0), horizon=4.0))
        assert traj.zeros_in_interval(1) == []

    def test_zero_list_spans_range(self):
        traj = solve(unit_problem(Const(0.0), Const(-2.0), horizon=4.0))
        zl = traj.zero_list()
        assert [k for k, _ in zl] == [0, 1, 2, 3]
        for k, root in zl:
            assert root == pytest.approx(k + 0.5, abs=1e-10)

    def test_underflowed_knot_is_not_a_zero(self):
        # the skeleton decays by ~1e-13 a step and underflows to 0.0, but the
        # propagated sign stays +1: no interval carries the zero solution
        p = unit_problem(Const(-30.0), Const(0.1), alpha=1.0, horizon=30.0)
        traj = solve(p)
        assert any(pt.z_right == 0.0 for pt in traj.skeleton())
        assert all(pt.sign_right == 1 for pt in traj.skeleton())
        assert classify_discrete(traj).status == "nonoscillatory"
        assert traj.zero_list() == []


    def test_value_recovers_after_leaving_the_float_range(self):
        # factors ~1e-11 on k = 1..40 take |z| near 1e-440, then ~1e11 bring it back
        plain = unit_problem(Const(-0.5), Const(0.1), alpha=0.5, horizon=80.0)
        c = [1e-11 - 1.0] * 40 + [1e11 - 1.0] * 40
        kicked = dataclasses.replace(plain, impulses=ImpulseRule.explicit(c, start_k=1))
        expected = Fraction(solve(plain).value(79.5))
        for k in range(1, 80):
            expected *= Fraction(kicked.impulses.factor(k))
        assert solve(kicked).value(79.5) == pytest.approx(float(expected), rel=1e-12, abs=0.0)


class TestMultiplierFactor:
    @pytest.mark.parametrize("C", [1e-11, 0.1, -0.9])
    def test_factor_is_C_itself(self, C):
        # 1.0 + (C - 1.0) is 1.0000000827e-11 for C = 1e-11
        rule = ImpulseRule.multiplier(C)
        assert rule.factor(3).hex() == C.hex()
        assert rule.c(3) == C - 1.0

    def test_chain_of_small_multipliers_is_exact(self):
        C = 1e-11
        p = unit_problem(Const(0.0), Const(0.0), ImpulseRule.multiplier(C), z0=-3.0, horizon=20.5)
        expected = Fraction(-3.0) * Fraction(C) ** 20
        assert solve(p).value(20.5) == pytest.approx(float(expected), rel=1e-12, abs=0.0)


class TestInteriorStart:
    def test_clamped_argument_when_behind_tau(self):
        # alpha = 0 puts the argument value behind an interior tau
        p = unit_problem(Const(-0.5), Const(0.4), tau=0.3, horizon=6.0)
        traj = solve(p)
        assert traj.metadata["start_argument"] == "clamped to tau"
        assert traj.value(0.3) == 1.0

    def test_advanced_argument_kept(self):
        p = unit_problem(Const(-0.5), Const(0.4), alpha=1.0, tau=0.3, horizon=6.0)
        traj = solve(p)
        assert traj.metadata["start_argument"] == "grid value"


class TestLagged:
    def lagged_problem(self, p_coef, q_coef, horizon=50.0, history=(1.0,), z0=1.0):
        return Problem(
            a=Const(-p_coef),
            b=Const(-q_coef),
            grid=LaggedUniformGrid(0.0, 1.0, 1),
            impulses=ImpulseRule.none(),
            tau=0.0,
            z0=z0,
            horizon=horizon,
            history=history,
        )

    def test_trivial_constant(self):
        traj = solve(self.lagged_problem(0.0, 0.0, horizon=10.0))
        for t in (0.0, 2.5, 7.75):
            assert traj.value(t) == pytest.approx(1.0, rel=1e-12)

    def test_matches_two_term_recurrence(self):
        p_coef, q_coef = 1.0, 0.3
        traj = solve(self.lagged_problem(p_coef, q_coef, horizon=30.0))
        decay = math.exp(-p_coef)
        forced = -q_coef * (1.0 - math.exp(-p_coef)) / p_coef
        z_prev, z_cur = 1.0, 1.0
        for k in range(0, 30):
            z_next = decay * z_cur + forced * z_prev
            z_prev, z_cur = z_cur, z_next
            assert traj.knot_value(k + 1) == pytest.approx(z_next, rel=1e-10, abs=1e-12)

    def test_pure_flow_with_impulses(self):
        p = dataclasses.replace(
            self.lagged_problem(0.8, 0.0, horizon=10.0),
            impulses=ImpulseRule.multiplier(-0.5),
        )
        traj = solve(p)
        for k in range(0, 10):
            expected = (-0.5 * math.exp(-0.8)) ** k
            assert traj.knot_value(k) == pytest.approx(expected, rel=1e-10)

    def test_dispatch_from_solve(self):
        traj = solve(self.lagged_problem(1.0, 0.3, horizon=10.0))
        assert traj.knot_value(1) == pytest.approx(
            math.exp(-1.0) - 0.3 * (1.0 - math.exp(-1.0)), rel=1e-10
        )

    def test_missing_history(self):
        p = dataclasses.replace(self.lagged_problem(1.0, 0.3), history=None)
        with pytest.raises(ValueError, match="history"):
            solve(p)

    def test_off_knot_start_rejected(self):
        p = dataclasses.replace(self.lagged_problem(1.0, 0.3), tau=0.5)
        with pytest.raises(ValueError, match="knot"):
            solve(p)

    @pytest.mark.parametrize("lag", [2, 3])
    def test_longer_lag_from_a_later_knot(self, lag):
        a, b, h, k0 = -0.7, 0.4, 0.5, 2
        history = (0.3, -0.5, 0.8)[:lag]
        p = Problem(
            a=Const(a),
            b=Const(b),
            grid=LaggedUniformGrid(0.0, h, lag),
            tau=k0 * h,
            z0=1.2,
            horizon=(k0 + 12) * h,
            history=history,
        )
        traj = solve(p)
        # z at t_{k0-lag} .. t_{k0}, then the exact one-step recurrence
        z = list(history) + [1.2]
        growth = math.exp(a * h)
        for k in range(k0, k0 + 12):
            z.append(growth * z[-1] + (b / a) * (growth - 1.0) * z[-1 - lag])
            assert traj.knot_value(k + 1) == pytest.approx(z[-1], rel=1e-12, abs=1e-14)

    def test_constant_coefficients_are_shift_invariant(self):
        # the same history and z0 from a later knot give the same knot values, shifted
        def from_knot(k0):
            return dataclasses.replace(
                self.lagged_problem(1.0, 0.3), tau=float(k0), horizon=k0 + 15.0
            )

        early, late = solve(from_knot(0)), solve(from_knot(4))
        for n in range(16):
            assert late.knot_value(4 + n) == pytest.approx(early.knot_value(n), rel=1e-12)
        for n in range(15):
            assert late.value(4.37 + n) == pytest.approx(early.value(0.37 + n), rel=1e-12)

    def test_lagged_zero_scan(self):
        traj = solve(self.lagged_problem(1.0, 0.3, horizon=20.0))
        skeleton = [pt.z_right for pt in traj.skeleton()]
        changes = [
            i for i in range(len(skeleton) - 1) if skeleton[i] * skeleton[i + 1] <= 0
        ]
        assert changes  # oscillates, so in-interval zeros must exist somewhere
        k = changes[0]
        assert traj.zeros_in_interval(k)


class TestBisectRoot:
    def test_reversed_bracket_is_bisected(self):
        f = lambda x: x - 0.3
        forward = bisect_root(f, 0.0, 1.0, f(0.0), 1e-12)
        assert abs(forward - 0.3) <= 1e-12
        assert bisect_root(f, 1.0, 0.0, f(1.0), 1e-12) == forward

    def test_neighbouring_floats_end_the_search(self):
        a = 1.0
        b = math.nextafter(a, 2.0)
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 200:
                raise RuntimeError("bisection does not stop on a bracket of neighbouring floats")
            return -1.0 if x == a else 1.0

        assert bisect_root(f, a, b, f(a), 0.0) in (a, b)


class TestDeterminism:
    def test_repeat_solve_bitwise(self):
        p = unit_problem(
            Prod((Const(0.3), Sin(Var("t")))),
            Sum((Const(-0.2), Prod((Const(0.25), Cos(Var("t")))))),
            ImpulseRule.multiplier(0.9),
            alpha=0.7,
            horizon=6.0,
        )
        a = solve(p)
        b = solve(p)
        assert [pt.z_right for pt in a.skeleton()] == [pt.z_right for pt in b.skeleton()]
        for t in (0.3, 1.7, 5.9):
            assert a.value(t) == b.value(t)
