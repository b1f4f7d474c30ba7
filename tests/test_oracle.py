import math
import random

import numpy as np
import pytest

from idepcag.expressions import Const, Cos, Prod, Sin, Sum, Var
from idepcag.grid import UniformGrid
from idepcag.kernel import KernelTable, SingularKernel
from idepcag.oracle import _rk4_linear, oracle_integrate
from idepcag.problem import ImpulseRule, Problem
from idepcag.solver import solve


def make(a, b, alpha=0.0, impulses=None, tau=0.0, z0=1.0, horizon=5.0, h=1.0):
    return Problem(
        a=a,
        b=b,
        grid=UniformGrid(0.0, h, alpha),
        impulses=impulses or ImpulseRule.none(),
        tau=tau,
        z0=z0,
        horizon=horizon,
    )


class TestClosedForms:
    def test_pure_decay(self):
        p = make(Const(-1.0), Const(0.0), horizon=1.0)
        traj = oracle_integrate(p, 10_000)
        assert traj.value(1.0, "left") == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_trivial_constant(self):
        p = make(Const(0.0), Const(0.0), horizon=3.0)
        traj = oracle_integrate(p, 100)
        for t in (0.0, 0.7, 2.9):
            assert traj.value(t) == 1.0

    def test_jump_identity(self):
        p = make(Const(0.0), Const(0.5), impulses=ImpulseRule.multiplier(-0.8), horizon=4.0)
        traj = oracle_integrate(p, 500)
        for pt in traj.skeleton()[1:]:
            assert pt.z_right == p.impulses.factor(pt.k) * pt.z_left

    def test_singular_implicit_solve(self):
        # B(zeta) = 1 on the advanced part makes 1 - B vanish
        p = make(Const(0.0), Const(2.0), alpha=0.5)
        with pytest.raises(SingularKernel):
            oracle_integrate(p, 200)


class TestAgreementWithKernelRoute:
    def problems(self):
        rng = random.Random(42)
        out = []
        for _ in range(3):
            a = Sum(
                (
                    Const(rng.uniform(-0.3, 0.3)),
                    Prod((Const(rng.uniform(-0.3, 0.3)), Sin(Var("t")))),
                )
            )
            b = Sum(
                (
                    Const(rng.uniform(-0.3, 0.3)),
                    Prod((Const(rng.uniform(-0.3, 0.3)), Cos(Var("t")))),
                )
            )
            C = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4)
            out.append(
                make(a, b, alpha=rng.random(), impulses=ImpulseRule.multiplier(C), horizon=6.0)
            )
        return out

    def test_dense_agreement(self):
        for p in self.problems():
            kernel_traj = solve(p)
            oracle_traj = oracle_integrate(p, 2_000)
            rng = random.Random(7)
            for _ in range(30):
                t = rng.uniform(p.tau, p.horizon)
                zk = kernel_traj.value(t)
                zo = oracle_traj.value(t)
                den = max(abs(zk), abs(zo))
                dev = abs(zk - zo) / den if den > 1e-12 else abs(zk - zo)
                assert dev < 1e-8

    def test_interior_start_conventions_agree(self):
        for alpha in (0.0, 1.0, 0.4):
            p = make(
                Const(-0.4),
                Sum((Const(0.2), Prod((Const(0.2), Sin(Var("t")))))),
                alpha=alpha,
                tau=0.3,
                horizon=4.0,
            )
            kernel_traj = solve(p)
            oracle_traj = oracle_integrate(p, 2_000)
            for i in range(20):
                t = 0.3 + (4.0 - 0.3) * (i + 0.5) / 20
                assert oracle_traj.value(t) == pytest.approx(
                    kernel_traj.value(t), rel=1e-8, abs=1e-10
                )

    def test_zero_initial_value(self):
        p = make(Const(-0.5), Const(0.3), z0=0.0, horizon=4.0)
        kernel_traj = solve(p)
        oracle_traj = oracle_integrate(p, 1_000)
        for t in (0.5, 1.5, 3.9):
            assert kernel_traj.value(t) == 0.0
            assert oracle_traj.value(t) == 0.0

    def test_explicit_grid_agreement(self):
        from idepcag.grid import ExplicitGrid

        grid = ExplicitGrid(
            (0.0, 0.7, 1.2, 2.4, 3.0, 4.5), (0.3, 1.0, 1.2, 2.9, 3.6)
        )
        p = Problem(
            a=Sum((Const(-0.2), Prod((Const(0.3), Sin(Var("t")))))),
            b=Const(0.4),
            grid=grid,
            impulses=ImpulseRule.multiplier(0.8),
            tau=0.0,
            z0=1.0,
            horizon=4.2,
        )
        kernel_traj = solve(p)
        oracle_traj = oracle_integrate(p, 2_000)
        for i in range(25):
            t = 4.2 * (i + 0.5) / 25
            assert oracle_traj.value(t) == pytest.approx(
                kernel_traj.value(t), rel=1e-8, abs=1e-12
            )


class TestValidation:
    def test_lagged_rejected(self):
        from idepcag.grid import LaggedUniformGrid

        p = Problem(
            a=Const(-1.0),
            b=Const(-0.3),
            grid=LaggedUniformGrid(0.0, 1.0, 1),
            tau=0.0,
            z0=1.0,
            horizon=5.0,
            history=(1.0,),
        )
        with pytest.raises(ValueError, match="non-lagged"):
            oracle_integrate(p)

    def test_builds_no_kernel_table(self, monkeypatch):
        built = []
        init = KernelTable.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(KernelTable, "__init__", spy)
        p = make(Const(-0.5), Sin(Var("t")), alpha=0.3, horizon=4.0)
        traj = oracle_integrate(p, 200)
        traj.value(2.5)
        traj.zero_list()
        assert built == []
        KernelTable(p)  # the spy is live
        assert len(built) == 1

    def test_step_count_validated(self):
        p = make(Const(0.0), Const(0.0))
        with pytest.raises(ValueError):
            oracle_integrate(p, 1)


class TestScanAccuracy:
    # A = exp(a t) and B = (b / a) expm1(a t) solve A' = a A and B' = a B + b
    # exactly.  RK4's own error reaches 2.7e-14 here (a = -2.2, 2000 steps);
    # the same scan carried in float64 reaches 2.2e-13, so the bound catches
    # a fall back to it
    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63,
        reason="np.longdouble is float64 here, so the scan carries no extra precision",
    )
    @pytest.mark.parametrize("steps", [2000, 10_000])
    @pytest.mark.parametrize("a, b", [(-1.0, -0.6), (-2.2, 0.3), (1.3, 0.5), (-0.05, 2.0)])
    def test_closed_form_on_a_unit_interval(self, a, b, steps):
        p = make(Const(a), Const(b))
        nodes = np.linspace(0.0, 1.0, steps + 1)
        A, B = _rk4_linear(p, nodes)
        t = nodes[1:]
        exact_a = np.exp(a * t)
        exact_b = (b / a) * np.expm1(a * t)
        assert np.max(np.abs(A[1:] - exact_a) / np.abs(exact_a)) <= 5e-14
        assert np.max(np.abs(B[1:] - exact_b) / np.abs(exact_b)) <= 5e-14
        assert (A[0], B[0]) == (1.0, 0.0)

