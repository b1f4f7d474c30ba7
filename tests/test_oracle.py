import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idepcag.cli import build_problem
from idepcag.expressions import Const, Cos, Prod, Sin, Sum, Var
from idepcag.grid import ExplicitGrid, UniformGrid
from idepcag.kernel import KernelTable, SingularKernel
from idepcag import oracle as oracle_module
from idepcag.expressions import evaluate_array
from idepcag.oracle import _interval_nodes, _rk4_linear, oracle_integrate
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


class TestZeros:
    def test_roots_of_a_decaying_chain_past_the_product_underflow(self):
        # a = -1, b = -0.6, alpha = 0: z = z(k) (1.6 e^(k-t) - 0.6) has its one
        # root of [k, k + 1) at k + ln(8/3), while |z(k)| falls about 88-fold
        # per interval, below 1e-154 from k = 80 on
        path = Path(__file__).resolve().parent.parent / "configs" / "decay_with_floor.json"
        cfg = json.loads(path.read_text())
        cfg["problem"]["horizon"] = 100.0
        zeros = oracle_integrate(build_problem(cfg), 2000).zero_list()
        assert [k for k, _ in zeros] == list(range(100))
        for k, root in zeros:
            assert abs(root - (k + math.log(8.0 / 3.0))) <= 1e-12, k


class TestFloatRange:
    def test_value_recovers_after_leaving_the_float_range(self):
        # factors 1e-11 on k = 1..40 take |z| near 1e-440, then 1e11 bring it back
        c = [1e-11 - 1.0] * 40 + [1e11 - 1.0] * 40
        p = make(Const(-0.5), Const(0.1), alpha=0.5, horizon=80.0,
                 impulses=ImpulseRule.explicit(c, start_k=1))
        traj, exact = oracle_integrate(p, 2000), solve(p)
        assert exact.value(79.5) == 1.6013218476036042e-25
        assert traj.value(79.5) == pytest.approx(exact.value(79.5), rel=1e-12, abs=0.0)
        signs = [(pt.sign_left, pt.sign_right) for pt in exact.skeleton()]
        assert [(pt.sign_left, pt.sign_right) for pt in traj.skeleton()] == signs

    def test_knot_value_past_the_float_range_names_the_interval(self):
        # z grows by about e^30 per interval and passes the largest float at t = 23.7
        p = make(Const(30.0), Const(0.1), horizon=30.0)
        with pytest.raises(OverflowError, match="interval k=23"):
            oracle_integrate(p, 2000)


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



_coef = st.floats(min_value=-0.8, max_value=0.8)


@st.composite
def _oracle_problems(draw):
    """Variable a and b on a uniform or explicit grid, tau on a knot or inside an interval."""
    if draw(st.booleans()):
        h = draw(st.floats(min_value=0.5, max_value=1.5))
        grid = UniformGrid(0.0, h, draw(st.floats(min_value=0.0, max_value=1.0)))
    else:
        widths = draw(st.lists(st.floats(min_value=0.3, max_value=1.5), min_size=4, max_size=6))
        knots = [0.0]
        for w in widths:
            knots.append(knots[-1] + w)
        fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(widths), max_size=len(widths)))
        zetas = [min(lo + f * (hi - lo), hi) for lo, hi, f in zip(knots, knots[1:], fracs)]
        grid = ExplicitGrid(tuple(knots), tuple(zetas))
    tau = draw(st.sampled_from([0.0, grid.knot(1)]) | st.floats(min_value=0.1, max_value=1.0))
    horizon = min(tau + draw(st.floats(min_value=0.3, max_value=3.0)), grid.knot(4) - 0.01)
    return Problem(
        a=Sum((Const(draw(_coef)), Prod((Const(draw(_coef)), Sin(Var("t")))))),
        b=Sum((Const(draw(_coef)), Prod((Const(draw(_coef)), Cos(Var("t")))))),
        grid=grid,
        impulses=ImpulseRule.multiplier(draw(st.sampled_from([-1.2, -0.8, 0.9, 1.1]))),
        tau=tau,
        z0=draw(st.sampled_from([-1.0, 1.0, 1e-300])),
        horizon=horizon,
    )


class TestBatchRead:
    """``values(ts)`` reads knots from the skeleton, stored RK4 nodes as stored
    and every other t by one RK4 step; it must equal ``value`` on each t."""

    @settings(max_examples=40, deadline=None)
    @given(_oracle_problems(), st.integers(min_value=2, max_value=60), st.data())
    def test_equals_one_value_per_point_bitwise(self, p, steps, data):
        try:
            traj = oracle_integrate(p, steps)
        except SingularKernel:
            assume(False)
        knots = [pt.t for pt in traj.skeleton()]
        nodes = [t for g in traj._grids.values() for t in g[0].tolist() if t <= p.horizon]
        special = st.sampled_from(knots + [p.tau, p.horizon]) | st.sampled_from(nodes)
        ts = data.draw(st.lists(st.floats(p.tau, p.horizon) | special, max_size=40))
        assert [z.hex() for z in traj.values(ts)] == [traj.value(t).hex() for t in ts]

    @pytest.mark.parametrize("t", [-0.5, 5.5, math.nan])
    def test_out_of_range_raises_what_value_raises(self, t):
        traj = oracle_integrate(make(Const(-0.5), Sin(Var("t")), alpha=0.3, horizon=5.0), 50)
        with pytest.raises(ValueError) as one:
            traj.value(t)
        with pytest.raises(ValueError) as batch:
            traj.values([2.5, 1.0, t, 4.0])
        assert str(batch.value) == str(one.value)

    @pytest.mark.parametrize("name", ["multiplier_chain", "decay_with_floor"])
    def test_midpoint_samples_on_stored_nodes(self, name):
        # oracle-check's midpoint samples of these configs land on RK4 nodes,
        # which the batch read takes as stored, not as a step from the node below
        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        p = build_problem(json.loads(path.read_text()))
        traj = oracle_integrate(p, 2000)
        span = p.horizon - p.tau
        ts = [p.tau + span * (i + 0.5) / 100 for i in range(100)]
        stored = {}
        for k, (nodes, zs, _, x) in traj._grids.items():
            stored.update((t, math.ldexp(z, x)) for t, z in zip(nodes.tolist(), zs.tolist()))
        hits = [t for t in ts if t in stored]
        assert hits
        zs = traj.values(ts)
        assert zs == [traj.value(t) for t in ts]
        assert [z for t, z in zip(ts, zs) if t in stored] == [stored[t] for t in hits]
        assert traj.values([]) == []


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.01, max_value=0.5), min_size=1, max_size=6),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_rk4_rows_march_like_one_dimensional_grids(m, widths, t0):
    # each row of a 2-D nodes array is marched on its own, as a 1-D grid would be
    p = make(Sum((Const(-0.4), Sin(Var("t")))), Cos(Var("t")))
    rows = np.array([t0 + r + np.concatenate([[0.0], np.cumsum(widths)]) for r in range(m)])
    A, B = _rk4_linear(p, rows)
    for row, a_row, b_row in zip(rows, A, B):
        a_one, b_one = _rk4_linear(p, row)
        assert a_row.tobytes() == a_one.tobytes() and b_row.tobytes() == b_one.tobytes()


def _rk4_linear_reference(problem, nodes):
    """The stage arithmetic as first written: one fresh array per operation,
    every coefficient evaluated on nodes and midpoints, constants included."""
    h = np.diff(nodes)
    mids = 0.5 * (nodes[..., :-1] + nodes[..., 1:])
    a_nodes = evaluate_array(problem.a, nodes)
    am = evaluate_array(problem.a, mids)
    b_nodes = evaluate_array(problem.b, nodes)
    bm = evaluate_array(problem.b, mids)
    a0, a1 = a_nodes[..., :-1], a_nodes[..., 1:]
    b0, b1 = b_nodes[..., :-1], b_nodes[..., 1:]
    k2 = am * (1.0 + 0.5 * h * a0)
    k3 = am * (1.0 + 0.5 * h * k2)
    k4 = a1 * (1.0 + h * k3)
    d = h * (a0 + 2.0 * (k2 + k3) + k4) / 6.0
    l2 = am * (0.5 * h * b0) + bm
    l3 = am * (0.5 * h * l2) + bm
    l4 = a1 * (h * l3) + b1
    f = h * (b0 + 2.0 * (l2 + l3) + l4) / 6.0
    A = np.empty(nodes.shape, dtype=np.longdouble)
    B = np.empty_like(A)
    A[..., 0], B[..., 0] = 1.0, 0.0
    np.add(d, 1.0, out=A[..., 1:], dtype=np.longdouble)
    np.cumprod(A[..., 1:], axis=-1, out=A[..., 1:])
    np.divide(f, A[..., 1:], out=B[..., 1:])
    np.cumsum(B[..., 1:], axis=-1, out=B[..., 1:])
    np.multiply(A, B, out=B)
    return A.astype(float), B.astype(float)


_small = st.floats(min_value=-3.0, max_value=3.0)
# a Const (0 and -0 among them) or c0 + c1 sin(t) / c0 + c1 cos(t), which evaluate_array reads
_coefficients = st.one_of(
    st.sampled_from([0.0, -0.0]).map(Const),
    _small.map(Const),
    st.builds(
        lambda c0, c1, f: Sum((Const(c0), Prod((Const(c1), f(Var("t")))))),
        _small, _small, st.sampled_from([Sin, Cos]),
    ),
)


@st.composite
def _interval_grids(draw):
    """One interval's grid from _interval_nodes, zeta inside it or on an end."""
    lo = draw(st.floats(min_value=-5.0, max_value=5.0))
    hi = lo + draw(st.floats(min_value=0.05, max_value=3.0))
    zeta = draw(st.sampled_from([lo, hi]) | st.floats(min_value=lo, max_value=hi))
    return _interval_nodes(lo, zeta, hi, draw(st.integers(min_value=2, max_value=300)))[0]


@st.composite
def _row_grids(draw):
    """m rows of n increasing nodes: (node, t) step pairs for n = 2, else rows of a march."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    starts = draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
    widths = draw(st.lists(st.floats(1e-6, 0.5), min_size=m * (n - 1), max_size=m * (n - 1)))
    offsets = np.cumsum(np.array(widths).reshape(m, n - 1), axis=1)
    return np.array(starts)[:, None] + np.concatenate([np.zeros((m, 1)), offsets], axis=1)


class TestInPlaceStages:
    """``_rk4_linear`` computes its stages in place and a Const coefficient as
    a float; its A and B must be bitwise those of one array per operation."""

    @settings(max_examples=150, deadline=None)
    @given(_coefficients, _coefficients, _interval_grids() | _row_grids())
    def test_bitwise_the_reference(self, a, b, nodes):
        p = make(a, b)
        A, B = _rk4_linear(p, nodes)
        A_ref, B_ref = _rk4_linear_reference(p, nodes)
        assert A.shape == B.shape == nodes.shape
        assert A.tobytes() == A_ref.tobytes() and B.tobytes() == B_ref.tobytes()

    @pytest.mark.parametrize(
        "a, b, evaluated",
        [
            (Const(-0.7), Sin(Var("t")), ["b", "b"]),
            (Sin(Var("t")), Const(0.3), ["a", "a"]),
            (Const(-0.7), Const(0.3), []),
        ],
    )
    def test_a_const_coefficient_is_not_evaluated(self, monkeypatch, a, b, evaluated):
        p = make(a, b)
        calls = []

        def spy(expr, points):
            calls.append("a" if expr is p.a else "b")
            return evaluate_array(expr, points)

        monkeypatch.setattr(oracle_module, "evaluate_array", spy)
        _rk4_linear(p, np.linspace(0.0, 1.0, 11))
        assert calls == evaluated

    @pytest.mark.parametrize("alpha, tau", [(0.0, 0.0), (0.4, 0.3), (1.0, 0.0)])
    def test_one_call_per_interval_on_its_whole_grid(self, monkeypatch, alpha, tau):
        calls = []

        def spy(problem, nodes):
            calls.append(nodes.shape)
            return _rk4_linear(problem, nodes)

        monkeypatch.setattr(oracle_module, "_rk4_linear", spy)
        p = make(Const(-0.4), Sin(Var("t")), alpha=alpha, tau=tau, horizon=4.5)
        traj = oracle_integrate(p, 37)
        assert len(calls) == len(traj._grids) == 5
        assert calls == [(38,)] * 5
