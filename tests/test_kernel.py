import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idepcag.kernel as kernel_module
import idepcag.quadrature as quadrature_module
from idepcag.expressions import Const, Cos, Neg, Pow, Prod, Sin, Sum, Var, parse_expression
from idepcag.grid import ExplicitGrid, GridRangeError, UniformGrid
from idepcag.kernel import KernelTable, flow_weighted_integral
from idepcag.oscillation import EXTREMA, _window_extrema
from idepcag.problem import ImpulseRule, Problem
from idepcag.quadrature import default_rel_tol, integrate
from idepcag.series import EXP_OVERFLOW


def make_problem(a, b, alpha=0.0, h=1.0, t0=0.0, horizon=20.0, impulses=None):
    return Problem(
        a=a,
        b=b,
        grid=UniformGrid(t0, h, alpha),
        impulses=impulses or ImpulseRule.none(),
        tau=t0,
        z0=1.0,
        horizon=horizon,
    )


def _j(table, k, t):
    """j(t, zeta_k) = e(t, zeta_k) exp(int_t^zeta_k a), the flow from the scalar quadrature."""
    p = table.problem
    return table.e_value(k, t) * math.exp(integrate(p.a.ev, t, p.grid.zeta(k))[0])


def _step(table, k, t, s):
    """w(t, s) = e(t, zeta_k) / e(s, zeta_k), the factor carrying z(s) to z(t)."""
    return table.e_value(k, t) / table.e_value(k, s)


def _criterion(problem, k):
    """(i_plus, i_minus) of interval k, from the window pass over it alone."""
    i_plus, i_minus, _ = KernelTable(problem).criterion(k, k + 1)
    return float(i_plus[0]), float(i_minus[0])


class TestJValue:
    def test_one_at_zeta(self):
        p = make_problem(Sin(Var("t")), Cos(Var("t")), alpha=0.5)
        assert KernelTable(p).e_value(3, p.grid.zeta(3)) == 1.0

    def test_constant_decay_pair(self):
        # a = -1, b = -1 over the unit interval: j(1, 0) = e(1, 0) e^1 = 2 - e
        p = make_problem(Const(-1.0), Const(-1.0))
        assert KernelTable(p).e_value(0, 1.0) * math.e == pytest.approx(2.0 - math.e, rel=1e-11)

    def test_linear_zero(self):
        p = make_problem(Const(0.0), Const(-2.0))
        assert KernelTable(p).e_value(0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_no_forcing_is_the_flow(self):
        # b = 0 leaves j = 1, so e(t, zeta_k) = exp(int_zeta_k^t a)
        a = Sin(Var("t"))
        table = KernelTable(make_problem(a, Const(0.0), alpha=0.3))
        for k in range(0, 4):
            for t in (k, k + 0.3, k + 0.71, k + 1):
                flow = math.exp(integrate(a.ev, k + 0.3, t)[0])
                assert table.e_value(k, t) == pytest.approx(flow, rel=1e-12)


class TestWIntra:
    def test_identity_at_equal_times(self):
        table = KernelTable(make_problem(Const(-0.3), Const(0.4), alpha=0.3))
        assert _step(table, 2, 2.7, 2.7) == 1.0

    def test_structural_family_is_one(self):
        # b = -a makes e, and so every in-interval factor, exactly 1
        for a in (Sin(Var("t")), Pow(Var("t"), 2), Const(-3.0)):
            table = KernelTable(make_problem(a, Neg(a), alpha=0.0))
            assert _step(table, 5, 6.0, 5.0) == 1.0
            assert _step(table, 5, 5.4, 5.9) == pytest.approx(1.0, abs=1e-12)

    def test_doubling_step(self):
        table = KernelTable(make_problem(Const(0.0), Const(1.0)))
        assert _step(table, 4, 5.0, 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_cocycle_within_interval(self):
        table = KernelTable(make_problem(Const(-0.5), Cos(Var("t")), alpha=0.4))
        rng = random.Random(3)
        for _ in range(8):
            t, s, r = sorted(rng.uniform(2.0, 3.0) for _ in range(3))
            lhs = _step(table, 2, t, s) * _step(table, 2, s, r)
            assert lhs == pytest.approx(_step(table, 2, t, r), rel=1e-9)

    def test_outside_interval_rejected(self):
        table = KernelTable(make_problem(Const(0.0), Const(0.5)))
        with pytest.raises(ValueError, match="outside"):
            _step(table, 2, 4.5, 2.5)

    def test_outside_interval_rejected_at_equal_times(self):
        table = KernelTable(make_problem(Const(0.0), Const(0.5)))
        with pytest.raises(ValueError, match="outside"):
            _step(table, 2, 4.5, 4.5)


class TestCriterionIntegrals:
    def test_sine_forcing_closed_form(self):
        # a = -a0, b = sin(2 pi t): delayed integral 2 pi (1 - e^a0)/(a0^2 + 4 pi^2)
        for a0 in (1.9, 2.07553, 2.2):
            p = make_problem(Const(-a0), Sin(Prod((Const(2 * math.pi), Var("t")))))
            ip, im = _criterion(p, 3)
            assert ip == 0.0
            expected = 2 * math.pi * (1 - math.exp(a0)) / (a0**2 + 4 * math.pi**2)
            assert im == pytest.approx(expected, rel=1e-10)

    def test_constant_decay_closed_form(self):
        for p_coef in (0.5, 1.0, 2.0):
            q0 = 0.7
            prob = make_problem(Const(-p_coef), Const(-q0))
            _, im = _criterion(prob, 2)
            assert im == pytest.approx(-q0 * (math.exp(p_coef) - 1) / p_coef, rel=1e-10)

    def test_no_forcing(self):
        p = make_problem(Sin(Var("t")), Const(0.0), alpha=0.3)
        assert _criterion(p, 1) == (0.0, 0.0)

    def test_j_i_consistency(self):
        rng = random.Random(5)
        for _ in range(6):
            a = Sum((Const(rng.uniform(-0.5, 0.5)), Prod((Const(rng.uniform(-0.5, 0.5)), Cos(Var("t"))))))
            b = Sum((Const(rng.uniform(-0.6, 0.6)), Prod((Const(rng.uniform(-0.4, 0.4)), Sin(Var("t"))))))
            p = make_problem(a, b, alpha=rng.random(), h=rng.uniform(0.5, 1.5))
            table = KernelTable(p)
            for k in range(0, 6):
                ip, im = _criterion(p, k)
                assert abs(_j(table, k, p.grid.knot(k)) - (1.0 - ip)) <= 1e-10
                assert abs(_j(table, k, p.grid.knot(k + 1)) - (1.0 + im)) <= 1e-10


class TestConstantCoefficients:
    """a = A, b = B: i_plus = B (e^{A (zeta - t_k)} - 1) / A and
    i_minus = B (1 - e^{-A (t_{k+1} - zeta)}) / A on every interval."""

    A, B, H = -0.8, 0.6, 1.25

    def closed_forms(self, alpha):
        A, B, H = self.A, self.B, self.H
        i_plus = B * math.expm1(A * alpha * H) / A
        i_minus = -B * math.expm1(-A * (1.0 - alpha) * H) / A
        return i_plus, i_minus

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_both_sides_closed_form(self, alpha):
        p = make_problem(Const(self.A), Const(self.B), alpha=alpha, h=self.H)
        i_plus, i_minus, _ = KernelTable(p).criterion(0, 8)
        want_plus, want_minus = self.closed_forms(alpha)
        for n in range(8):
            assert i_plus[n] == pytest.approx(want_plus, rel=1e-12)
            assert i_minus[n] == pytest.approx(want_minus, rel=1e-12)

    def test_rows_are_shift_invariant(self):
        p = make_problem(Const(self.A), Const(self.B), alpha=0.4, h=self.H, t0=-3.0, horizon=40.0)
        i_plus, i_minus, _ = KernelTable(p).criterion(0, 20)
        assert i_plus == pytest.approx(np.full(20, i_plus[0]), rel=1e-12)
        assert i_minus == pytest.approx(np.full(20, i_minus[0]), rel=1e-12)

    def test_e_at_knots_closed_form(self):
        # e(t, zeta_k) = j(t, zeta_k) exp(-A (zeta_k - t)), with j = 1 - i_plus at t_k
        # and 1 + i_minus at t_{k+1}
        alpha, A, H = 0.6, self.A, self.H
        table = KernelTable(make_problem(Const(A), Const(self.B), alpha=alpha, h=H))
        i_plus, i_minus = self.closed_forms(alpha)
        for k in range(0, 5):
            e_k, e_k1, _ = table.e_at_knots(k)
            assert e_k == pytest.approx((1.0 - i_plus) * math.exp(-A * alpha * H), rel=1e-12)
            assert e_k1 == pytest.approx((1.0 + i_minus) * math.exp(A * (1.0 - alpha) * H), rel=1e-12)

    def test_no_forcing_window_is_zero(self):
        p = make_problem(Cos(Var("t")), Const(0.0), alpha=0.5)
        i_plus, i_minus, err = KernelTable(p).criterion(0, 6)
        assert not i_plus.any() and not i_minus.any() and not err.any()


class TestIntervalKernel:
    def test_lagged_grid_rejected(self):
        from idepcag.grid import LaggedUniformGrid

        p = Problem(
            a=Const(-1.0),
            b=Const(-0.1),
            grid=LaggedUniformGrid(0.0, 1.0, 1),
            tau=0.0,
            z0=1.0,
            horizon=5.0,
            history=(1.0,),
        )
        with pytest.raises(ValueError, match="non-lagged"):
            KernelTable(p)


# -- criterion windows as one array pass ----------------------------------------

def _definitional(problem, k):
    """(i_plus, i_minus) of interval k from the scalar quadrature, one row at a time."""
    a, b, grid = problem.a, problem.b, problem.grid
    tk, zeta, tk1 = grid.knot(k), grid.zeta(k), grid.knot(k + 1)
    tol = default_rel_tol()

    def integrand(s):
        inner = integrate(a.ev, s, zeta, 0.1 * tol)[0]
        return math.exp(inner) * b.ev(s)

    return integrate(integrand, tk, zeta, tol)[0], integrate(integrand, zeta, tk1, tol)[0]


def _explicit_grid(t0, steps, alphas):
    knots = [t0]
    for h in steps:
        knots.append(knots[-1] + h)
    zetas = [lo + f * (hi - lo) for lo, hi, f in zip(knots, knots[1:], alphas)]
    return ExplicitGrid(tuple(knots), tuple(zetas))


_ALPHA = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_COEF = st.floats(-1.0, 1.0)


@st.composite
def _window_problems(draw):
    """A problem with constant or varying a, on a uniform or explicit grid."""
    if draw(st.booleans()):
        a = Const(draw(st.floats(-2.0, 2.0)))
    else:
        a = Sum((Const(draw(_COEF)), Prod((Const(draw(_COEF)), Sin(Var("t"))))))
    omega = draw(st.floats(0.5, 2 * math.pi))
    b = Sum((Const(draw(_COEF)), Prod((Const(draw(_COEF)), Sin(Prod((Const(omega), Var("t"))))))))
    t0 = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        grid = UniformGrid(t0, draw(st.floats(0.2, 1.5)), draw(_ALPHA))
    else:
        steps = draw(st.lists(st.floats(0.2, 1.5), min_size=6, max_size=6))
        grid = _explicit_grid(t0, steps, draw(st.lists(_ALPHA, min_size=6, max_size=6)))
    return Problem(a=a, b=b, grid=grid, impulses=ImpulseRule.none(), tau=t0, z0=1.0,
                   horizon=grid.knot(5))


class TestCriterionWindowPass:
    @settings(max_examples=40, deadline=None)
    @given(_window_problems(), st.integers(0, 3))
    @example(  # h = 1, alpha = 0 of sine_forcing: every delayed row refines
        make_problem(Const(-2.2), parse_expression("sin(2*pi*t)")), 0
    )
    def test_matches_scalar_definitional_quadrature(self, problem, k_lo):
        tol = default_rel_tol()
        i_plus, i_minus, err = KernelTable(problem).criterion(k_lo, 6)
        assert len(i_plus) == len(i_minus) == len(err) == 6 - k_lo
        for n, k in enumerate(range(k_lo, 6)):
            want_plus, want_minus = _definitional(problem, k)
            assert abs(i_plus[n] - want_plus) <= 10 * tol * max(1.0, abs(want_plus))
            assert abs(i_minus[n] - want_minus) <= 10 * tol * max(1.0, abs(want_minus))
            assert err[n] >= 0.0

    @pytest.mark.parametrize(
        "a, b, alpha, k_end",
        [
            (Sin(Var("t")), "0.3 - 0.5*cos(3*t)", 0.4, 5),
            # h = 1, alpha = 0: all 150 delayed rows refine, 64 at a time
            (Const(-2.2), "sin(2*pi*t)", 0.0, 152),
        ],
    )
    def test_one_interval_is_the_window_of_one(self, a, b, alpha, k_end):
        p = make_problem(a, parse_expression(b), alpha=alpha, horizon=200.0)
        i_plus, i_minus, err = KernelTable(p).criterion(2, k_end)
        for n, k in enumerate(range(2, k_end)):
            row = tuple(float(x[0]) for x in KernelTable(p).criterion(k, k + 1))
            assert row == (i_plus[n], i_minus[n], err[n])

    @settings(max_examples=30, deadline=None)
    @given(_window_problems(), st.integers(0, 4))
    @example(  # every delayed row refines
        make_problem(Const(-2.2), parse_expression("sin(2*pi*t)")), 0
    )
    @example(make_problem(parse_expression("-2.2 + 0.5*sin(t)"), parse_expression("cos(3*t)"),
                          alpha=0.3), 1)
    def test_one_side_gives_the_extremum_of_both_bitwise(self, problem, k_lo):
        both = _window_extrema(problem, (k_lo, 5))
        for i, quantity in enumerate(EXTREMA):
            assert _window_extrema(problem, (k_lo, 5), quantity).hex() == both[i].hex()
        table = KernelTable(problem)
        i_plus, i_minus, _ = table.criterion(k_lo, k_lo + 1)
        assert table.criterion(k_lo, k_lo + 1, "plus")[0].tobytes() == i_plus.tobytes()
        assert table.criterion(k_lo, k_lo + 1, "minus")[0].tobytes() == i_minus.tobytes()

    def test_unknown_quantity_is_refused(self):
        p = make_problem(Const(-1.0), Const(0.5))
        with pytest.raises(ValueError, match="quantity must be one of"):
            _window_extrema(p, (0, 4), "sup_i")

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_zero_length_rows_are_exactly_zero(self, alpha):
        for a in (Const(-0.7), Sin(Var("t"))):
            p = make_problem(a, Cos(Var("t")), alpha=alpha)
            i_plus, i_minus, err = KernelTable(p).criterion(0, 10)
            empty = i_plus if alpha == 0.0 else i_minus
            assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in empty)
            assert all(x != 0.0 for x in (i_minus if alpha == 0.0 else i_plus))

    @pytest.mark.parametrize("a", ["800", "800 + 0*t"])
    def test_flow_weight_overflow_is_an_overflow_error(self, a):
        # exp(int_s^zeta a) reaches exp(800) on the advanced part
        p = make_problem(parse_expression(a), Const(0.1), alpha=1.0)
        with pytest.raises(OverflowError, match="flow weight"):
            KernelTable(p).criterion(0, 4)

    def test_vanishing_b_skips_the_overflow_check(self):
        p = make_problem(Const(800.0), Const(0.0), alpha=1.0)
        assert _window_extrema(p, (0, 4)) == (0.0, 0.0, 0.0, 0.0)

    def test_explicit_grid_must_cover_the_window(self):
        grid = _explicit_grid(0.0, [1.0] * 4, [0.5] * 4)
        p = Problem(a=Const(-1.0), b=Const(0.5), grid=grid, tau=0.0, z0=1.0, horizon=3.5)
        assert len(KernelTable(p).criterion(0, 4)[0]) == 4
        with pytest.raises(GridRangeError):
            KernelTable(p).criterion(2, 6)

    def test_scalar_integrate_is_never_called(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar integrate called")

        # every scalar integral, whichever module calls it, starts with _gk15
        monkeypatch.setattr(quadrature_module, "_gk15", refuse)
        for a in (Const(-0.9), Sin(Var("t"))):
            p = make_problem(a, parse_expression("sin(2*pi*t)"), alpha=0.3)
            assert len(_window_extrema(p, (0, 12))) == 4


# -- the constant-a integrand of the window pass -----------------------------------

def _gathered_integrand(a, gs, zetas, s):
    """The integrand at the nodes ``s`` as a gather of the nodes where g != 0,
    the flow weight and overflow test there, and a scatter into zeros."""
    nz = gs != 0.0
    at = np.broadcast_to(zetas[:, None], s.shape)[nz]
    w = a * (at - s[nz])
    over = w > EXP_OVERFLOW
    if over.any():
        where = f"s={float(s[nz][np.argmax(over)])!r}"
        raise OverflowError(f"flow weight exp({w[over][0]:.3g}) overflows at {where}")
    out = np.zeros_like(gs)
    out[nz] = np.exp(w) * gs[nz]
    return out


def _window_integrand(a, gs, zetas):
    """The integrand that flow_weighted_integral hands to the row pass, for
    constant ``a``, g read as ``gs`` and gamma as ``zetas``; called as the row
    pass calls it, with numpy's floating-point warnings off."""
    handed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_module, "integrate", lambda f, *args: handed.append(f))
        flow_weighted_integral(Const(a), lambda s: gs, np.zeros(1), np.ones(1), lambda _: zetas)
    return np.errstate(all="ignore")(handed[0])


def _floats(draw, n, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))


@st.composite
def _node_matrices(draw):
    """(a, g, zeta of each row, GK15 node matrix); g vanishes at random nodes, and
    unless a is small the largest a (zeta - s) lies within 9 of exp's overflow."""
    n = draw(st.integers(1, 5))
    lo, h = _floats(draw, n, -4.0, 4.0), _floats(draw, n, 1e-3, 2.0)
    s = (lo + h)[:, None] + h[:, None] * quadrature_module._NODES
    zetas = lo + 2.0 * h * _floats(draw, n, 0.0, 1.0)
    gs = _floats(draw, 15 * n, -2.0, 2.0).reshape(n, 15)
    gs[np.array(draw(st.lists(st.booleans(), min_size=15 * n, max_size=15 * n))).reshape(n, 15)] = 0
    # the largest a (zeta - s) of a = top / reach is top, near EXP_OVERFLOW = 709
    reach = np.max(zetas[:, None] - s)
    a = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(700.0, 718.0).map(lambda top: top / reach)))
    return a, gs, zetas, s


class TestConstantFlowIntegrand:
    """For constant a the integrand takes a(gamma - s) over the whole node matrix;
    it is bitwise the gathered form, and raises its error with the same text."""

    @settings(max_examples=150, deadline=None)
    @given(_node_matrices())
    # a (zeta - s) runs from 800 down to 400; it passes 709 only where g vanishes
    @example((400.0, np.array([[0.0] * 4 + [1.0] * 11]), np.array([1.0]),
              np.linspace(-1.0, 0.0, 15)[None, :]))
    def test_is_the_gathered_form_bitwise(self, case):
        a, gs, zetas, s = case
        integrand = _window_integrand(a, gs, zetas)
        try:
            want = _gathered_integrand(a, gs, zetas, s)
        except OverflowError as exc:
            with pytest.raises(OverflowError) as info:
                integrand(s)
            assert str(info.value) == str(exc)
            return
        got = integrand(s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_the_first_node_past_exp_709_where_g_does_not_vanish_is_named(self):
        s = np.linspace(-1.0, 0.0, 15)[None, :]  # a (zeta - s) runs from 1440 down to 720
        gs = np.ones((1, 15))
        gs[0, :3] = 0.0
        integrand = _window_integrand(720.0, gs, np.array([1.0]))
        with pytest.raises(OverflowError) as info:
            integrand(s)
        at = float(s[0, 3])
        assert str(info.value) == f"flow weight exp({720.0 * (1.0 - at):.3g}) overflows at s={at!r}"
        gs[0, :] = 0.0
        assert _window_integrand(720.0, gs, np.array([1.0]))(s).tolist() == [[0.0] * 15]
