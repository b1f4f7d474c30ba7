"""Property tests of the Chebyshev series route for e, dense values and zeros.

Each property is compared against the definitional adaptive quadrature of
:meth:`KernelTable.criterion`, against a closed form, against the RK4
oracle or against the Gronwall envelope.
"""

import math
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idepcag.expressions import Const, Cos, Neg, Prod, Sin, Sum, Var
from idepcag.grid import ExplicitGrid, LaggedUniformGrid, UniformGrid
from idepcag.kernel import KernelTable, SingularKernel, w_intra
from idepcag.oracle import oracle_integrate
from idepcag.oscillation import GronwallBound
from idepcag.problem import ImpulseRule, Problem
from idepcag.solver import solve

PROPERTY = settings(max_examples=40, deadline=None)

_coef = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_freq = st.floats(min_value=0.5, max_value=4.0, allow_nan=False)


def _wave(c0, c1, omega, fn=Sin):
    return Sum((Const(c0), Prod((Const(c1), fn(Prod((Const(omega), Var("t"))))))))


@st.composite
def kernel_problems(draw, max_intervals=6):
    h = draw(st.floats(min_value=0.5, max_value=1.5))
    n = draw(st.integers(min_value=2, max_value=max_intervals))
    a = _wave(draw(_coef), draw(_coef), draw(_freq))
    b = _wave(3.0 * draw(_coef), draw(_coef), draw(_freq), Cos)
    return Problem(
        a=a,
        b=b,
        grid=UniformGrid(0.0, h, draw(st.floats(min_value=0.0, max_value=1.0))),
        impulses=ImpulseRule.multiplier(draw(st.sampled_from([-1.2, -0.8, 0.9, 1.1]))),
        tau=0.0,
        z0=draw(st.sampled_from([-1.0, 1.0])),
        horizon=n * h,
    )


@st.composite
def lagged_problems(draw):
    return Problem(
        a=_wave(draw(_coef), draw(_coef), draw(_freq)),
        b=_wave(3.0 * draw(_coef), draw(_coef), draw(_freq), Cos),
        grid=LaggedUniformGrid(0.0, 1.0, 1),
        tau=0.0,
        z0=draw(st.sampled_from([-1.0, 1.0])),
        horizon=float(draw(st.integers(min_value=2, max_value=6))),
        history=(draw(st.floats(min_value=-1.5, max_value=1.5)),),
    )


@PROPERTY
@given(kernel_problems())
def test_knot_values_match_criterion_integrals(p):
    # j(t_k) = 1 - i_plus and j(t_{k+1}) = 1 + i_minus (definitional quadrature)
    table = KernelTable(p)
    for k in range(0, p.grid.interval_index(p.horizon)):
        i_plus, i_minus, _ = table.criterion(k)
        assert abs(table.j_value(k, p.grid.knot(k)) - (1.0 - i_plus)) <= 1e-10
        assert abs(table.j_value(k, p.grid.knot(k + 1)) - (1.0 + i_minus)) <= 1e-10


@PROPERTY
@given(
    st.floats(min_value=-30.0, max_value=30.0).filter(lambda a: abs(a) >= 1e-3),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_constant_coefficients_closed_form(a0, b0, alpha, fractions):
    # e(t, zeta) = 1 + (a+b)/a (exp(a (t - zeta)) - 1); |a| up to 30 splits panels
    p = Problem(a=Const(a0), b=Const(b0), grid=UniformGrid(0.0, 1.0, alpha), horizon=5.0)
    table = KernelTable(p)
    k = 3
    zeta = p.grid.zeta(k)
    for f in fractions:
        t = p.grid.knot(k) + f
        exact = 1.0 + (a0 + b0) / a0 * math.expm1(a0 * (t - zeta))
        assert abs(table.e_value(k, t) - exact) <= 1e-12 * max(1.0, abs(exact))


@PROPERTY
@given(_coef, _coef, _freq, st.floats(min_value=0.0, max_value=1.0), st.floats(0.0, 1.0))
def test_structural_family_is_exactly_one(c0, c1, omega, alpha, f):
    a = _wave(4.0 * c0, 4.0 * c1, omega)
    p = Problem(a=a, b=Neg(a), grid=UniformGrid(0.0, 1.0, alpha), horizon=5.0)
    table = KernelTable(p)
    t = 2.0 + f
    assert table.e_value(2, t) == 1.0
    assert w_intra(p, 2, t, 2.0) == 1.0


def _solved(p):
    try:
        return solve(p)
    except SingularKernel:  # e vanished at a base point: nothing to compare
        assume(False)


def _assert_roots_change_sign(traj):
    grid, delta = traj.problem.grid, 1e-9
    for k, root in traj.zero_list():
        lo, hi = grid.knot(k), min(grid.knot(k + 1), traj.problem.horizon)
        if root - lo <= 10 * delta or hi - root <= 10 * delta:
            continue
        before, after = traj.value(root - delta), traj.value(root + delta)
        assert before * after < 0.0, (k, root, before, after)


@PROPERTY
@given(kernel_problems())
def test_kernel_roots_are_sign_changes(p):
    _assert_roots_change_sign(_solved(p))


@PROPERTY
@given(lagged_problems())
def test_lagged_roots_are_sign_changes(p):
    _assert_roots_change_sign(_solved(p))


@PROPERTY
@given(st.one_of(kernel_problems(max_intervals=4), lagged_problems()), st.floats(0.0, 1.0))
def test_repeated_solves_are_bitwise_equal(p, f):
    first, second = _solved(p), solve(p)
    assert first.skeleton() == second.skeleton()
    assert first.zero_list() == second.zero_list()
    t = p.tau + f * (p.horizon - p.tau)
    assert first.value(t) == second.value(t)


@st.composite
def _uniform_grids(draw):
    h = draw(st.floats(min_value=0.5, max_value=1.5))
    return UniformGrid(0.0, h, draw(st.floats(min_value=0.0, max_value=1.0)))


@st.composite
def _explicit_grids(draw):
    widths = draw(st.lists(st.floats(min_value=0.3, max_value=1.5), min_size=4, max_size=8))
    knots = list(accumulate(widths, initial=0.0))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(widths), max_size=len(widths)))
    zetas = [min(lo + f * (hi - lo), hi) for lo, hi, f in zip(knots, knots[1:], fracs)]
    return ExplicitGrid(tuple(knots), tuple(zetas))


_small_c = st.floats(min_value=-0.5, max_value=0.5)
_impulses = st.one_of(
    st.just(ImpulseRule.none()),
    _small_c.map(ImpulseRule.constant),
    (st.floats(min_value=0.5, max_value=1.5) | st.floats(min_value=-1.5, max_value=-0.5)).map(
        ImpulseRule.multiplier
    ),
    _small_c.map(ImpulseRule.alternating),
    st.lists(_small_c, min_size=10, max_size=10).map(ImpulseRule.explicit),
    st.tuples(_small_c, _small_c).map(
        lambda c: ImpulseRule.from_expression(
            Sum((Const(c[0]), Prod((Const(c[1]), Sin(Var("k"))))))
        )
    ),
)


@st.composite
def small_problems(draw):
    """Variable a and b on a uniform or explicit grid, tau strictly inside an interval."""
    grid = draw(st.one_of(_uniform_grids(), _explicit_grids()))
    k0 = draw(st.integers(min_value=0, max_value=1))
    lo, hi = grid.knot(k0), grid.knot(k0 + 1)
    tau = lo + draw(st.floats(min_value=0.05, max_value=0.95)) * (hi - lo)
    horizon = min(tau + draw(st.floats(min_value=0.5, max_value=4.0)), grid.knot(4) - 0.01)
    return Problem(
        a=_wave(draw(_coef), draw(_coef), draw(_freq)),
        b=_wave(draw(_coef), draw(_coef), draw(_freq), Cos),
        grid=grid,
        impulses=draw(_impulses),
        tau=tau,
        z0=draw(st.sampled_from([-1.0, 1.0])),
        horizon=horizon,
    )


def _sample_times(p, fractions):
    return [p.tau + f * (p.horizon - p.tau) for f in fractions]


_fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)


@PROPERTY
@given(small_problems(), _fractions)
def test_kernel_route_matches_oracle(p, fractions):
    try:
        kernel_traj = solve(p)
    except SingularKernel:
        with pytest.raises(SingularKernel):
            oracle_integrate(p, 2000)
        return
    oracle_traj = oracle_integrate(p, 2000)
    ts = _sample_times(p, fractions)
    zs = [kernel_traj.value(t) for t in ts]
    scale = max([1.0] + [abs(z) for z in zs])
    for t, z in zip(ts, zs):
        assert abs(z - oracle_traj.value(t)) <= 1e-9 * scale, t


@PROPERTY
@given(small_problems(), _fractions)
def test_solution_stays_inside_gronwall_envelope(p, fractions):
    try:
        envelope = GronwallBound(p)
    except ValueError as exc:  # theta_hat >= 1: the bound does not apply
        assert "theta_hat" in str(exc)
        return
    traj = solve(p)
    for t in _sample_times(p, fractions):
        assert abs(traj.value(t)) <= envelope.bound(t) * (1.0 + 1e-9), t
