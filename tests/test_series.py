"""Property tests of the Chebyshev series route for e, dense values and zeros.

Each property is compared against the definitional adaptive quadrature of
:meth:`KernelTable.criterion`, against a closed form, against the RK4
oracle or against the Gronwall envelope.
"""

import dataclasses
import gc
import json
import math
from bisect import bisect_right
from decimal import Decimal
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idepcag import series as series_module
from idepcag import solver as solver_module
from idepcag.cli import build_problem
from idepcag.expressions import Const, Cos, Neg, Prod, Sin, Sum, Var, parse_expression
from idepcag.grid import ExplicitGrid, LaggedUniformGrid, UniformGrid
from idepcag.kernel import KernelTable, SingularKernel, w_intra
from idepcag.oracle import oracle_integrate
from idepcag.oscillation import GronwallBound
from idepcag.problem import ImpulseRule, Problem
from idepcag.quadrature import QuadratureError
from idepcag.series import IntervalSeries, PanelTable, build_sides
from idepcag.solver import Trajectory, solve

PROPERTY = settings(max_examples=40, deadline=None)

_coef = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_freq = st.floats(min_value=0.5, max_value=4.0, allow_nan=False)


def _wave(c0, c1, omega, fn=Sin):
    return Sum((Const(c0), Prod((Const(c1), fn(Prod((Const(omega), Var("t"))))))))


# -- a scalar reference: one point read alone, on one panel, summed on floats ---------


def _clenshaw_reference(c, x):
    b1 = b2 = 0.0
    for ck in reversed(c[1:]):
        b1, b2 = ck + 2.0 * x * b1 - b2, b1
    return c[0] + x * b1 - b2


def _reference_panel(series, t):
    """The panel a point t off the anchor is read on: the last panel of its side
    that starts at or before t, or the side's first or last one past its ends."""
    series.require(t)  # builds the side on first use, and raises its failure
    lo, anchor, hi = series.lo, series.anchor, series.hi
    los, panels, _ = series._sides[t > anchor if lo < anchor < hi else anchor < hi]
    return panels[min(max(bisect_right(los, t) - 1, 0), len(panels) - 1)]


def _reference_read(panel, t):
    """(A(t), y(t)) on ``panel``, entered with its A0 and y0."""
    x = (t - panel.mid) / panel.hw
    local = _clenshaw_reference(panel.A.tolist(), x)
    return panel.A0 + local, math.exp(local) * (panel.y0 + _clenshaw_reference(panel.C.tolist(), x))


def _reference_terms(series, t):
    """(A(t), y(t)): exactly 0 at the anchor, else read on :func:`_reference_panel`."""
    return (0.0, 0.0) if t == series.anchor else _reference_read(_reference_panel(series, t), t)


def _reference_u(series, t, flow, forced, const):
    """forced y + const + flow exp(A) at t, the flow term only where flow is not 0."""
    A, y = _reference_terms(series, t)
    u = forced * y + const
    return u + flow * math.exp(A) if flow else u


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
def small_problems(draw, b0=_coef):
    """Variable a and b on a uniform or explicit grid, tau strictly inside an
    interval; b0 draws the constant term of b."""
    grid = draw(st.one_of(_uniform_grids(), _explicit_grids()))
    k0 = draw(st.integers(min_value=0, max_value=1))
    lo, hi = grid.knot(k0), grid.knot(k0 + 1)
    tau = lo + draw(st.floats(min_value=0.05, max_value=0.95)) * (hi - lo)
    horizon = min(tau + draw(st.floats(min_value=0.5, max_value=4.0)), grid.knot(4) - 0.01)
    return Problem(
        a=_wave(draw(_coef), draw(_coef), draw(_freq)),
        b=_wave(draw(b0), draw(_coef), draw(_freq), Cos),
        grid=grid,
        impulses=draw(_impulses),
        tau=tau,
        z0=draw(st.sampled_from([-1.0, 1.0])),
        horizon=horizon,
    )


def crossing_problems():
    """small_problems() with the constant term of b in +-[1, 3]: the forcing
    outweighs the decay of z0 = +-1, so z crosses zero in about a third of the
    draws, where small_problems() gives a zero in about 2 % of them."""
    return small_problems(b0=st.floats(1.0, 3.0) | st.floats(-3.0, -1.0))


def _sample_times(p, fractions):
    # tau + 1.0 * (horizon - tau) can round past the horizon
    return [min(p.tau + f * (p.horizon - p.tau), p.horizon) for f in fractions]


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
@given(small_problems())
def test_oracle_zeros_match_solver_zeros(p):
    try:
        zeros = solve(p).zero_list()
    except SingularKernel:  # e vanished at a base point: nothing to compare
        assume(False)
    oracle_zeros = oracle_integrate(p, 2000).zero_list()
    assert [k for k, _ in oracle_zeros] == [k for k, _ in zeros]
    for (k, root), (_, oracle_root) in zip(zeros, oracle_zeros):
        assert abs(oracle_root - root) <= 1e-8 * max(1.0, abs(root)), (k, root, oracle_root)


@PROPERTY
@given(crossing_problems())
def test_oracle_zeros_match_solver_zeros_where_z_crosses(p):
    # the oracle bisects each sign change between its nodes through its
    # one-point batch read; the solver takes the roots of its series
    try:
        zeros = solve(p).zero_list()
    except SingularKernel:
        assume(False)
    oracle_zeros = oracle_integrate(p, 2000).zero_list()
    assert [k for k, _ in oracle_zeros] == [k for k, _ in zeros]
    for (k, root), (_, oracle_root) in zip(zeros, oracle_zeros):
        assert abs(oracle_root - root) <= 1e-8 * max(1.0, abs(root)), (k, root, oracle_root)


@PROPERTY
@given(crossing_problems())
def test_kernel_roots_are_sign_changes_where_z_crosses(p):
    _assert_roots_change_sign(_solved(p))


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


@st.composite
def knot_start_problems(draw):
    """Variable a and b on a uniform or explicit grid, tau on a knot."""
    grid = draw(st.one_of(_uniform_grids(), _explicit_grids()))
    tau = grid.knot(draw(st.integers(min_value=0, max_value=1)))
    return Problem(
        a=_wave(draw(_coef), draw(_coef), draw(_freq)),
        b=_wave(3.0 * draw(_coef), draw(_coef), draw(_freq), Cos),
        grid=grid,
        impulses=draw(_impulses),
        tau=tau,
        z0=draw(st.sampled_from([-1.0, 1.0])),
        horizon=min(tau + draw(st.floats(min_value=0.5, max_value=4.0)), grid.knot(4) - 0.01),
    )


@PROPERTY
@given(knot_start_problems(), st.floats(min_value=0.01, max_value=0.99))
def test_dense_values_are_kernel_table_steps(p, f):
    # the solver and KernelTable each build the series of interval k, from the
    # same a, a + b, knots and zeta_k, so z(t) = w(t, t_k) z(t_k) holds bitwise
    traj, table, grid = _solved(p), KernelTable(p), p.grid
    for k in range(traj.k_start, grid.interval_index(p.horizon) + 1):
        t_k = grid.knot(k)
        t = t_k + f * (min(grid.knot(k + 1), p.horizon) - t_k)
        try:
            expected = table.w_intra(k, t, t_k) * traj.knot_value(k)
        except SingularKernel:  # e(t_k) vanished on the unsolved last interval
            with pytest.raises(SingularKernel):
                traj.value(t)
            continue
        assert traj.value(t) == expected, (k, t)


# 1.0, 0.75 and 0.5 stay exact at 2^-1060, deep in the subnormal range
_EXACT_AT_SCALE = st.sampled_from([1.0, -1.0, 0.75, -0.75, 0.5])


@PROPERTY
@given(
    st.one_of(kernel_problems(), lagged_problems()),
    _EXACT_AT_SCALE,
    _EXACT_AT_SCALE,
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_scaling_by_a_power_of_two_is_exact(p, z0, h0, fractions):
    # the march carries z as frexp pairs, so scaling z0 and the history by
    # 2^-1060 scales every value by exactly that and keeps signs and roots
    def start(scale):
        history = (math.ldexp(h0, scale),) if p.grid.lagged else None
        return dataclasses.replace(p, z0=math.ldexp(z0, scale), history=history)

    first, scaled = _solved(start(0)), solve(start(-1060))
    knots = [pt.t for pt in first.skeleton()]
    for t in knots + [p.tau + f * (p.horizon - p.tau) for f in fractions]:
        for side in ("left", "right"):
            expected = math.ldexp(first.value(t, side), -1060)
            assert scaled.value(t, side).hex() == expected.hex(), (t, side)
    signs = [(pt.sign_left, pt.sign_right) for pt in first.skeleton()]
    assert [(pt.sign_left, pt.sign_right) for pt in scaled.skeleton()] == signs
    assert scaled.zero_list() == first.zero_list()


# -- the zero search: panels that keep one sign, and root acceptance ------------

SINE_FORCING = Path(__file__).resolve().parent.parent / "configs" / "sine_forcing.json"


def _zero_search_spies(mp):
    """Record, for every panel the zero search visits, the combination
    searched, the panel's ends, its fit and whether the bound skipped it; a
    panel that the screen of its coefficients clears before any fit is a
    skipped visit with no fit.  Count the colleague-matrix solves."""
    visits, colleague_calls, jobs, rows = [], [], [], []
    real_search, real_fit = solver_module.zero_search, series_module._fit
    real_keeps, real_colleague = series_module._keeps_sign, series_module._colleague_roots
    real_screen = series_module._one_signed

    def zero_search(table, batch):
        def recorded():
            for job in batch:
                jobs.append(job)
                yield job

        return real_search(table, recorded())

    def job_of(lo):
        series, _, _, *coefs = next(j for j in jobs if j[0] and j[0].lo <= lo < j[0].hi)
        return series, coefs

    def one_signed(table, panel_rows, *coefs):
        cleared = real_screen(table, panel_rows, *coefs)
        cleared_rows = panel_rows[cleared]
        for lo, hi in zip(table._lo[cleared_rows].tolist(), table._hi[cleared_rows].tolist()):
            visits.append((*job_of(lo), (lo, hi), None, True))
        return cleared

    def fit(f, lo, hi):
        rows[:] = zip(lo.tolist(), hi.tolist())  # a zero search fits its panels last
        return real_fit(f, lo, hi)

    def keeps_sign(c, err):
        kept = real_keeps(c, err)
        lo, hi = rows.pop(0)  # the panels reach the bound in the order they were fitted
        visits.append((*job_of(lo), (lo, hi), c, kept))
        return kept

    def colleague_roots(c):
        colleague_calls.append(len(c))
        return real_colleague(c)

    mp.setattr(solver_module, "zero_search", zero_search)
    mp.setattr(series_module, "_fit", fit)
    mp.setattr(series_module, "_one_signed", one_signed)
    mp.setattr(series_module, "_keeps_sign", keeps_sign)
    mp.setattr(series_module, "_colleague_roots", colleague_roots)
    return visits, colleague_calls


@PROPERTY
@given(st.one_of(kernel_problems(), lagged_problems()))
def test_a_skipped_panel_holds_no_root(p):
    # where |c_0| > sum_{k>=1} |c_k| + err skips a panel, its colleague matrix
    # has no eigenvalue that the search would take for a real root in [-1, 1],
    # and u has the sign of c_0 at 257 points of the panel
    with pytest.MonkeyPatch.context() as mp:
        visits, _ = _zero_search_spies(mp)
        _solved(p).zero_list()
    tol = series_module._ROOT_IMAG_TOL
    for series, coefs, (lo, hi), c, kept in visits:
        if not kept or c is None:  # a panel the screen cleared has no fit: see below
            continue
        trimmed = np.trim_zeros(c, "b")
        if len(trimmed) >= 2:
            for r in series_module._colleague_roots(trimmed):
                assert abs(r.imag) > tol or abs(r.real) > 1.0 + tol, (lo, hi, r)
        for t in np.linspace(lo, hi, 257):
            assert np.sign(_reference_u(series, float(t), *coefs)) == np.sign(c[0]), (lo, hi, t)


@PROPERTY
@given(st.one_of(kernel_problems(), lagged_problems()))
def test_a_panel_the_screen_clears_holds_no_root(p):
    # where the bound from a panel's coefficients clears 0, u has one sign and
    # is above the touch threshold at 257 points of the panel and at the
    # bracket reads 1e-8 hw past both its ends, read on that panel's series
    with pytest.MonkeyPatch.context() as mp:
        visits, _ = _zero_search_spies(mp)
        _solved(p).zero_list()
    for series, (flow, forced, const), (lo, hi), c, _ in visits:
        if c is not None:
            continue
        panel = _reference_panel(series, 0.5 * (lo + hi))
        d = series_module._ROOT_IMAG_TOL * panel.hw
        rounding = 2 * (len(panel.A) + len(panel.C)) * np.finfo(float).eps
        signs = set()
        for t in [lo - d, *np.linspace(lo, hi, 257).tolist(), hi + d]:
            A, y = _reference_read(panel, t)
            terms = (forced * y, flow * math.exp(A) if flow else 0.0, const)
            u, size = sum(terms), sum(map(abs, terms))
            assert abs(u) > rounding * size, (lo, hi, t)
            signs.add(np.sign(u))
        assert len(signs) == 1, (lo, hi)


@PROPERTY
@given(st.one_of(kernel_problems(), lagged_problems()))
def test_a_screen_that_clears_nothing_finds_the_same_zeros(p):
    traj = _solved(p)
    zeros = [(k, t.hex()) for k, t in traj.zero_list()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_one_signed", lambda table, rows, *coefs: rows < 0)
        assert [(k, t.hex()) for k, t in traj.zero_list()] == zeros


def _sine_forcing():
    return build_problem(json.loads(SINE_FORCING.read_text()))


def _sine_forcing_zeros():
    return solve(_sine_forcing()).zero_list()


def test_skipped_panels_save_colleague_solves_and_keep_the_roots():
    with pytest.MonkeyPatch.context() as mp:
        visits, colleague_calls = _zero_search_spies(mp)
        roots = _sine_forcing_zeros()
    # z has one root in each of the 60 intervals, on the last of its 3 panels;
    # only those 60 of the 180 panels searched reach the colleague matrix, and
    # the screen clears the other 120 before any fit
    assert (len(visits), len(colleague_calls), len(roots)) == (180, 60, 60)
    assert sum(c is None for _, _, _, c, _ in visits) == 120
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_keeps_sign", lambda c, err: False)
        assert _sine_forcing_zeros() == roots
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_one_signed", lambda table, rows, *coefs: rows < 0)
        assert _sine_forcing_zeros() == roots


@pytest.mark.parametrize("a", [-40.0, -200.0, 40.0])
def test_no_false_zeros_of_a_pure_flow(a):
    # b = 0 on a lagged grid: z = z(t_k) exp(a (t - t_k)) keeps its sign, but the
    # colleague matrix of one unsplit panel of its fit has real eigenvalues
    # where the flow has decayed below the fit's rounding; u changes no sign
    # across them and is far above its own rounding there, so none is kept
    p = Problem(
        a=Const(a), b=Const(0.0), grid=LaggedUniformGrid(0.0, 1.0, 1),
        tau=0.0, z0=1.0, horizon=3.0, history=(1.0,),
    )
    assert solve(p).zero_list() == []


def _pure_flow(a):
    """z' = a z on a lagged grid with h = 1: z(t_k) = e^{a k}."""
    return Problem(
        a=Const(a), b=Const(0.0), grid=LaggedUniformGrid(0.0, 1.0, 1),
        tau=0.0, z0=1.0, horizon=3.0, history=(1.0,),
    )


@pytest.mark.parametrize("a", [-744.0, -745.0, -2000.0])
def test_a_pure_flow_below_the_float_range_keeps_its_knot_values(a):
    # p exp(a) is subnormal at a = -744 and 0 from a = -745 on; the march
    # carries exp(a)'s binary exponent, so each knot pair holds e^{a k}
    traj = solve(_pure_flow(a))
    assert traj.zero_list() == []
    assert [pt.sign_right for pt in traj.skeleton()] == [1, 1, 1, 1]
    for k in (1, 2, 3):
        m, x = traj._pairs[k]
        exact = (Decimal(a) * k).exp()
        assert abs(Decimal(m) * Decimal(2) ** x / exact - 1) <= Decimal("1e-12"), k


def test_a_pure_flow_in_the_float_range_is_unchanged():
    # e^{-700 k} stays normal at k = 1: no knot takes the exponent carry
    pairs = solve(_pure_flow(-700.0))._pairs
    assert [(pairs[k][0].hex(), pairs[k][1]) for k in (1, 2, 3)] == [
        ("0x1.14f2b0fb9307fp-1", -1009),
        ("0x1.2b9c33b18b060p-1", -2019),
        ("0x1.44207086197cap-1", -3029),
    ]


@pytest.mark.parametrize("t", [0.99, 0.999])
def test_dense_values_of_a_pure_flow_below_the_normal_range(t):
    # z = 1e300 e^{-745 t} is a normal float at these t although e^{-745 t}
    # alone is subnormal; a dense value carries exp(A)'s binary exponent as the
    # knot march does (the reference is exact to 28 digits)
    p = dataclasses.replace(_pure_flow(-745.0), z0=1e300, history=(1e300,))
    exact = Decimal(1e300) * (Decimal(-745.0) * Decimal(t)).exp()
    assert abs(Decimal(solve(p).value(t)) / exact - 1) <= Decimal("1e-12")


def test_dense_values_of_a_pure_flow_in_the_float_range_are_unchanged():
    p = dataclasses.replace(_pure_flow(-700.0), z0=1e300, history=(1e300,))
    traj = solve(p)
    assert [traj.value(t).hex() for t in (0.5, 0.99, 0.999, 1.5)] == [
        "0x1.8d98e8c019804p+491",
        "0x1.bae0bcb580af6p-4",
        "0x1.a06373f3d7864p-13",
        "0x1.ae21c85afa61cp-519",
    ]


# -- sides built in row batches -------------------------------------------------


def _side_bits(side):
    """A built side, or its failure, as exact values."""
    if isinstance(side, BaseException):
        return type(side), str(side)
    los, panels, err = side
    return err.hex(), [
        (p.lo.hex(), p.hi.hex(), p.A0.hex(), p.y0.hex(), p.A.tobytes(), p.C.tobytes())
        for p in panels
    ]


@PROPERTY
@given(st.one_of(kernel_problems(), lagged_problems(), small_problems()))
def test_a_side_built_in_the_batch_is_the_side_built_alone(p):
    # the solve builds the sides of all its intervals in one batch; each comes
    # out bitwise as the same side built alone, as KernelTable builds one
    traj = Trajectory(p)
    traj._build_series()
    for k, series in traj._series.items():
        for forward, side in series._sides.items():
            alone = IntervalSeries(series.a, series.g, series.lo, series.hi, series.anchor, k)
            build_sides([(alone, forward)])
            assert _side_bits(alone._sides[forward]) == _side_bits(side), (k, forward)


_UNIT = UniformGrid(0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "problem, error, message",
    [
        # y_b has a boundary layer of width 1/|a|: int |a| needs 10^6 panels
        (Problem(a=Const(-1e6), b=Const(0.1), grid=_UNIT, horizon=3.0),
         QuadratureError, "series on interval k=0 needs more than 4096 panels"),
        # the samples of g = a + b carry eps |a| of noise, which never chops
        (Problem(a=parse_expression("-1 + 1e-12*sin(2*t)"), b=Const(1.0), grid=_UNIT,
                 tau=0.5, z0=-1.0, horizon=1.5),
         QuadratureError, "Chebyshev coefficients do not decay on interval k=0 "
         "near [0.5, 0.5001220703125] after 12 bisections"),
        (Problem(a=Const(800.0), b=Const(0.1), grid=_UNIT, horizon=3.0),
         OverflowError, "flow weight exp(709) overflows on interval k=0 at t=0.88625"),
    ],
)
def test_a_failing_side_raises_on_use(problem, error, message):
    # the batch stores a side's failure and raises it, with the message a side
    # built alone gives, each time the side is used
    traj = Trajectory(problem)
    traj._build_series()
    series = traj._series[traj.k_start]
    for _ in range(2):
        with pytest.raises(error) as info:
            _reference_terms(series, series.hi)
        assert str(info.value) == message
    with pytest.raises(error) as info:
        solve(problem)
    assert str(info.value) == message


@pytest.mark.parametrize("a", [-1e6, 800.0])
def test_a_failed_side_stores_its_error_without_a_traceback(a):
    # a stored traceback would hold the frames of the build, and through them
    # the series that stores the error
    traj = Trajectory(Problem(a=Const(a), b=Const(0.1), grid=_UNIT, horizon=3.0))
    traj._build_series()
    sides = traj._series[traj.k_start]._sides.values()
    failed = [side for side in sides if isinstance(side, BaseException)]
    assert failed and all(side.__traceback__ is None for side in failed)


def test_a_failing_solve_leaves_no_reference_cycle():
    # the stored error is raised as a copy: raising the stored object itself
    # would hang on it a traceback whose frames hold the series that stores it
    p = Problem(a=Const(800.0), b=Const(0.1), grid=_UNIT, horizon=3.0)

    def run():
        try:
            solve(p)
        except OverflowError:
            pass
        else:
            raise AssertionError("the solve did not fail")

    run()  # first-use imports and caches are not the solve's garbage
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("config", sorted(SINE_FORCING.parent.glob("*.json")), ids=lambda c: c.name)
def test_a_solve_leaves_no_reference_cycle(config):
    # no panel points back at what built it, so dropping a trajectory frees its
    # series, panels and arrays without the cyclic collector
    p = build_problem(json.loads(config.read_text()))

    def run():
        traj = solve(p)
        traj.values([p.tau + (p.horizon - p.tau) * i / 64 for i in range(65)])
        traj.zero_list()

    run()  # first-use imports and caches are not the solve's garbage
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_later_side_fails_only_when_used():
    # A = 200 (t^2 - k^2) passes 709 only on interval 2, which the march up to
    # t = 2.5 never reads at its far end; a dense value there raises
    p = Problem(a=parse_expression("400*t"), b=Const(0.1), grid=_UNIT, horizon=2.5)
    traj = solve(p)
    assert traj.value(1.5) == pytest.approx(traj.knot_value(1) * math.exp(200 * 1.25), rel=1e-3)
    with pytest.raises(OverflowError) as info:
        traj.value(2.2)
    assert str(info.value) == "flow weight exp(710) overflows on interval k=2 at t=2.7475"


@pytest.mark.parametrize("a, top", [("800", "800"), ("2400*cos(pi*t)", "764")])
def test_a_whole_pure_flow_side_past_exp_709_is_refused_by_name(a, top):
    # b = 0 on a lagged grid keeps the side one panel; exp of its local exponent
    # passes exp(709) inside it (at t = 0.5 for the cosine), so no value is read
    p = dataclasses.replace(_pure_flow(0.0), a=parse_expression(a), horizon=0.95)
    traj = solve(p)
    for t in (0.25, 0.5):
        with pytest.raises(OverflowError) as info:
            traj.value(t)
        assert str(info.value) == f"flow weight exp({top}) overflows on interval k=0 at t=1.0"


# -- dense values in one array pass ------------------------------------------------


def _special_times(traj):
    """Knots, the horizon, t = zeta_k and panel edges of the solved range."""
    p = traj.problem
    ts = [pt.t for pt in traj.skeleton()] + [p.tau, p.horizon]
    for series in traj._series.values():
        ts.append(series.anchor)
        for side in series._sides.values():
            if isinstance(side, tuple):
                ts += [panel.lo for panel in side[1]] + [panel.hi for panel in side[1]]
    return sorted(t for t in set(ts) if p.tau <= t <= p.horizon)


def _read_times(traj, data):
    """Many points for one call: special ones, repeats and draws in [tau, horizon]."""
    p = traj.problem
    ts = data.draw(st.lists(
        st.sampled_from(_special_times(traj)) | st.floats(p.tau, p.horizon), min_size=1,
        max_size=60,
    ))
    return ts + ts[: len(ts) // 2]


@PROPERTY
@given(knot_start_problems(), st.data())
def test_values_are_kernel_table_steps(p, data):
    # one call reads every point as KernelTable steps z(t_k) to it, bitwise
    traj, table, grid = _solved(p), KernelTable(p), p.grid
    ts, expected = [], []
    for t in _read_times(traj, data):
        k = grid.interval_index(t)
        try:
            expected.append(table.w_intra(k, t, grid.knot(k)) * traj.knot_value(k))
        except SingularKernel:  # e(t_k) vanished on the unsolved last interval
            continue
        ts.append(t)
    values = traj.values(ts)
    assert [z.hex() for z in values] == [z.hex() for z in expected]
    assert values == [traj.value(t) for t in ts]


@PROPERTY
@given(lagged_problems(), st.data())
def test_values_are_scalar_combinations_on_lagged_grids(p, data):
    # z = (q y + r + p exp(A)) / e * m 2^x, with each point's terms read alone
    # by the scalar reference
    traj = solve(p)
    ts = _read_times(traj, data)
    expected = []
    for t in ts:
        knot = traj._by_time.get(t)
        if knot is not None:
            expected.append(knot.z_right)
            continue
        series, flow, forced, const, e, m, x = traj._piece(p.grid.interval_index(t))
        expected.append(math.ldexp(_reference_u(series, t, flow, forced, const) / e * m, x))
    values = traj.values(ts)
    assert [z.hex() for z in values] == [z.hex() for z in expected]


@pytest.mark.parametrize("a", [-745.0, -2000.0])
def test_values_of_a_pure_flow_carry_the_exponent(a):
    # z = 1e300 e^{a t} on [0, 1): the array pass carries exp(A)'s binary
    # exponent point by point, as the march does on the floats of one point
    p = dataclasses.replace(_pure_flow(a), z0=1e300, history=(1e300,))
    traj = solve(p)
    ts = [i / 64 for i in range(193)] + [0.99, 0.999, 0.5, 0.5]
    one_at_a_time = []
    for t in ts:
        knot = traj._by_time.get(t)
        if knot is not None:
            one_at_a_time.append(knot.z_right)
            continue
        series, *coefs = traj._piece(p.grid.interval_index(t))
        v, x = solver_module._scaled(*coefs, *_reference_terms(series, t))
        one_at_a_time.append(math.ldexp(v, x))
    values = traj.values(ts)
    assert [z.hex() for z in values] == [z.hex() for z in one_at_a_time]
    for t, z in zip(ts, values):
        if t < 1.0 and abs(z) >= 2.0 ** -1022:  # a normal value: within 1e-12 of exact
            exact = Decimal(1e300) * (Decimal(a) * Decimal(t)).exp()
            assert abs(Decimal(z) / exact - 1) <= Decimal("1e-12"), t


def _hex(pairs):
    return [(a.hex(), b.hex()) for a, b in pairs]


@PROPERTY
@given(
    st.one_of(kernel_problems(), lagged_problems(), small_problems(), knot_start_problems()),
    st.lists(st.floats(0.0, 1.0), max_size=17),
)
def test_table_reads_are_the_scalar_reads(p, fractions):
    # one table read of the anchors, bases, knot ends and drawn points of every
    # interval reads each point bitwise as the scalar reference does alone, a
    # right knot on its own interval; and each panel starts where the scalar
    # read of the panel before it in its chain ends
    traj = Trajectory(p)
    traj._build_series()
    series = [traj._series[k] for k in sorted(traj._series)]
    at, ts = [], []
    for i, s in enumerate(series):
        lo, anchor, hi = s.lo, s.anchor, s.hi
        for t in [anchor, max(lo, p.tau), lo, hi, *(lo + f * (hi - lo) for f in fractions)]:
            side = s._sides.get(t > anchor if lo < anchor < hi else anchor < hi)
            if t == anchor or isinstance(side, tuple):
                at.append(i)
                ts.append(t)
    A, y = traj._table.terms(np.array(ts, dtype=float), np.array(at, dtype=int))
    expected = [_reference_terms(series[i], t) for i, t in zip(at, ts)]
    assert _hex(zip(A.tolist(), y.tolist())) == _hex(expected)
    for s in series:
        for side in s._sides.values():
            if isinstance(side, tuple):
                chain = sorted(side[1], key=lambda panel: abs(panel.start - s.anchor))
                ends = [_reference_read(panel, panel.stop) for panel in chain[:-1]]
                assert _hex((panel.A0, panel.y0) for panel in chain[1:]) == _hex(ends)


@pytest.mark.parametrize("config", ["sine_forcing.json", "lagged_unit_delay.json"])
def test_the_march_reads_the_table_once(config, monkeypatch):
    # the terms at every end knot, and on kernel grids at every base, in one call
    calls, real = [], PanelTable.terms
    monkeypatch.setattr(PanelTable, "terms", lambda *args: calls.append(args[1]) or real(*args))
    traj = solve(build_problem(json.loads((SINE_FORCING.parent / config).read_text())))
    ends = [pt.t for pt in traj.skeleton() if pt.k > traj.k_start]
    bases = [] if traj.problem.grid.lagged else [traj._interval_base(k)[0] for k in traj._series]
    assert [t.tolist() for t in calls] == [ends + bases]


def test_the_walk_reads_no_point_alone(monkeypatch):
    scalar, real = [], series_module._panel_terms
    monkeypatch.setattr(
        series_module, "_panel_terms", lambda t, *args: scalar.append(t) or real(t, *args)
    )
    traj = Trajectory(_sine_forcing())
    traj._build_series()
    assert len(traj._table._panels) > 60 and scalar == []


def test_a_zero_search_reads_every_bracket_at_once(monkeypatch):
    traj = solve(_sine_forcing())
    calls, real = [], PanelTable.read
    monkeypatch.setattr(PanelTable, "read", lambda *args: calls.append(len(args[1])) or real(*args))
    # one candidate root per interval, read at itself and both ends of its bracket
    assert len(traj.zero_list()) == 60 and calls == [3 * 60]


@pytest.mark.parametrize("t", [-0.5, 10.5, math.nan])
def test_values_refuse_a_point_outside_the_solved_range(t):
    traj = solve(_pure_flow(-1.0))
    with pytest.raises(ValueError, match=f"t={t} outside solved range"):
        traj.values([0.5, 1.0, t])


def test_values_raise_the_failure_of_a_side():
    # the side of interval 2 fails; the march never reads it, a dense value does
    p = Problem(a=parse_expression("-700*t^2"), b=Const(0.0), grid=_UNIT, horizon=2.5)
    traj = solve(p)
    assert traj.values([0.5, 1.5]) == [traj.value(0.5), traj.value(1.5)]
    with pytest.raises(QuadratureError, match="series on interval k=2 needs more than 4096 panels"):
        traj.values([0.5, 2.25, 1.5])
    # started on interval 2, the solve has no panels at all to lay out
    traj = solve(dataclasses.replace(p, tau=2.0))
    with pytest.raises(QuadratureError, match="series on interval k=2 needs more than 4096 panels"):
        traj.values([2.25, 2.375])


def test_values_refuse_a_flow_above_the_float_range():
    # A = 200 (t^2 - k^2) passes exp(709) only on interval 2, which the march
    # up to t = 2.5 never reads
    p = Problem(a=parse_expression("400*t"), b=Const(0.1), grid=_UNIT, horizon=2.5)
    traj = solve(p)
    with pytest.raises(OverflowError, match=r"flow weight exp\(710\) overflows on interval k=2"):
        traj.values([1.5, 2.2, 0.5])
