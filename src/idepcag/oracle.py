"""Independent cross-check integrator.

Re-solves a problem with a classical fixed-step 4th-order Runge-Kutta
scheme instead of the kernel quadratures.  Per interval it integrates the
two auxiliary problems

    A' = a(t) A,  A(t_k) = 1        B' = a(t) B + b(t),  B(t_k) = 0,

recovers the argument value from z(zeta) = A(zeta) z(t_k) / (1 - B(zeta)),
and reconstructs z(t) = A(t) z(t_k) + B(t) z(zeta).  The module shares no
code with :mod:`idepcag.kernel` or :mod:`idepcag.quadrature`, so agreement
between the two routes validates the whole pipeline; its zero search is
a plain scan with bisection, kept apart from the series root finder.

The equations are linear, so one RK4 step is an affine map y -> g y + f
and an interval is one prefix scan of those maps, with no loop over steps
(see :func:`_rk4_linear`).  The scan is carried in ``np.longdouble``.
Where that type is only float64 (MSVC, Apple arm64) the oracle keeps the
accuracy of a plain float64 scan, about 2e-13 relative against the
closed form on a unit interval instead of 3e-14, still seven orders
below the default check tolerance of 1e-6.  A non-finite A or B (an
unstable step size, or A leaving the long double range) is refused as
an ``OverflowError``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .expressions import evaluate_array
from .kernel import SingularKernel
from .problem import SINGULARITY_FACTOR, Problem
from .solver import SkeletonPoint, Trajectory, _sgn

DEFAULT_STEPS_PER_INTERVAL = 10_000
ZERO_LOCATION_TOL = 1e-12
SCAN_POINTS = 65


def _rk4_linear(problem, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """March A and B across the given nodes; returns arrays on the nodes.

    Step i maps y to g_i y + f_i, so A = [1, cumprod(g)] and
    B = A [0, cumsum(f / A[1:])]; g and f are float64, the scan long double.
    """
    h = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    a_nodes = evaluate_array(problem.a, nodes)
    am = evaluate_array(problem.a, mids)
    b_nodes = evaluate_array(problem.b, nodes)
    bm = evaluate_array(problem.b, mids)
    a0, a1 = a_nodes[:-1], a_nodes[1:]
    b0, b1 = b_nodes[:-1], b_nodes[1:]
    k2 = am * (1.0 + 0.5 * h * a0)
    k3 = am * (1.0 + 0.5 * h * k2)
    k4 = a1 * (1.0 + h * k3)
    d = h * (a0 + 2.0 * (k2 + k3) + k4) / 6.0  # g - 1, kept small
    l2 = am * (0.5 * h * b0) + bm
    l3 = am * (0.5 * h * l2) + bm
    l4 = a1 * (h * l3) + b1
    f = h * (b0 + 2.0 * (l2 + l3) + l4) / 6.0
    A = np.empty(len(nodes), dtype=np.longdouble)
    B = np.empty_like(A)
    A[0], B[0] = 1.0, 0.0
    np.add(d, 1.0, out=A[1:], dtype=np.longdouble)
    np.cumprod(A[1:], out=A[1:])
    np.divide(f, A[1:], out=B[1:])
    np.cumsum(B[1:], out=B[1:])
    np.multiply(A, B, out=B)
    return A.astype(float), B.astype(float)


def _interval_nodes(lo: float, zeta: float, hi: float, steps: int) -> Tuple[np.ndarray, int]:
    """Node grid over [lo, hi] with zeta landing exactly on a node."""
    if zeta <= lo:
        return np.linspace(lo, hi, steps + 1), 0
    if zeta >= hi:
        return np.linspace(lo, hi, steps + 1), steps
    frac = (zeta - lo) / (hi - lo)
    n1 = min(max(int(round(steps * frac)), 1), steps - 1)
    n2 = steps - n1
    leg1 = np.linspace(lo, zeta, n1 + 1)
    leg2 = np.linspace(zeta, hi, n2 + 1)
    return np.concatenate([leg1, leg2[1:]]), n1


class _OracleTrajectory(Trajectory):
    """Dense evaluation from the stored per-interval Runge-Kutta grids."""

    def __init__(self, problem: Problem, steps: int):
        super().__init__(problem)
        self.steps = steps
        self._grids: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._zeta_values: Dict[int, float] = {}

    def _value_in_interval(self, t: float, k: int) -> float:
        ts, zs = self._grids[k]
        i = int(np.searchsorted(ts, t))
        if i < len(ts) and ts[i] == t:
            return float(zs[i])
        # one partial straight-line step would lose the 4th-order accuracy;
        # re-run the two-stage reconstruction from the nearest node below
        i = max(i - 1, 0)
        t0 = float(ts[i])
        sub = np.array([t0, t])
        A, B = _rk4_linear(self.problem, sub)
        z0 = float(zs[i])
        # A, B here restart at t0, so z(t) = A z(t0) + B z(zeta_k)
        return float(A[1]) * z0 + float(B[1]) * self._zeta_values[k]

    def zeros_in_interval(self, k: int) -> List[float]:
        lo, hi = self._window(k)
        return _scan_roots(lambda t: self._value_in_interval(t, k), lo, hi)


def _scan_roots(f, lo: float, hi: float) -> List[float]:
    """Sign changes of f on an even scan of [lo, hi), located by bisection."""
    if hi <= lo:
        return []
    n = SCAN_POINTS
    ts = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    vals = [f(t) for t in ts]
    roots: List[float] = []
    for i in range(n - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(ts[i])
            continue
        if v0 * v1 < 0.0:
            a, b, fa = ts[i], ts[i + 1], v0
            while b - a > ZERO_LOCATION_TOL:
                m = 0.5 * (a + b)
                fm = f(m)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    deduped: List[float] = []
    for r in roots:
        if r < hi and (not deduped or r - deduped[-1] > ZERO_LOCATION_TOL):
            deduped.append(r)
    return deduped


def oracle_integrate(
    problem: Problem, steps_per_interval: int = DEFAULT_STEPS_PER_INTERVAL
) -> Trajectory:
    """Solve via the fixed-step Runge-Kutta route (non-lagged grids only)."""
    if problem.grid.lagged:
        raise ValueError("oracle path supports non-lagged grids only")
    if steps_per_interval < 2:
        raise ValueError("need at least 2 steps per interval")
    grid = problem.grid
    traj = _OracleTrajectory(problem, steps_per_interval)
    k = traj.k_start
    zeta0 = grid.zeta(k)
    start_zeta = problem.tau if zeta0 < problem.tau else zeta0
    z = problem.z0
    if problem.tau == grid.knot(k):
        s0 = _sgn(z)
        traj._append(SkeletonPoint(k, problem.tau, z, z, s0, s0))

    t_base = problem.tau
    while True:
        t_end = grid.knot(k + 1)
        zeta = start_zeta if k == traj.k_start else grid.zeta(k)
        lo = t_base if k == traj.k_start else grid.knot(k)
        nodes, i_zeta = _interval_nodes(lo, zeta, t_end, steps_per_interval)
        with np.errstate(all="ignore"):
            A, B = _rk4_linear(problem, nodes)
            denom = 1.0 - B[i_zeta]
            if abs(denom) < SINGULARITY_FACTOR * (1.0 + abs(B[i_zeta])):
                raise SingularKernel(k, abs(denom))
            z_zeta = A[i_zeta] * z / denom
            zs = A * z + B * z_zeta
        # a non-finite A or B leaves zs non-finite whatever z is (inf * 0 is nan)
        if not np.isfinite(zs).all():
            raise OverflowError(f"oracle solution is not finite on interval k={k}")
        traj._grids[k] = (nodes, zs)
        traj._zeta_values[k] = z_zeta
        if t_end > problem.horizon:
            break
        z_left = float(zs[-1])
        z_right = problem.impulses.factor(k + 1) * z_left
        traj._append(
            SkeletonPoint(k + 1, t_end, z_left, z_right, _sgn(z_left), _sgn(z_right))
        )
        z = z_right
        k += 1
        if grid.knot(k) >= problem.horizon:
            break
    return traj
