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
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .expressions import evaluate_array
from .kernel import SingularKernel
from .problem import Problem
from .solver import SkeletonPoint, Trajectory, _sgn

DEFAULT_STEPS_PER_INTERVAL = 10_000
ZERO_LOCATION_TOL = 1e-12


def _rk4_linear(problem, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """March A and B across the given nodes; returns arrays on the nodes."""
    n = len(nodes) - 1
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    a_nodes = evaluate_array(problem.a, nodes)
    a_mids = evaluate_array(problem.a, mids)
    b_nodes = evaluate_array(problem.b, nodes)
    b_mids = evaluate_array(problem.b, mids)
    A = np.empty(n + 1)
    B = np.empty(n + 1)
    A[0] = 1.0
    B[0] = 0.0
    for i in range(n):
        h = nodes[i + 1] - nodes[i]
        a0, am, a1 = a_nodes[i], a_mids[i], a_nodes[i + 1]
        b0, bm, b1 = b_nodes[i], b_mids[i], b_nodes[i + 1]
        y, v = A[i], B[i]
        k1 = a0 * y
        k2 = am * (y + 0.5 * h * k1)
        k3 = am * (y + 0.5 * h * k2)
        k4 = a1 * (y + h * k3)
        A[i + 1] = y + h * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
        l1 = a0 * v + b0
        l2 = am * (v + 0.5 * h * l1) + bm
        l3 = am * (v + 0.5 * h * l2) + bm
        l4 = a1 * (v + h * l3) + b1
        B[i + 1] = v + h * (l1 + 2.0 * (l2 + l3) + l4) / 6.0
    return A, B


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
        super().__init__(problem, rel_tol=0.0)
        self.steps = steps
        self._grids: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._zeta_values: Dict[int, float] = {}

    def _interval_base(self, k: int):
        if k == self.k_start:
            return self.problem.tau, self.problem.z0, None
        pt = self._by_k.get(k)
        if pt is None:
            raise ValueError(f"interval k={k} not in solved range")
        return pt.t, pt.z_right, None

    def _interior_value(self, t: float) -> float:
        k = self.problem.grid.interval_index(t)
        return self._value_in_interval(t, k)

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

    def zeros_in_interval(self, k: int, scan_points: int = 65) -> List[float]:
        lo, hi = self._window(k)
        return _scan_roots(lambda t: self._value_in_interval(t, k), lo, hi, scan_points)


def _scan_roots(f, lo: float, hi: float, scan_points: int) -> List[float]:
    """Sign changes of f on an even scan of [lo, hi), located by bisection."""
    if hi <= lo:
        return []
    n = max(scan_points, 3)
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
        traj.points.append(SkeletonPoint(k, problem.tau, z, z, s0, s0))

    t_base = problem.tau
    while True:
        t_end = grid.knot(k + 1)
        zeta = start_zeta if k == traj.k_start else grid.zeta(k)
        lo = t_base if k == traj.k_start else grid.knot(k)
        nodes, i_zeta = _interval_nodes(lo, zeta, t_end, steps_per_interval)
        A, B = _rk4_linear(problem, nodes)
        denom = 1.0 - B[i_zeta]
        if abs(denom) < 1e-12 * (1.0 + abs(B[i_zeta])):
            raise SingularKernel(k, abs(denom))
        z_zeta = A[i_zeta] * z / denom
        zs = A * z + B * z_zeta
        traj._grids[k] = (nodes, zs)
        traj._zeta_values[k] = z_zeta
        if t_end > problem.horizon:
            break
        z_left = float(zs[-1])
        z_right = problem.impulses.factor(k + 1) * z_left
        traj.points.append(
            SkeletonPoint(k + 1, t_end, z_left, z_right, _sgn(z_left), _sgn(z_right))
        )
        z = z_right
        k += 1
        if grid.knot(k) >= problem.horizon:
            break
    traj._finish()
    return traj
