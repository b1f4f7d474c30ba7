"""Independent cross-check integrator.

Re-solves a problem with a classical fixed-step 4th-order Runge-Kutta
scheme instead of the kernel quadratures.  Per interval it integrates the
two auxiliary problems

    A' = a(t) A,  A(t_k) = 1        B' = a(t) B + b(t),  B(t_k) = 0,

recovers the argument value from z(zeta) = A(zeta) z(t_k) / (1 - B(zeta)),
and reconstructs z(t) = A(t) z(t_k) + B(t) z(zeta).  The module shares no
code with :mod:`idepcag.kernel`, :mod:`idepcag.series` or
:mod:`idepcag.quadrature`, so agreement between the two routes validates
the whole pipeline.  Its zeros are the exact zeros on its own RK4 nodes and
the sign changes between neighbouring nodes, each bisected to
``ZERO_LOCATION_TOL``; they owe nothing to the series root finder.

One RK4 step of these linear equations is an affine map y -> g y + f, and an
interval is one prefix scan of those maps in ``np.longdouble`` (float64 on
MSVC and Apple arm64: 2e-13 relative on a unit interval, not 3e-14).  The
stages are the textbook operations in order, in place, a Const coefficient
as its float: of a 2,000-step interval the scan takes about 70 us, a varying
b 37 us and the stages 32 us (blocks of intervals per call, a request-wide
node table and a vectorised ``_unscaled_values`` were measured and dropped).
A non-finite A or B (an unstable step, or A leaving the long double range)
or a value read past the largest float is an ``OverflowError``.  The march
carries z(t_k) as its ``math.frexp`` pair (m, x), solving each interval for
m, so |z| may leave the float range and come back: values are ldexp(., x),
knot signs the mantissas' signs, and the zero search uses unscaled values.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .expressions import Const, evaluate_array
from .kernel import SingularKernel
from .problem import SINGULARITY_FACTOR, Problem
from .solver import SkeletonPoint, Trajectory, _sgn, bisect_root

DEFAULT_STEPS_PER_INTERVAL = 10_000
ZERO_LOCATION_TOL = 1e-12


def _rk4_linear(problem, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """March A and B along the last axis of nodes; returns arrays shaped like nodes.

    Step i maps y to g_i y + f_i, so A = [1, cumprod(g)] and
    B = A [0, cumsum(f / A[1:])]; g and f are float64, the scan long double.
    A 1-D nodes is one interval's grid, an (m, 2) one m independent steps.
    """
    h = nodes[..., 1:] - nodes[..., :-1]
    hh = 0.5 * h
    mids = 0.5 * (nodes[..., :-1] + nodes[..., 1:])
    (a0, am, a1), (b0, bm, b1) = (_at_steps(c, nodes, mids) for c in (problem.a, problem.b))
    ka, kb, stages = a0, b0, []  # the stages of A' = a A and of B' = a B + b, in place
    for s, c, e in ((hh, am, bm), (hh, am, bm), (h, a1, b1)):
        ka = s * ka  # ka' = c (1 + s ka)
        ka += 1.0
        ka *= c
        kb = s * kb  # kb' = c (s kb) + e
        kb *= c
        kb += e
        stages.append((ka, kb))
    for y1, (y2, y3, y4) in zip((a0, b0), zip(*stages)):  # h (y1 + 2 (y2 + y3) + y4) / 6
        y2 += y3
        y2 *= 2.0
        y2 += y1
        y2 += y4
        y2 *= h
        y2 /= 6.0
    d, f = stages[0]  # d = g - 1, kept small
    A, B = np.empty((2,) + nodes.shape, dtype=np.longdouble)
    A[..., 0], B[..., 0] = 1.0, 0.0
    np.add(d, 1.0, out=A[..., 1:], dtype=np.longdouble)
    np.cumprod(A[..., 1:], axis=-1, out=A[..., 1:])
    np.divide(f, A[..., 1:], out=B[..., 1:])
    np.cumsum(B[..., 1:], axis=-1, out=B[..., 1:])
    np.multiply(A, B, out=B)
    return A.astype(float), B.astype(float)


def _at_steps(coef, nodes: np.ndarray, mids: np.ndarray):
    """coef at the steps' starts, midpoints and ends; a Const is its float each time."""
    if isinstance(coef, Const):
        return (coef.value,) * 3
    at_nodes = evaluate_array(coef, nodes)
    return at_nodes[..., :-1], evaluate_array(coef, mids), at_nodes[..., 1:]


def _interval_nodes(lo: float, zeta: float, hi: float, steps: int) -> Tuple[np.ndarray, int]:
    """Node grid over [lo, hi] with zeta landing exactly on a node."""
    if not lo < zeta < hi:
        return np.linspace(lo, hi, steps + 1), 0 if zeta <= lo else steps
    n1 = min(max(int(round(steps * ((zeta - lo) / (hi - lo)))), 1), steps - 1)
    leg1, leg2 = np.linspace(lo, zeta, n1 + 1), np.linspace(zeta, hi, steps - n1 + 1)
    return np.concatenate([leg1, leg2[1:]]), n1


class _OracleTrajectory(Trajectory):
    """Dense evaluation from the stored per-interval Runge-Kutta grids."""

    def __init__(self, problem: Problem):
        super().__init__(problem)
        # interval k: its nodes, z 2^-x on them, z(zeta_k) 2^-x, and x, the
        # exponent of z at the interval's base
        self._grids: Dict[int, Tuple[np.ndarray, np.ndarray, float, int]] = {}

    def _interval_values(self, ts: Sequence[float], ks: Sequence[int]) -> List[float]:
        """z at each t of ts on its interval of ks, by :meth:`_unscaled_values` in one batch."""
        return [_float(z, self._grids[k][3], k) for k, z in zip(ks, self._unscaled_values(ts, ks))]

    def _unscaled_values(self, ts: Sequence[float], ks: Sequence[int]) -> List[float]:
        """z(t) 2^-x for each t in interval k of ks, x the exponent stored with k:
        the stored value on a node, else one RK4 step from the node below t (a
        partial straight-line step would lose the 4th-order accuracy)."""
        rows = []  # (node at or below t, t, z 2^-x there, z(zeta_k) 2^-x)
        for t, k in zip(ts, ks):
            nodes, zs, z_zeta, _ = self._grids[k]
            i = max(int(np.searchsorted(nodes, t, side="right")) - 1, 0)
            rows.append((nodes[i], t, zs[i], z_zeta))
        node, t, z, z_zeta = np.array(rows, dtype=float).reshape(-1, 4).T
        off = node != t
        if off.any():  # every step in one call; A, B restart at the node
            A, B = _rk4_linear(self.problem, np.stack([node[off], t[off]], axis=-1))
            z[off] = A[:, 1] * z[off] + B[:, 1] * z_zeta[off]
        return z.tolist()

    def zeros_in_intervals(self, ks: Iterable[int]) -> Iterator[List[float]]:
        return map(self.zeros_in_interval, ks)

    def zeros_in_interval(self, k: int) -> List[float]:
        """Roots in the solved part [lo, hi) of interval k: exact zeros on the
        stored nodes, and each sign change between neighbouring nodes bisected."""
        lo, hi = self._window(k)
        if hi <= lo:
            return []
        ts, zs = self._grids[k][:2]
        signs = np.sign(zs)
        roots = ts[signs == 0.0].tolist()
        for i in np.flatnonzero(np.abs(np.diff(signs)) == 2.0).tolist():
            roots.append(bisect_root(
                lambda t: self._unscaled_values([t], [k])[0],
                float(ts[i]), float(ts[i + 1]), float(zs[i]), ZERO_LOCATION_TOL,
            ))
        return sorted(r for r in roots if lo <= r < hi)


def _float(m: float, x: int, k: int) -> float:
    """m 2^x as a float; a value past the float range is refused, naming k."""
    try:
        return math.ldexp(m, x)
    except OverflowError:
        raise OverflowError(f"oracle solution is not finite on interval k={k}") from None


def oracle_integrate(
    problem: Problem, steps_per_interval: int = DEFAULT_STEPS_PER_INTERVAL
) -> Trajectory:
    """Solve via the fixed-step Runge-Kutta route (non-lagged grids only)."""
    if problem.grid.lagged:
        raise ValueError("oracle path supports non-lagged grids only")
    if steps_per_interval < 2:
        raise ValueError("need at least 2 steps per interval")
    grid = problem.grid
    traj = _OracleTrajectory(problem)
    k = traj.k_start
    start_zeta = max(grid.zeta(k), problem.tau)
    z = problem.z0
    if problem.tau == grid.knot(k):
        traj._append(SkeletonPoint(k, problem.tau, z, z, _sgn(z), _sgn(z)))
    m, x = math.frexp(z)  # z(base) = m 2^x; each interval is solved for m
    while True:
        t_end = grid.knot(k + 1)
        zeta = start_zeta if k == traj.k_start else grid.zeta(k)
        lo = problem.tau if k == traj.k_start else grid.knot(k)
        nodes, i_zeta = _interval_nodes(lo, zeta, t_end, steps_per_interval)
        with np.errstate(all="ignore"):
            A, B = _rk4_linear(problem, nodes)
            denom = 1.0 - B[i_zeta]
            if abs(denom) < SINGULARITY_FACTOR * (1.0 + abs(B[i_zeta])):
                raise SingularKernel(k, abs(denom))
            z_zeta = A[i_zeta] * m / denom
            zs = A * m + B * z_zeta
        # a non-finite A or B leaves zs non-finite whatever m is (inf * 0 is nan)
        if not np.isfinite(zs).all():
            raise OverflowError(f"oracle solution is not finite on interval k={k}")
        traj._grids[k] = (nodes, zs, float(z_zeta), x)
        if t_end > problem.horizon:
            break
        left, x_left = math.frexp(float(zs[-1]))
        m, x_right = math.frexp(problem.impulses.factor(k + 1) * left)
        x_left += x
        x = x_right + x_left
        z_left, z_right = _float(left, x_left, k), _float(m, x, k + 1)
        traj._append(SkeletonPoint(k + 1, t_end, z_left, z_right, _sgn(left), _sgn(m)))
        k += 1
        if grid.knot(k) >= problem.horizon:
            break
    return traj
