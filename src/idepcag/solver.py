"""Forward solver: discrete skeleton, dense in-interval evaluation, zeros.

The solution is piecewise continuous: on each interval it follows the
kernel factors of :mod:`idepcag.kernel`, and at each knot the jump
z(t_k) = (1 + c_k) z(t_k^-) applies.  The skeleton stores both one-sided
values; dense evaluation reconstructs z anywhere in [tau, horizon].

Every interval carries one :class:`~idepcag.series.IntervalSeries`, built
on first use and cached: on kernel-backed grids the series of
e(., zeta_k) - 1 held by the :class:`KernelTable`, on lagged grids the
series of the flow and of y' = a y + b, y(t_k) = 0 held by the
trajectory, so that z = exp(A) z(t_k) + y z(t_{k-lag}).  Dense values, the
knot march and the in-interval zeros all come from that series; zeros are
the real roots of its Chebyshev interpolant on each panel, polished by
Newton steps.

Start convention: no impulse is applied at tau itself (z0 is the
post-jump state), and when the argument value of the start interval lies
strictly behind tau it is replaced by tau, keeping the construction
forward-looking.  An argument value ahead of tau is used as-is; the
choice is recorded in ``Trajectory.metadata``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# flow_weighted_integral is unused here but stays bound in this module:
# bench/tracing.py rebinds solver.flow_weighted_integral by name.
from .kernel import KernelTable, _require_invertible, flow_weighted_integral  # noqa: F401
from .problem import Problem
from .quadrature import default_rel_tol
from .series import IntervalSeries


def _sgn(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


@dataclass(frozen=True)
class SkeletonPoint:
    """Solution values at one knot: left limit and post-jump value.

    ``sign_left`` / ``sign_right`` carry the exact sign of the true
    solution, propagated through the step factors, so classification
    stays correct even after |z| under- or overflows the float range.
    """

    k: int
    t: float
    z_left: float
    z_right: float
    sign_left: int = 0
    sign_right: int = 0


class Trajectory:
    """Solved instance: skeleton plus a dense evaluator.

    Immutable after construction; dense queries are safe to issue
    concurrently.
    """

    def __init__(self, problem: Problem, rel_tol: float):
        self.problem = problem
        self.rel_tol = rel_tol
        self.k_start = problem.grid.interval_index(problem.tau)
        self.points: List[SkeletonPoint] = []
        self.metadata: Dict[str, object] = {}
        self._by_time: Dict[float, SkeletonPoint] = {}
        self._by_k: Dict[int, SkeletonPoint] = {}

    def _finish(self) -> None:
        self._by_time = {p.t: p for p in self.points}
        self._by_k = {p.k: p for p in self.points}

    # -- skeleton ------------------------------------------------------------

    def skeleton(self) -> List[SkeletonPoint]:
        return list(self.points)

    def knot_value(self, k: int, side: str = "right") -> float:
        pt = self._by_k.get(k)
        if pt is None:
            raise ValueError(f"knot k={k} not in solved range")
        return pt.z_left if side == "left" else pt.z_right

    # -- dense evaluation ------------------------------------------------------

    def value(self, t: float, side: str = "right") -> float:
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if not (self.problem.tau <= t <= self.problem.horizon):
            raise ValueError(
                f"t={t} outside solved range [{self.problem.tau}, {self.problem.horizon}]"
            )
        pt = self._by_time.get(t)
        if pt is not None:
            return pt.z_left if side == "left" else pt.z_right
        if t == self.problem.tau:
            return self.problem.z0
        return self._interior_value(t)

    def _interior_value(self, t: float) -> float:
        raise NotImplementedError

    def zeros_in_interval(self, k: int) -> List[float]:
        raise NotImplementedError

    def _window(self, k: int) -> Tuple[float, float]:
        """The solved part [lo, hi] of interval k."""
        base_t = self._interval_base(k)[0]
        lo = max(base_t, self.problem.tau)
        return lo, min(self.problem.grid.knot(k + 1), self.problem.horizon)

    def zero_list(
        self, k_lo: Optional[int] = None, k_hi: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """(interval, root) pairs over the solved range.

        Intervals whose base value is zero carry the zero solution on the
        whole interval and are reported with the base point itself as the
        location.  The test uses the exact propagated sign, so a base value
        that merely underflowed to 0.0 is not taken for a zero.
        """
        lo = self.k_start if k_lo is None else k_lo
        hi = self.problem.grid.interval_index(self.problem.horizon) if k_hi is None else k_hi
        out: List[Tuple[int, float]] = []
        for k in range(lo, hi + 1):
            base_t, base_z = self._interval_base(k)[:2]
            pt = self._by_k.get(k)
            if (pt.sign_right if pt is not None else _sgn(base_z)) == 0:
                out.append((k, base_t))
                continue
            for root in self.zeros_in_interval(k):
                out.append((k, root))
        return out

    def _interval_base(self, k: int):
        raise NotImplementedError


class _KernelTrajectory(Trajectory):
    """Dense evaluation through the kernel table (non-lagged grids)."""

    def __init__(self, problem: Problem, rel_tol: float):
        super().__init__(problem, rel_tol)
        self.table = KernelTable(problem, rel_tol)
        zeta0 = problem.grid.zeta(self.k_start)
        if zeta0 < problem.tau:
            self.start_zeta = problem.tau
            self.metadata["start_argument"] = "clamped to tau"
        else:
            self.start_zeta = zeta0
            self.metadata["start_argument"] = "grid value"
        self._e_start: Optional[float] = None

    def _e_at_base(self, k: int) -> float:
        if k == self.k_start:
            if self._e_start is None:
                self._e_start = self.table.e_value(
                    k, self.problem.tau, self.start_zeta
                )
            return self._e_start
        return self.table.e_at_knots(k)[0]

    def _interval_base(self, k: int):
        if k == self.k_start:
            return self.problem.tau, self.problem.z0, self.start_zeta
        pt = self._by_k.get(k)
        if pt is None:
            raise ValueError(f"interval k={k} not in solved range")
        return pt.t, pt.z_right, self.problem.grid.zeta(k)

    def _interior_value(self, t: float) -> float:
        k = self.problem.grid.interval_index(t)
        base_t, base_z, zeta = self._interval_base(k)
        e_base = self._e_at_base(k)
        _require_invertible(e_base, e_base - 1.0, k)
        e_t = self.table.e_value(k, t, zeta)
        return e_t / e_base * base_z

    def zeros_in_interval(self, k: int) -> List[float]:
        """Roots of j(t, zeta_k), that is of e(t, zeta_k), in [t_k, t_{k+1})."""
        zeta = self._interval_base(k)[2]
        lo, hi = self._window(k)
        return self.table.series(k, zeta).zeros(lo, hi, flow_coef=0.0, forced_coef=1.0, const=1.0)


class _LaggedTrajectory(Trajectory):
    """Dense evaluation for lagged grids by direct variation of parameters."""

    def __init__(self, problem: Problem, rel_tol: float):
        super().__init__(problem, rel_tol)
        self.known: Dict[int, float] = {}
        self.metadata["start_argument"] = "lagged history"
        self._series: Dict[int, IntervalSeries] = {}

    def _interval_base(self, k: int):
        if k not in self.known:
            raise ValueError(f"interval k={k} not in solved range")
        return self.problem.grid.knot(k), self.known[k], self.problem.grid.zeta(k)

    def _deviated_value(self, k: int) -> float:
        lag = self.problem.grid.lag
        if k - lag not in self.known:
            raise ValueError(f"missing history value for knot k={k - lag}")
        return self.known[k - lag]

    def series(self, k: int) -> IntervalSeries:
        """Flow and forced response on interval k, anchored at t_k."""
        found = self._series.get(k)
        if found is None:
            grid = self.problem.grid
            tk = grid.knot(k)
            found = IntervalSeries(self.problem.a, self.problem.b, tk, grid.knot(k + 1), tk, k)
            self._series[k] = found
        return found

    def _value_in_interval(self, t: float, k: int) -> float:
        zk = self._interval_base(k)[1]
        s = self.series(k)
        return s.flow(t) * zk + s.forced(t) * self._deviated_value(k)

    def _interior_value(self, t: float) -> float:
        return self._value_in_interval(t, self.problem.grid.interval_index(t))

    def zeros_in_interval(self, k: int) -> List[float]:
        zk = self._interval_base(k)[1]
        lo, hi = self._window(k)
        return self.series(k).zeros(
            lo, hi, flow_coef=zk, forced_coef=self._deviated_value(k), const=0.0
        )


# -- solving -------------------------------------------------------------------

def solve(problem: Problem, rel_tol: float | None = None) -> Trajectory:
    """Solve the problem on [tau, horizon].

    Dispatches to the lagged-argument march when the grid is lagged.
    Raises :class:`SingularKernel` if some interval's kernel vanishes at
    its base point and :class:`ImpulseDegenerate` if some 1 + c_k = 0.
    """
    if problem.grid.lagged:
        return solve_lagged(problem, rel_tol)
    tol = default_rel_tol() if rel_tol is None else rel_tol
    traj = _KernelTrajectory(problem, tol)
    grid = problem.grid
    k = traj.k_start
    z = problem.z0
    sign = _sgn(z)
    if problem.tau == grid.knot(k):
        traj.points.append(SkeletonPoint(k, problem.tau, z, z, sign, sign))
    # first (possibly partial) interval
    while grid.knot(k + 1) <= problem.horizon:
        t_next = grid.knot(k + 1)
        if k == traj.k_start:
            e_base = traj._e_at_base(k)
            _require_invertible(e_base, e_base - 1.0, k)
            e_next = traj.table.e_value(k, t_next, traj.start_zeta)
            w = e_next / e_base
        else:
            w = traj.table.w_step(k)
        fac = problem.impulses.factor(k + 1)
        z_left = w * z
        z_right = fac * z_left
        sign_left = sign * _sgn(w)
        sign = sign_left * _sgn(fac)
        traj.points.append(
            SkeletonPoint(k + 1, t_next, z_left, z_right, sign_left, sign)
        )
        z = z_right
        k += 1
    traj._finish()
    return traj


def solve_lagged(problem: Problem, rel_tol: float | None = None) -> Trajectory:
    """March a lagged-argument problem forward from knot-aligned data.

    Requires tau to sit on a grid knot and ``problem.history`` to carry
    the ``lag`` pre-start knot values (oldest first).  On each interval
    the argument value z(t_{k-lag}) is already known, so the solution is
    the explicit variation-of-parameters formula plus the knot jumps.
    """
    grid = problem.grid
    if not grid.lagged:
        raise ValueError("solve_lagged requires a lagged grid")
    tol = default_rel_tol() if rel_tol is None else rel_tol
    k0 = grid.interval_index(problem.tau)
    if problem.tau != grid.knot(k0):
        raise ValueError("lagged solve must start on a grid knot")
    lag = grid.lag
    if problem.history is None or len(problem.history) != lag:
        raise ValueError(
            f"lagged solve needs exactly {lag} history value(s) for the knots "
            f"t_{{{k0 - lag}}}..t_{{{k0 - 1}}}"
        )
    traj = _LaggedTrajectory(problem, tol)
    for i, v in enumerate(problem.history):
        traj.known[k0 - lag + i] = v
    traj.known[k0] = problem.z0
    s0 = _sgn(problem.z0)
    traj.points.append(SkeletonPoint(k0, problem.tau, problem.z0, problem.z0, s0, s0))
    k = k0
    while grid.knot(k + 1) <= problem.horizon:
        tk1 = grid.knot(k + 1)
        z_left = traj._value_in_interval(tk1, k)
        z_right = problem.impulses.factor(k + 1) * z_left
        traj.points.append(
            SkeletonPoint(k + 1, tk1, z_left, z_right, _sgn(z_left), _sgn(z_right))
        )
        traj.known[k + 1] = z_right
        k += 1
    traj._finish()
    return traj


def step(problem: Problem, k: int, z_k: float, rel_tol: float | None = None) -> float:
    """One skeleton step: z(t_{k+1}) = (1 + c_{k+1}) w(t_{k+1}, t_k) z(t_k)."""
    table = KernelTable(problem, rel_tol)
    return problem.impulses.factor(k + 1) * table.w_step(k) * z_k


def eval_dense(traj: Trajectory, t: float, side: str = "right") -> float:
    """Solution value at t; ``side='left'`` returns the pre-jump limit at knots."""
    return traj.value(t, side)


def zeros_in_interval(traj: Trajectory, k: int) -> List[float]:
    """All solution zeros inside [t_k, t_{k+1}) assuming z(t_k) != 0."""
    return traj.zeros_in_interval(k)
