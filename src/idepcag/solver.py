"""Forward solver: discrete skeleton, dense in-interval evaluation, zeros.

The solution is piecewise continuous: on each interval it follows the
kernel factors of :mod:`idepcag.kernel`, and at each knot the jump
z(t_k) = (1 + c_k) z(t_k^-) applies.  The skeleton stores both one-sided
values; dense evaluation reconstructs z anywhere in [tau, horizon].

Every interval carries one :class:`~idepcag.series.IntervalSeries`, built
on first use and cached by the trajectory: on kernel-backed grids the
series of e(., zeta_k) - 1, on lagged grids that of the flow and of
y' = a y + b, y(t_k) = 0, so that z = exp(A) z(t_k) + y z(t_{k-lag}).  Both
are one combination of flow and forced response (see :class:`Trajectory`),
and one march serves both grid kinds.  Dense values, the knot march and
the in-interval zeros all come from that series; zeros are the real roots
of its Chebyshev interpolant on each panel, from numpy's ``chebroots``.

The march carries z at each interval base as its ``math.frexp`` pair, so
|z| may leave the float range and come back; a lagged pure flow carries
the binary exponent of exp(A) as well where the float would underflow.
A value is rounded to a float only when it is read (to 0.0 or a subnormal
below 2^-1022, to +-inf above the largest float), and the knot signs are
the signs of the mantissas.

Start convention: no impulse is applied at tau itself (z0 is the
post-jump state), and when the argument value of the start interval lies
strictly behind tau it is replaced by tau, keeping the construction
forward-looking.  An argument value ahead of tau is used as-is; the
choice is recorded in ``Trajectory.metadata``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

# flow_weighted_integral is unused here but stays bound in this module:
# bench/tracing.py rebinds solver.flow_weighted_integral by name.
from .kernel import KernelTable, _require_invertible, flow_weighted_integral  # noqa: F401
from .problem import Problem
from .series import IntervalSeries


# ln 2 = _LN2_HI + _LN2_LO, the high part with 21 trailing zero bits so that
# n _LN2_HI is exact for |n| < 2^21 (fdlibm's split)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _sgn(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def bisect_root(f, a: float, b: float, fa: float, tol: float) -> float:
    """A root of f between a and b, given fa = f(a) and f(b) of the opposite sign.

    Halves the bracket, in either order, until it is at most tol wide or
    its midpoint rounds to an end, or returns a midpoint where f is exactly
    0.  Signs are compared, never multiplied, so values near the ends of
    the float range cannot underflow the test.
    """
    while abs(b - a) > tol:
        m = 0.5 * (a + b)
        if m == a or m == b:  # neighbouring floats: no point lies between
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) != (fa < 0.0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _ldexp(m: float, x: int) -> float:
    """m 2^x as a float: rounded once, and +-inf beyond the float range."""
    try:
        return math.ldexp(m, x)
    except OverflowError:
        return math.copysign(math.inf, m)


@dataclass(frozen=True)
class SkeletonPoint:
    """Solution values at one knot: left limit and post-jump value.

    ``sign_left`` / ``sign_right`` are the signs of the march's mantissas,
    exact where ``z_left`` / ``z_right`` leave the float range.
    """

    k: int
    t: float
    z_left: float
    z_right: float
    sign_left: int = 0
    sign_right: int = 0


class Trajectory:
    """Solved instance: skeleton plus a dense evaluator.

    Interval k holds one :class:`~idepcag.series.IntervalSeries`, giving
    the flow exponent A(t) and the forced response y(t), and six numbers
    p, q, r, e, m, x, all built on first use, so that

        z(t) = (q y(t) + r + p exp(A(t))) / e * m * 2^x.

    On kernel-backed grids y is e(., zeta_k) - 1, so p, q, r = 0, 1, 1,
    e = e(base, zeta_k) and (m, x) is the frexp pair of z(base), base being
    t_k, or tau on the start interval.  On lagged grids y solves y' = a y + b,
    y(t_k) = 0, r = 0, e = m = 1, p 2^x = z(t_k) and q 2^x = z(t_{k-lag}).

    Immutable after construction; dense queries are safe to issue
    concurrently.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        grid = problem.grid
        self.k_start = grid.interval_index(problem.tau)
        self.points: List[SkeletonPoint] = []
        self.metadata: Dict[str, object] = {}
        self._by_time: Dict[float, SkeletonPoint] = {}
        self._by_k: Dict[int, SkeletonPoint] = {}
        self._pieces: Dict[int, Tuple[IntervalSeries, float, float, float, float, float, int]] = {}
        self._pairs: Dict[int, Tuple[float, int]] = {}  # math.frexp of z at each interval base
        if grid.lagged:
            self._g = problem.b
            self.metadata["start_argument"] = "lagged history"
        else:
            self._g = problem.forcing
            clamped = grid.zeta(self.k_start) < problem.tau
            self.metadata["start_argument"] = "clamped to tau" if clamped else "grid value"

    def _append(self, pt: SkeletonPoint) -> None:
        self.points.append(pt)
        self._by_time[pt.t] = pt
        self._by_k[pt.k] = pt

    # -- skeleton ------------------------------------------------------------

    def skeleton(self) -> List[SkeletonPoint]:
        return list(self.points)

    def knot_value(self, k: int, side: str = "right") -> float:
        pt = self._by_k.get(k)
        if pt is None:
            raise ValueError(f"knot k={k} not in solved range")
        return pt.z_left if side == "left" else pt.z_right

    def _interval_base(self, k: int) -> Tuple[float, float]:
        """(t, z) where the solved part of interval k starts."""
        if k == self.k_start:
            return self.problem.tau, self.problem.z0
        pt = self._by_k.get(k)
        if pt is None:
            raise ValueError(f"interval k={k} not in solved range")
        return pt.t, pt.z_right

    def _piece(self, k: int) -> Tuple[IntervalSeries, float, float, float, float, float, int]:
        """(series, p, q, r, e, m, x) of interval k, built on first use."""
        piece = self._pieces.get(k)
        if piece is None:
            problem, grid = self.problem, self.problem.grid
            lo, hi = grid.knot(k), grid.knot(k + 1)
            m, x = self._pairs[k]
            if grid.lagged:
                # z(t_k) = m 2^x, z(t_{k-lag}) = n 2^y at the larger exponent of a nonzero
                # value that z reads; where g vanishes z reads z(t_k) alone
                series = IntervalSeries(problem.a, self._g, lo, hi, lo, k)
                n, y = self._pairs[k - grid.lag]
                if series.g_vanishes():
                    n = 0.0
                top = max(x if m else y, y if n else x)
                p, q = math.ldexp(m, x - top), math.ldexp(n, y - top)
                piece = (series, p, q, 0.0, 1.0, 1.0, top)
            else:
                # an argument value behind tau on the start interval is clamped to tau
                zeta = max(grid.zeta(k), problem.tau) if k == self.k_start else grid.zeta(k)
                series = IntervalSeries(problem.a, self._g, lo, hi, zeta, k)
                e = series.combination(self._interval_base(k)[0], 0.0, 1.0, 1.0)
                _require_invertible(e, e - 1.0, k)
                piece = (series, 0.0, 1.0, 1.0, e, m, x)
            self._pieces[k] = piece
        return piece

    # -- dense evaluation ------------------------------------------------------

    def value(self, t: float, side: str = "right") -> float:
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        pt = self._by_time.get(t)
        if pt is not None:
            return pt.z_left if side == "left" else pt.z_right
        return self._value_in_interval(t, self._interval_of(t))

    def _interval_of(self, t: float) -> int:
        """The interval holding t, refused outside [tau, horizon]."""
        if not (self.problem.tau <= t <= self.problem.horizon):
            raise ValueError(
                f"t={t} outside solved range [{self.problem.tau}, {self.problem.horizon}]"
            )
        return self.problem.grid.interval_index(t)

    def _value_in_interval(self, t: float, k: int) -> float:
        series, p, q, r, e, m, x = self._piece(k)
        return _ldexp(series.combination(t, p, q, r) / e * m, x)

    def zeros_in_interval(self, k: int) -> List[float]:
        """Roots of z in the solved part of interval k; on kernel-backed
        grids these are the roots of j(t, zeta_k), that is of e(t, zeta_k)."""
        lo, hi = self._window(k)
        if hi <= lo:
            return []
        series, p, q, r = self._piece(k)[:4]
        return series.zeros(lo, hi, p, q, r)

    def _window(self, k: int) -> Tuple[float, float]:
        """The solved part [lo, hi] of interval k."""
        lo = max(self._interval_base(k)[0], self.problem.tau)
        return lo, min(self.problem.grid.knot(k + 1), self.problem.horizon)

    def zero_list(self) -> List[Tuple[int, float]]:
        """(interval, root) pairs over the solved range.

        Intervals whose base value is zero carry the zero solution on the
        whole interval and are reported with the base point itself as the
        location.  The test uses the knot's sign, so a base value that
        merely underflowed to 0.0 is not taken for a zero.
        """
        k_end = self.problem.grid.interval_index(self.problem.horizon)
        out: List[Tuple[int, float]] = []
        for k in range(self.k_start, k_end + 1):
            base_t, base_z = self._interval_base(k)
            pt = self._by_k.get(k)
            if (pt.sign_right if pt is not None else _sgn(base_z)) == 0:
                out.append((k, base_t))
            else:
                out.extend((k, root) for root in self.zeros_in_interval(k))
        return out


# -- solving -------------------------------------------------------------------

def solve(problem: Problem) -> Trajectory:
    """Solve the problem on [tau, horizon] by one march over the knots.

    On a lagged grid tau must sit on a grid knot and ``problem.history``
    must carry the ``lag`` pre-start knot values (oldest first); the
    argument value z(t_{k-lag}) of each interval is then known when the
    march reaches it.  Raises :class:`SingularKernel` if some interval's
    kernel vanishes at its base point and :class:`ImpulseDegenerate` if
    some 1 + c_k = 0.
    """
    grid = problem.grid
    traj = Trajectory(problem)
    k = traj.k_start
    start: Tuple[float, ...] = (problem.z0,)
    if grid.lagged:
        if problem.tau != grid.knot(k):
            raise ValueError("lagged solve must start on a grid knot")
        if problem.history is None or len(problem.history) != grid.lag:
            raise ValueError(
                f"lagged solve needs exactly {grid.lag} history value(s) for the knots "
                f"t_{{{k - grid.lag}}}..t_{{{k - 1}}}"
            )
        start = (*problem.history, problem.z0)  # z(t_{k-lag}) .. z(t_k)
    traj._pairs.update(enumerate(map(math.frexp, start), k + 1 - len(start)))
    z = problem.z0
    if problem.tau == grid.knot(k):
        traj._append(SkeletonPoint(k, problem.tau, z, z, _sgn(z), _sgn(z)))
    while grid.knot(k + 1) <= problem.horizon:
        t_next = grid.knot(k + 1)
        series, p, q, r, e, m, x = traj._piece(k)
        value, n = series.combination(t_next, p, q, r) / e * m, 0
        if not q and p and abs(value) < sys.float_info.min:
            # a lagged pure flow p exp(A) below the normal range: carry exp(A)'s
            # binary exponent n, with A = n ln 2 + rest
            A = series.terms(t_next)[0]
            n = round(A / math.log(2.0))
            value = p * math.exp(A - n * _LN2_HI - n * _LN2_LO)
        left, x_left = math.frexp(value)
        right, x_right = math.frexp(problem.impulses.factor(k + 1) * left)
        x_left += x + n  # z(t_{k+1}^-) = left 2^x_left
        x_right += x_left  # z(t_{k+1}) = right 2^x_right
        traj._pairs[k + 1] = (right, x_right)
        z_left, z_right = _ldexp(left, x_left), _ldexp(right, x_right)
        traj._append(SkeletonPoint(k + 1, t_next, z_left, z_right, _sgn(left), _sgn(right)))
        k += 1
    return traj


def solve_lagged(problem: Problem) -> Trajectory:
    """:func:`solve` restricted to lagged grids."""
    if not problem.grid.lagged:
        raise ValueError("solve_lagged requires a lagged grid")
    return solve(problem)


def step(problem: Problem, k: int, z_k: float) -> float:
    """One skeleton step: z(t_{k+1}) = (1 + c_{k+1}) w(t_{k+1}, t_k) z(t_k)."""
    return problem.impulses.factor(k + 1) * KernelTable(problem).w_step(k) * z_k


def eval_dense(traj: Trajectory, t: float, side: str = "right") -> float:
    """Solution value at t; ``side='left'`` returns the pre-jump limit at knots."""
    return traj.value(t, side)


def zeros_in_interval(traj: Trajectory, k: int) -> List[float]:
    """All solution zeros inside [t_k, t_{k+1}) assuming z(t_k) != 0."""
    return traj.zeros_in_interval(k)
