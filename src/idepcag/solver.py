"""Forward solver: discrete skeleton, dense in-interval evaluation, zeros.

The solution is piecewise continuous: on kernel-backed grids it follows,
on each interval, the kernel e(., zeta_k) of :mod:`idepcag.kernel`, and at
each knot the jump z(t_k) = (1 + c_k) z(t_k^-) applies.  The skeleton
stores both one-sided values; dense evaluation reconstructs z anywhere in
[tau, horizon].

Before it marches, the solve builds, in one row batch, the sides that its
solved range reaches on every interval up to the horizon, and keeps them in
one :class:`~idepcag.series.PanelTable`: on kernel-backed grids the series
of e(., zeta_k) - 1, on lagged grids that of the flow and of
y' = a y + b, y(t_k) = 0, so that z = exp(A) z(t_k) + y z(t_{k-lag}).  Both
are one combination of flow and forced response (see :class:`Trajectory`),
and one march serves both grid kinds.  Dense values, the knot march and
the in-interval zeros all read that table: the march reads the terms at
every end knot and base in one pass before it steps, ``values`` reads many
points in one array pass and ``value`` one, and zeros are the real roots
of the Chebyshev interpolant on each panel, from numpy's ``chebroots``,
fitted on the panels of every searched interval in one batch.

The march carries z at each interval base as its ``math.frexp`` pair, so
|z| may leave the float range and come back; a lagged pure flow carries
the binary exponent of exp(A) as well where the float would underflow,
at the knots and in dense values alike.
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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .kernel import _require_invertible
# flow_weighted_integral is unused here but stays bound in this module:
# bench/tracing.py rebinds solver.flow_weighted_integral by name.
from .kernel import flow_weighted_integral  # noqa: F401
from .problem import Problem
from .series import EXP_OVERFLOW, PanelTable, _exp, build_sides, zero_search


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


def _scaled(p, q, r, e, m, x, A, y):
    """(v, x) with z = v 2^x = (q y + r + p exp(A)) / e * m 2^x, from the terms (A, y)
    of one point and its interval's coefficients as floats, or of many points as
    arrays, one coefficient of each kind per point.  The flow term is added only where
    p is not 0, by ``math.exp``, and its exp(709) bound is the caller's to check.  A
    lagged pure flow p exp(A) below the normal range carries exp(A)'s binary exponent
    n in x, with A = n ln 2 + rest."""
    if isinstance(A, float):
        v = (q * y + r + p * math.exp(A) if p else q * y + r) / e * m
        if q or not p or abs(v) >= sys.float_info.min:
            return v, x
        n = round(A / math.log(2.0))
        return p * math.exp(A - n * _LN2_HI - n * _LN2_LO), x + n
    u = q * y + r
    w = np.flatnonzero(p)
    u[w] += p[w] * _exp(A[w])
    v = u / e * m
    c = np.flatnonzero((q == 0.0) & (p != 0.0) & (np.abs(v) < sys.float_info.min))
    n = np.round(A[c] / math.log(2.0))
    v[c], x[c] = p[c] * _exp(A[c] - n * _LN2_HI - n * _LN2_LO), x[c] + n
    return v, x


def _require_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")


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

    The panel table gives, on interval k, the flow exponent A(t) and the
    forced response y(t), and the interval holds six numbers p, q, r, e, m,
    x, built on first use, so that

        z(t) = (q y(t) + r + p exp(A(t))) / e * m * 2^x.

    On kernel-backed grids y is e(., zeta_k) - 1, so p, q, r = 0, 1, 1,
    e = e(base, zeta_k) and (m, x) is the frexp pair of z(base), base being
    t_k, or tau on the start interval.  On lagged grids y solves y' = a y + b,
    y(t_k) = 0, r = 0, e = m = 1, p 2^x = z(t_k) and q 2^x = z(t_{k-lag}).

    The march, :meth:`values` and :meth:`value` read (A, y) from one flat table
    of the panels and apply the coefficients of each point's interval.

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
        self._pieces: Dict[int, Tuple[float, float, float, float, float, int]] = {}
        self._pairs: Dict[int, Tuple[float, int]] = {}  # math.frexp of z at each interval base
        self._e: Dict[int, float] = {}  # e(base, zeta_k) of each interval, on kernel grids
        self._table: Optional[PanelTable] = None  # laid out once the sides are built
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
        """z(t_k); ``side='left'`` gives the pre-jump limit."""
        _require_side(side)
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

    def _build_series(self) -> None:
        """Build, in one :func:`~idepcag.series.build_sides` batch, the sides of the
        anchors of every interval from k_start to the horizon's that the solved
        range reaches; row i of the table is interval k_start + i."""
        problem, grid = self.problem, self.problem.grid
        ks = range(self.k_start, grid.interval_index(problem.horizon) + 1)
        spans, sides = [], []
        for i, k in enumerate(ks):
            lo, hi = grid.knot(k), grid.knot(k + 1)
            if grid.lagged:
                anchor = lo
            else:  # an argument value behind tau on the start interval is clamped to tau
                anchor = max(grid.zeta(k), problem.tau) if k == self.k_start else grid.zeta(k)
            spans.append((lo, hi, anchor))
            base, end = (problem.tau if k == self.k_start else lo), min(hi, problem.horizon)
            if base < min(anchor, end):
                sides.append((i, False))
            if base < end and anchor < end:
                sides.append((i, True))
        names = [f"interval k={k}" for k in ks]
        self._table = build_sides(problem.a, self._g, spans, names, sides)

    def _piece(self, k: int) -> Tuple[float, float, float, float, float, int]:
        """(p, q, r, e, m, x) of interval k, built on first use."""
        piece = self._pieces.get(k)
        if piece is None:
            grid = self.problem.grid
            m, x = self._pairs[k]
            if grid.lagged:
                # z(t_k) = m 2^x, z(t_{k-lag}) = n 2^y at the larger exponent of a nonzero
                # value that z reads; where g vanishes z reads z(t_k) alone
                n, y = self._pairs[k - grid.lag]
                if self._table.g_zero[k - self.k_start]:
                    n = 0.0
                top = max(x if m else y, y if n else x)
                p, q = math.ldexp(m, x - top), math.ldexp(n, y - top)
                piece = (p, q, 0.0, 1.0, 1.0, top)
            else:
                # a failed side raises here
                self._table.require(k - self.k_start, self._interval_base(k)[0])
                e = self._e[k]
                _require_invertible(e, e - 1.0, k)
                piece = (0.0, 1.0, 1.0, e, m, x)
            self._pieces[k] = piece
        return piece

    # -- dense evaluation ------------------------------------------------------

    def value(self, t: float, side: str = "right") -> float:
        """z(t); ``side='left'`` gives the pre-jump limit at a knot."""
        _require_side(side)
        pt = self._by_time.get(t)
        if pt is not None:
            return pt.z_left if side == "left" else pt.z_right
        return self.values([t])[0]

    def values(self, ts: Sequence[float]) -> List[float]:
        """z at each t of ts: knots from the skeleton, the rest, once none lies
        outside [tau, horizon], by one :meth:`_interval_values` call."""
        out = [None if pt is None else pt.z_right for pt in map(self._by_time.get, ts)]
        rest = [i for i, z in enumerate(out) if z is None]
        t = np.array([ts[i] for i in rest], dtype=float)
        for i in np.flatnonzero(~((self.problem.tau <= t) & (t <= self.problem.horizon)))[:1]:
            raise ValueError(
                f"t={ts[rest[i]]} outside solved range [{self.problem.tau}, {self.problem.horizon}]"
            )
        knots = [pt.t for pt in self.points if pt.k > self.k_start]
        ks = (np.searchsorted(knots, t, side="right") + self.k_start).tolist()
        for i, z in zip(rest, self._interval_values(t.tolist(), ks)):
            out[i] = z
        return out

    def _interval_values(self, ts: Sequence[float], ks: Sequence[int]) -> List[float]:
        """z at each t of ts, none a knot, on its interval of ks, in one array pass:
        the terms from the panel table, then the coefficients of each point's
        interval.  The first point that fails raises as it would alone: first its
        interval's base, then its side, then its flow past exp(709)."""
        t, i = np.array(ts, dtype=float), np.array(ks, dtype=int) - self.k_start
        with np.errstate(all="ignore"):  # inf and nan arise as on floats
            A, y = self._table.terms(t, i)
            # in point order, at each point that is the first of its interval or of
            # its side (the anchor needs none), or whose flow may pass exp(709): the
            # interval's base, the point's side, then its flow
            anchor = self._table._anchor[i]
            keys = 3 * i + np.where(t == anchor, 0, 1 + (t > anchor))
            over = np.flatnonzero(A > EXP_OVERFLOW).tolist()
            for at in sorted({*np.unique(keys, return_index=True)[1].tolist(), *over}):
                p = self._piece(ks[at])[0]
                self._table.require(i[at], ts[at])
                if p and A[at] > EXP_OVERFLOW:
                    raise self._table.overflow(i[at], float(A[at]))
            intervals, of = np.unique(i, return_inverse=True)
            coefs = [self._piece(k) for k in (intervals + self.k_start).tolist()]
            p, q, r, e, m, x = np.array(coefs, dtype=float).reshape(-1, 6)[of].T
            v, x = _scaled(p, q, r, e, m, x.astype(int), A, y)
            return np.ldexp(v, x).tolist()

    def zeros_in_interval(self, k: int) -> List[float]:
        """Roots of z in the solved part of interval k; on kernel-backed
        grids these are the roots of e(t, zeta_k)."""
        return next(self.zeros_in_intervals([k]))

    def zeros_in_intervals(self, ks: Iterable[int]) -> Iterator[List[float]]:
        """The roots of z in the solved part of each interval of ks, in order,
        from one :func:`~idepcag.series.zero_search` over the panel table; a
        failure is raised in its interval's turn."""

        def jobs():
            for k in ks:
                lo, hi = self._window(k)
                p, q, r = self._piece(k)[:3] if lo < hi else (0.0, 0.0, 0.0)
                yield k - self.k_start, lo, hi, p, q, r

        return zero_search(self._table, jobs())

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
        bases = {}  # the base point of each interval whose base value is zero
        for k in range(self.k_start, k_end + 1):
            base_t, base_z = self._interval_base(k)
            pt = self._by_k.get(k)
            if (pt.sign_right if pt is not None else _sgn(base_z)) == 0:
                bases[k] = base_t
        roots = self.zeros_in_intervals(k for k in range(self.k_start, k_end + 1) if k not in bases)
        out: List[Tuple[int, float]] = []
        for k in range(self.k_start, k_end + 1):
            if k in bases:
                out.append((k, bases[k]))
            else:
                out.extend((k, root) for root in next(roots))
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
    k = grid.interval_index(problem.tau)
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
    traj = Trajectory(problem)
    traj._build_series()
    traj._pairs.update(enumerate(map(math.frexp, start), k + 1 - len(start)))
    # one table read of the terms at every interval's end knot and, on kernel grids,
    # at every base: none depends on z
    ks = range(k, grid.interval_index(problem.horizon) + 1)
    ends = [grid.knot(j + 1) for j in ks if grid.knot(j + 1) <= problem.horizon]
    bases = [] if grid.lagged else [problem.tau if j == k else grid.knot(j) for j in ks]
    i = np.array([*range(len(ends)), *range(len(bases))], dtype=int)
    A, y = traj._table.terms(np.array(ends + bases, dtype=float), i)
    traj._e.update(zip(ks, (y[len(ends):] + 1.0).tolist()))  # e = 1 + y
    z = problem.z0
    if problem.tau == grid.knot(k):
        traj._append(SkeletonPoint(k, problem.tau, z, z, _sgn(z), _sgn(z)))
    for i, (t_next, A_end, y_end) in enumerate(zip(ends, A.tolist(), y.tolist())):
        coefs = traj._piece(k)
        traj._table.require(i, t_next)  # a failed side raises here
        if coefs[0] and A_end > EXP_OVERFLOW:
            raise traj._table.overflow(i, A_end)
        value, x = _scaled(*coefs, A_end, y_end)
        left, x_left = math.frexp(value)
        right, x_right = math.frexp(problem.impulses.factor(k + 1) * left)
        x_left += x  # z(t_{k+1}^-) = left 2^x_left
        x_right += x_left  # z(t_{k+1}) = right 2^x_right
        traj._pairs[k + 1] = (right, x_right)
        z_left, z_right = _ldexp(left, x_left), _ldexp(right, x_right)
        traj._append(SkeletonPoint(k + 1, t_next, z_left, z_right, _sgn(left), _sgn(right)))
        k += 1
    return traj

