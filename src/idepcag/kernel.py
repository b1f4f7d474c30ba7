"""Per-interval kernel quantities for the piecewise-constant-argument solver.

Everything here reduces to weighted integrals against the scalar flow
phi(t, s) = exp(int_s^t a).  The central object is

    j(t, zeta_k) = 1 + int_{zeta_k}^t exp(int_s^{zeta_k} a(u) du) b(s) ds,

whose zeros are exactly the in-interval zeros of the solution, together
with e(t, zeta_k) = phi(t, zeta_k) * j(t, zeta_k) and the one-step factor
w(t, s) = phi(t, s) * j(t, zeta_k) / j(s, zeta_k).

Numerically, e is the solution of

    e' = a e + b,    e(zeta_k) = 1,

that is e = 1 + y with y' = a y + (a + b), y(zeta_k) = 0.  For each
interval :class:`KernelTable` builds one
:class:`~idepcag.series.IntervalSeries` of y, a chain of Chebyshev
panels, and takes every dense value, both knot values and the in-interval
zeros from it.  The forcing a + b vanishes pointwise for the family
b = -a, so e is exactly 1 there, and the step and intra-step factors come
out as plain ratios of e values with no exponential prefactors.  The
criterion integrals, the invertibility diagnostics and phi keep their
direct definitional adaptive quadrature, so they cross-check the series
route; the criterion integrals of a whole window are one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .expressions import Const, ScalarExpr
from .problem import SINGULARITY_FACTOR, Problem
from .quadrature import default_rel_tol, integrate
from .series import EXP_OVERFLOW, IntervalSeries, PanelTable


class SingularKernel(RuntimeError):
    """The kernel j(t, zeta_k) vanished where the construction divides by it."""

    def __init__(self, k: int, value: float):
        super().__init__(
            f"kernel singular on interval k={k}: |j| ~ {value:.3e}"
        )
        self.k = k
        self.value = value


def _exp_guarded(w: float) -> float:
    if w > EXP_OVERFLOW:
        return math.inf
    return math.exp(w)


def phi(a: ScalarExpr, s: float, t: float, rel_tol: float | None = None) -> float:
    """Flow factor exp(int_s^t a(u) du) of the homogeneous part."""
    if isinstance(a, Const):
        return _exp_guarded(a.value * (t - s))
    value, _ = integrate(a.ev, s, t, rel_tol)
    return _exp_guarded(value)


def _in_range(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Coefficient values at the points ``at``, refused outside the float range."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise OverflowError(f"coefficient leaves the float range at t={float(at[bad][0])!r}")
    return values


def flow_weighted_integral(
    a: ScalarExpr,
    g: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    gamma: Callable[[np.ndarray], np.ndarray],
    rel_tol: float | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row i: int_lo^hi exp(int_s^gamma(s) a(u) du) * g(s) ds over arrays, with errors.

    One row pass for all rows, ``g`` and ``gamma`` functions of a float
    array; ``gamma``, the piecewise constant argument, must be constant on
    each row and is read at the middle node of each panel.  The inner flow
    integral is exact for constant ``a``, otherwise a second row pass over
    the outer nodes at a tenth of the tolerance.  A node where ``g``
    vanishes contributes exactly 0.0, is never tested for overflow and
    skips the inner pass.
    """
    tol = default_rel_tol() if rel_tol is None else rel_tol

    def integrand(s: np.ndarray) -> np.ndarray:
        gs = _in_range(g(s), s)
        nz = gs != 0.0
        at = gamma(s[:, s.shape[1] // 2])[:, None]
        if isinstance(a, Const):
            w = a.value * (at - s)
        else:  # the inner pass runs on the nodes where g does not vanish
            w = np.zeros_like(gs)
            ends = s[nz], np.broadcast_to(at, s.shape)[nz]
            w[nz], _ = integrate(lambda x: _in_range(a.ev_array(x), x), *ends, 0.1 * tol)
        over = (w > EXP_OVERFLOW) & nz
        if over.any():
            where = f"s={float(s[over][0])!r}"
            raise OverflowError(f"flow weight exp({w[over][0]:.3g}) overflows at {where}")
        # the row pass runs with float warnings off: exp may overflow where g vanishes
        return np.where(nz, np.exp(w) * gs, 0.0)

    return integrate(integrand, lo, hi, tol)


def _require_invertible(e_value: float, r_value: float, k: int) -> None:
    if abs(e_value) < SINGULARITY_FACTOR * (1.0 + abs(r_value)):
        raise SingularKernel(k, abs(e_value))


@dataclass(frozen=True)
class IntervalKernel:
    """Cached quantities of one interval [t_k, t_{k+1}]."""

    k: int
    j_at_tk: float
    j_at_tk1: float
    w_step: float
    i_plus: float
    i_minus: float
    nu_plus: float
    nu_minus: float
    quadrature_error_estimate: float


@dataclass(frozen=True)
class H3Report:
    """Invertibility diagnostics over a range of intervals.

    nu_plus/nu_minus pair exp(int |a|) over the advanced/delayed part with
    int |b| over the same part; the kernel quotients are guaranteed well
    defined when both sups stay below 1, with |1/j| bounded by the
    reported ``inverse_bound_*`` values.
    """

    k_range: Tuple[int, ...]
    rho_plus: Tuple[float, ...]
    rho_minus: Tuple[float, ...]
    nu_plus: Tuple[float, ...]
    nu_minus: Tuple[float, ...]
    sup_rho: float
    sup_nu_plus: float
    sup_nu_minus: float
    passed: bool

    @property
    def inverse_bound_plus(self) -> float:
        return 1.0 / (1.0 - self.sup_nu_plus) if self.passed else math.inf

    @property
    def inverse_bound_minus(self) -> float:
        return 1.0 / (1.0 - self.sup_nu_minus) if self.passed else math.inf


class KernelTable:
    """Kernel quantities of one problem, with a lazy per-interval series cache.

    The quadrature tolerance is read once, at construction.  Construction
    is single-writer: building a series mutates only the private dict, and
    every stored series is immutable afterwards.
    """

    def __init__(self, problem: Problem):
        if problem.grid.lagged:
            raise ValueError("kernel table requires a non-lagged grid")
        self.problem = problem
        self.rel_tol = default_rel_tol()
        self._series: Dict[int, IntervalSeries] = {}

    # -- e route -------------------------------------------------------------

    def series(self, k: int) -> IntervalSeries:
        """Series of e(., zeta_k) - 1 on interval k, built once per k."""
        found = self._series.get(k)
        if found is None:
            problem = self.problem
            grid = problem.grid
            found = IntervalSeries(
                problem.a, problem.forcing, grid.knot(k), grid.knot(k + 1), grid.zeta(k), k
            )
            self._series[k] = found
        return found

    def e_value(self, k: int, t: float) -> float:
        """e(t, zeta_k) = 1 + y(t) for t in the interval, read through a table of
        the one series."""
        series = self.series(k)
        series.require(t)
        return float(PanelTable([series]).terms(np.array([t]), np.zeros(1, dtype=int))[1][0]) + 1.0

    def e_at_knots(self, k: int) -> Tuple[float, float, float]:
        """(e(t_k, zeta_k), e(t_{k+1}, zeta_k), error estimate)."""
        grid = self.problem.grid
        return self.e_value(k, grid.knot(k)), self.e_value(k, grid.knot(k + 1)), self.series(k).err

    def w_step(self, k: int) -> float:
        """One-interval propagation factor w(t_{k+1}, t_k)."""
        e0, e1, _ = self.e_at_knots(k)
        _require_invertible(e0, e0 - 1.0, k)
        return e1 / e0

    def w_intra(self, k: int, t: float, s: float) -> float:
        """w(t, s) = phi(t, s) j(t, zeta_k)/j(s, zeta_k) for t, s in I_k; the
        series refuses a point outside the interval."""
        et = self.e_value(k, t)
        if t == s:
            return 1.0
        es = self.e_value(k, s)
        _require_invertible(es, es - 1.0, k)
        return et / es

    def j_value(self, k: int, t: float) -> float:
        """j(t, zeta_k); equals 1 exactly at t = zeta_k."""
        zeta = self.problem.grid.zeta(k)
        return self.e_value(k, t) * phi(self.problem.a, t, zeta, self.rel_tol)

    # -- definitional integrals ----------------------------------------------

    def criterion(self, k: int, k_end: int | None = None, side: str | None = None):
        """(i_plus, i_minus, err): the advanced and delayed kernel integrals of
        interval k, or with ``k_end`` arrays of them over [k, k_end), in one pass.

        With ``side`` "plus" or "minus", only that side's rows are integrated
        and the result is (i_plus, err) or (i_minus, err); each row comes out
        bitwise as in the pass over both sides.
        """
        knots, zetas = self.problem.grid.window(k, k + 1 if k_end is None else k_end)
        rows = {"plus": (knots[:-1], zetas), "minus": (zetas, knots[1:])}
        lo, hi = rows[side] if side else map(np.concatenate, zip(rows["plus"], rows["minus"]))

        def gamma(s: np.ndarray) -> np.ndarray:  # zeta_j on [t_j, t_{j+1})
            return zetas[np.searchsorted(knots[1:-1], s, side="right")]

        values, errs = flow_weighted_integral(
            self.problem.a, self.problem.b.ev_array, lo, hi, gamma, self.rel_tol
        )
        if side:
            out = values, errs
        else:
            n = len(zetas)
            out = values[:n], values[n:], errs[:n] + errs[n:]
        if k_end is None:
            return tuple(float(x[0]) for x in out)
        return out

    def h3(self, k: int) -> Tuple[float, float, float, float]:
        """(rho_plus, rho_minus, nu_plus, nu_minus) for interval k."""
        grid = self.problem.grid
        tk, tk1, zeta = grid.knot(k), grid.knot(k + 1), grid.zeta(k)
        a_fn, b_fn = self.problem.a.ev, self.problem.b.ev
        abs_a = lambda s: abs(a_fn(s))
        abs_b = lambda s: abs(b_fn(s))
        rho_p = _exp_guarded(integrate(abs_a, tk, zeta, self.rel_tol)[0])
        rho_m = _exp_guarded(integrate(abs_a, zeta, tk1, self.rel_tol)[0])
        int_b_p = integrate(abs_b, tk, zeta, self.rel_tol)[0]
        int_b_m = integrate(abs_b, zeta, tk1, self.rel_tol)[0]
        return rho_p, rho_m, rho_p * int_b_p, rho_m * int_b_m

    def interval_kernel(self, k: int) -> IntervalKernel:
        w = self.w_step(k)  # raises SingularKernel before any quadrature
        grid = self.problem.grid
        i_plus, i_minus, err_c = self.criterion(k)
        _, _, nu_p, nu_m = self.h3(k)
        return IntervalKernel(
            k=k,
            j_at_tk=self.j_value(k, grid.knot(k)),
            j_at_tk1=self.j_value(k, grid.knot(k + 1)),
            w_step=w,
            i_plus=i_plus,
            i_minus=i_minus,
            nu_plus=nu_p,
            nu_minus=nu_m,
            quadrature_error_estimate=self.series(k).err + err_c,
        )


# -- module-level operations -------------------------------------------------

def j_value(problem: Problem, k: int, t: float) -> float:
    """Kernel j(t, zeta_k) for t in [t_k, t_{k+1}]."""
    return KernelTable(problem).j_value(k, t)


def w_intra(problem: Problem, k: int, t: float, s: float) -> float:
    """In-interval propagation factor carrying z(s) to z(t)."""
    return KernelTable(problem).w_intra(k, t, s)


def criterion_integrals(problem: Problem, k: int) -> Tuple[float, float]:
    """(i_plus, i_minus): kernel integrals over the advanced/delayed parts."""
    i_plus, i_minus, _ = KernelTable(problem).criterion(k)
    return i_plus, i_minus


def h3_check(problem: Problem, k_range: Sequence[int]) -> H3Report:
    """Invertibility diagnostics (sup nu^+/- < 1) over the given intervals."""
    table = KernelTable(problem)
    ks = tuple(k_range)
    if not ks:
        raise ValueError("empty interval range")
    rows = [table.h3(k) for k in ks]
    rho_p = tuple(r[0] for r in rows)
    rho_m = tuple(r[1] for r in rows)
    nu_p = tuple(r[2] for r in rows)
    nu_m = tuple(r[3] for r in rows)
    sup_nu_p = max(nu_p)
    sup_nu_m = max(nu_m)
    return H3Report(
        k_range=ks,
        rho_plus=rho_p,
        rho_minus=rho_m,
        nu_plus=nu_p,
        nu_minus=nu_m,
        sup_rho=max(p * m for p, m in zip(rho_p, rho_m)),
        sup_nu_plus=sup_nu_p,
        sup_nu_minus=sup_nu_m,
        passed=sup_nu_p < 1.0 and sup_nu_m < 1.0,
    )


def gl2_lagged_integral(p: float, k: int = 1) -> float:
    """Flow integral over [t_{k-1}, t_{k+1}] for the unit-lag argument.

    For the grid gamma(t) = [t - 1] the delayed window of interval k spans
    two mesh cells, each carrying its own argument value; the integral is

        int_{k-1}^{k+1} exp(-p (gamma(s) - s)) ds
          = int_{k-1}^{k} exp(-p ((k-2) - s)) ds
            + int_{k}^{k+1} exp(-p ((k-1) - s)) ds
          = 2 e^p (e^p - 1) / p,

    independent of k, so ``k`` has no effect.  Requires p != 0.
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    return 2.0 * math.exp(p) * math.expm1(p) / p


def gl2_oscillation_bound(p: float) -> float:
    """Coefficient threshold p e^{-p} / (2 (e^p - 1)) implied by the
    two-cell integral above: a lagged coefficient above it forces
    oscillation."""
    if p == 0:
        raise ValueError("p must be nonzero")
    return p * math.exp(-p) / (2.0 * (math.exp(p) - 1.0))
