"""Per-interval kernel quantities for the piecewise-constant-argument solver.

On interval k, with zeta_k its argument value, the kernel e(t, zeta_k) is
the solution of

    e' = a e + b,    e(zeta_k) = 1,

that is e = 1 + y with y' = a y + (a + b), y(zeta_k) = 0, and the solution
z is z(t_k) e(t, zeta_k) / e(t_k, zeta_k).  :class:`KernelTable` builds,
per interval, the chains of Chebyshev panels of y on both sides of zeta_k
into one :class:`~idepcag.series.PanelTable`, and reads e from it, as the
solver does.  The forcing a + b vanishes pointwise for the family b = -a,
so e is exactly 1 there.

The oscillation criteria read the advanced and delayed kernel integrals

    i_plus  = int_{t_k}^{zeta_k} exp(int_s^{zeta_k} a(u) du) b(s) ds,
    i_minus = int_{zeta_k}^{t_{k+1}} exp(int_s^{zeta_k} a(u) du) b(s) ds,

by direct definitional adaptive quadrature, so they cross-check the
series route: e(t_k, zeta_k) exp(int_{t_k}^{zeta_k} a) = 1 - i_plus and
e(t_{k+1}, zeta_k) exp(int_{t_{k+1}}^{zeta_k} a) = 1 + i_minus.  The
integrals of a whole window are one array pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from .expressions import Const, ScalarExpr
from .problem import SINGULARITY_FACTOR, Problem
from .quadrature import default_rel_tol, integrate
from .series import EXP_OVERFLOW, PanelTable, build_sides


class SingularKernel(RuntimeError):
    """The kernel e(t, zeta_k) vanished where the construction divides by it."""

    def __init__(self, k: int, value: float):
        super().__init__(
            f"kernel singular on interval k={k}: |j| ~ {value:.3e}"
        )
        self.k = k
        self.value = value


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


class KernelTable:
    """The kernel e and the criterion integrals of one problem, with a lazy
    per-interval cache of panel tables.

    The quadrature tolerance is read once, at construction.  Construction
    is single-writer: building a table mutates only the private dict, and
    every stored table is immutable afterwards.
    """

    def __init__(self, problem: Problem):
        if problem.grid.lagged:
            raise ValueError("kernel table requires a non-lagged grid")
        self.problem = problem
        self.rel_tol = default_rel_tol()
        self._tables: Dict[int, PanelTable] = {}

    # -- e route -------------------------------------------------------------

    def _table(self, k: int) -> PanelTable:
        """The one-interval table of e(., zeta_k) - 1 on interval k, with the sides of
        zeta_k that have a nonzero length, built once per k."""
        table = self._tables.get(k)
        if table is None:
            problem, grid = self.problem, self.problem.grid
            lo, hi, zeta = grid.knot(k), grid.knot(k + 1), grid.zeta(k)
            sides = [(0, False)] * (lo < zeta) + [(0, True)] * (zeta < hi)
            table = self._tables[k] = build_sides(
                problem.a, problem.forcing, [(lo, hi, zeta)], [f"interval k={k}"], sides
            )
        return table

    def e_value(self, k: int, t: float) -> float:
        """e(t, zeta_k) = 1 + y(t) for t in the interval."""
        table = self._table(k)
        table.require(0, t)
        return float(table.terms(np.array([t]), np.zeros(1, dtype=int))[1][0]) + 1.0

    def e_at_knots(self, k: int) -> Tuple[float, float, float]:
        """(e(t_k, zeta_k), e(t_{k+1}, zeta_k), error estimate)."""
        grid = self.problem.grid
        e_lo, e_hi = self.e_value(k, grid.knot(k)), self.e_value(k, grid.knot(k + 1))
        return e_lo, e_hi, self._table(k).err(0)

    # -- definitional integrals ----------------------------------------------

    def criterion(self, k: int, k_end: int, side: str | None = None):
        """(i_plus, i_minus, err): arrays of the advanced and delayed kernel
        integrals of the intervals [k, k_end), in one pass.

        With ``side`` "plus" or "minus", only that side's rows are integrated
        and the result is (i_plus, err) or (i_minus, err); each row comes out
        bitwise as in the pass over both sides.
        """
        knots, zetas = self.problem.grid.window(k, k_end)
        rows = {"plus": (knots[:-1], zetas), "minus": (zetas, knots[1:])}
        lo, hi = rows[side] if side else map(np.concatenate, zip(rows["plus"], rows["minus"]))

        def gamma(s: np.ndarray) -> np.ndarray:  # zeta_j on [t_j, t_{j+1})
            return zetas[np.searchsorted(knots[1:-1], s, side="right")]

        values, errs = flow_weighted_integral(
            self.problem.a, self.problem.b.ev_array, lo, hi, gamma, self.rel_tol
        )
        if side:
            return values, errs
        n = len(zetas)
        return values[:n], values[n:], errs[:n] + errs[n:]
