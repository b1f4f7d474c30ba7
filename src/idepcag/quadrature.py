"""Adaptive Gauss-Kronrod quadrature for signed one-dimensional integrals.

:func:`integrate` takes one integral of a function of a float, or, given
arrays of limits, many at once, one row each, of a function of a float
array, with the same rule, acceptance test and errors per row.
"""

from __future__ import annotations

import heapq
import math
import os
from typing import Callable, Tuple

import numpy as np

DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_PANELS = 4096

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Positive abscissae; the rule is symmetric about 0.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
# Gauss-7 weights, paired with _XGK indices 1, 3, 5 and the centre point.
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694
# the rule over all 15 nodes in ascending order
_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_KRONROD = np.array(_WGK + (_WGK_CENTER,) + _WGK[::-1])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _WG + (_WG_CENTER,) + _WG[::-1]
_ROWS_PER_GROUP = 64  # rows that the row pass refines together
# An error estimate at most this many eps of the summed |panel values| is
# rounding, which more panels cannot lower: a target below it is unreachable.
_ROUNDING_FLOOR = 50 * float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Raised when the adaptive rule cannot reach the requested tolerance.

    Carries the best available estimate in ``value`` / ``err``.
    """

    def __init__(self, message: str, value: float = math.nan, err: float = math.inf):
        super().__init__(message)
        self.value = value
        self.err = err


def default_rel_tol() -> float:
    """Quadrature tolerance, overridable through IDEPCAG_QUAD_TOL; a value that
    is not a finite, non-negative number is refused as a ValueError."""
    text = os.environ.get("IDEPCAG_QUAD_TOL", str(DEFAULT_REL_TOL))
    try:
        if 0.0 <= float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"IDEPCAG_QUAD_TOL must be a finite, non-negative number, got {text!r}")


def _gk15(f: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for i in range(7):
        dx = h * _XGK[i]
        s = f(c - dx) + f(c + dx)
        resk += _WGK[i] * s
        if i % 2 == 1:
            resg += _WG[i // 2] * s
    value = resk * h
    err = abs((resk - resg) * h)
    return value, err


def integrate(
    f: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    rel_tol: float | None = None,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> Tuple:
    """Integrate ``f`` from ``lo`` to ``hi`` adaptively.

    Limits may come in either order; the result is antisymmetric under a
    swap.  Returns ``(value, err)`` where ``err`` is the internal estimate.
    The target is ``err <= max(rel_tol * |value|, rel_tol)``; failure to get
    there within ``max_panels``, or an estimate that has reached its
    rounding floor, 50 eps times the sum of |panel values|, above the
    target, raises :class:`QuadratureError` carrying the best estimate.

    With ``lo`` and ``hi`` arrays, row ``i`` is the integral from ``lo[i]``
    to ``hi[i]`` and ``f`` takes a 2-D array, one line of nodes per panel,
    each panel inside one row.  A row that misses its target bisects its
    panel of largest error, as a single integral would; such rows do so
    together, up to 64 at a time, one panel each per step.  Zero-length
    rows are exactly 0.0 and never evaluate ``f``.  Returns arrays.
    """
    tol = default_rel_tol() if rel_tol is None else rel_tol
    if isinstance(lo, np.ndarray):
        return _integrate_rows(f, lo, hi, tol, max_panels)
    if lo == hi:
        return 0.0, 0.0
    if lo > hi:
        value, err = integrate(f, hi, lo, rel_tol=tol, max_panels=max_panels)
        return -value, err

    value, err = _gk15(f, lo, hi)
    if not math.isfinite(value):
        raise QuadratureError(f"non-finite integrand on [{lo}, {hi}]", value, err)
    panels = [(-err, lo, hi, value, err)]
    total_v, total_e, total_abs = value, err, abs(value)
    while total_e > max(tol * abs(total_v), tol):
        if len(panels) >= max_panels or total_e <= _ROUNDING_FLOOR * total_abs:
            raise QuadratureError(
                f"quadrature did not converge on [{lo}, {hi}] "
                f"(panels={len(panels)}, err={total_e:.3e})",
                total_v,
                total_e,
            )
        _, a, b, pv, pe = heapq.heappop(panels)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            raise QuadratureError(
                f"panel collapsed near t={a!r}", total_v, total_e
            )
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise QuadratureError(
                f"non-finite integrand near [{a}, {b}]", total_v, total_e
            )
        total_v += v1 + v2 - pv
        total_e += e1 + e2 - pe
        total_abs += abs(v1) + abs(v2) - abs(pv)
        heapq.heappush(panels, (-e1, a, m, v1, e1))
        heapq.heappush(panels, (-e2, m, b, v2, e2))
    return total_v, total_e


def _gk15_rows(f, a: np.ndarray, b: np.ndarray):
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fx = f(c[:, None] + h[:, None] * _NODES)
    # einsum, unlike a BLAS product, sums each row alike whatever the row count
    value = np.einsum("ij,j->i", fx, _KRONROD) * h
    finite = np.isfinite(value)
    if not finite.all():
        i = np.argmin(finite)
        raise QuadratureError(f"non-finite integrand on [{float(a[i])}, {float(b[i])}]")
    return value, np.abs(np.einsum("ij,j->i", fx, _KRONROD - _GAUSS) * h)


@np.errstate(all="ignore")
def _integrate_rows(f, lo: np.ndarray, hi: np.ndarray, tol: float, max_panels: int):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    a, b = np.minimum(lo, hi), np.maximum(lo, hi)
    value, err = np.zeros(a.shape), np.zeros(a.shape)
    rows = np.flatnonzero(a != b)
    value[rows], err[rows] = _gk15_rows(f, a[rows], b[rows])
    failing = rows[err[rows] > np.maximum(tol * np.abs(value[rows]), tol)]
    # in groups, so that the panel store and the cost of a failure stay bounded
    for group in np.split(failing, range(_ROWS_PER_GROUP, failing.size, _ROWS_PER_GROUP)):
        _refine(f, group, a, b, value, err, tol, max_panels)
    return np.where(lo > hi, -value, value), err


def _refine(f, rows, a, b, value, err, tol: float, max_panels: int) -> None:
    """Bisect the worst panel of every row in ``rows`` until each meets its
    target; a row whose estimate reaches its rounding floor fails at once."""
    # (lo, hi, value, err) of every panel of the rows still refining; each has n
    panels = np.stack([a, b, value, err])[:, rows, None]
    mag = np.abs(value[rows])  # sum of |panel values| of each row still refining
    n = 1
    while rows.size:
        floored = err[rows] <= _ROUNDING_FLOOR * mag
        if n >= max_panels or floored.any():
            i = rows[np.argmax(floored)]
            msg = f"quadrature did not converge on [{float(a[i])}, {float(b[i])}] (panels={n}, "
            raise QuadratureError(msg + f"err={err[i]:.3e})", float(value[i]), float(err[i]))
        if n == panels.shape[2]:
            panels = np.concatenate([panels, np.empty_like(panels)], axis=2)
        m = np.arange(rows.size)
        j = panels[3, :, :n].argmax(axis=1)
        pa, pb, pv, pe = panels[:, m, j]
        mid = 0.5 * (pa + pb)
        collapsed = (mid <= pa) | (mid >= pb)
        if collapsed.any():
            raise QuadratureError(f"panel collapsed near t={float(pa[np.argmax(collapsed)])!r}")
        v, e = _gk15_rows(f, np.concatenate([pa, mid]), np.concatenate([mid, pb]))
        (v1, v2), (e1, e2) = v.reshape(2, -1), e.reshape(2, -1)
        value[rows] += v1 + v2 - pv
        err[rows] += e1 + e2 - pe
        mag += np.abs(v1) + np.abs(v2) - np.abs(pv)
        panels[:, m, j] = pa, mid, v1, e1
        panels[:, :, n] = mid, pb, v2, e2
        n += 1
        fail = err[rows] > np.maximum(tol * np.abs(value[rows]), tol)
        if not fail.all():
            rows, panels, mag = rows[fail], panels[:, fail], mag[fail]
