"""Chebyshev panel series for the linear problem on one mesh interval.

On an interval [lo, hi] the solver needs, for a point ``anchor`` inside
it, the flow exp(A(t)) with A(t) = int_anchor^t a and the solution of

    y' = a(t) y + g(t),    y(anchor) = 0,

that is y(t) = exp(A(t)) int_anchor^t exp(-A(s)) g(s) ds.  The kernel
route takes g = a + b and e = 1 + y; the lagged route takes g = b.

The interval is cut at the anchor, and each side into panels on which
int |a| <= 1, chained outward from the anchor.  On a panel starting at c,
A_c(t) = int_c^t a and C_c(t) = int_c^t exp(-A_c) g are Chebyshev
antiderivatives of interpolants of a and of exp(-A_c) g, and
y(t) = exp(A_c(t)) (y(c) + C_c(t)).  Keeping the exponent below 1 on every
panel keeps the product exp(A) C from losing exp(int |a|) of its accuracy.
Each interpolant has the degree the tail chopping rule of Aurentz and
Trefethen ("Chopping a Chebyshev series", ACM TOMS 2017) gives at machine
precision; a panel whose coefficients do not level off is bisected.

Zeros are the real roots, from numpy's ``chebroots``, of the interpolant of
the wanted combination on each panel: the eigenvalues of its colleague
matrix (Good, 1961).  A root where the combination changes sign gets one
secant step through the two values that show the change.  A double root
is ill-conditioned and may come out as a pair or not at all.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .expressions import Const, ScalarExpr
from .quadrature import QuadratureError

EXP_OVERFLOW = 709.0
MAX_BISECTIONS = 12
MAX_PANELS = 4096

_EPS = float(np.finfo(float).eps)
_SIZES = (33, 65, 129)
_ROOT_IMAG_TOL = 1e-8
_ROOT_MERGE_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def _cheb_basis(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-kind Chebyshev points x on [-1, 1], the values-to-coefficients
    matrix scaled by n, and T_k(x) for every degree an antiderivative of a
    fit can have."""
    theta = np.pi * (np.arange(n) + 0.5) / n
    x = np.cos(theta)
    m = 2.0 * np.cos(np.outer(np.arange(n), theta))
    m[0] = 1.0
    v = np.cos(np.outer(theta, np.arange(_SIZES[-1] + 1)))
    for arr in (x, m, v):
        arr.setflags(write=False)
    return x, m, v


def _chop(coefs: np.ndarray, tol: float = _EPS) -> int:
    """Number of leading coefficients to keep (Aurentz & Trefethen's
    standardChop); ``len(coefs)`` when the tail has not levelled off."""
    n = len(coefs)
    env = np.maximum.accumulate(np.abs(coefs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env /= env[0]
    # The plateau is the first j whose envelope barely falls by index
    # 1.25 j + 5.  That needs env[j - 1] < tol^(2/3), so the scan starts at
    # the first such j; the envelope does not increase.
    first = int(np.argmax(env < tol ** (2.0 / 3.0))) + 1
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(env >= floor))
    env = env.tolist()
    log_tol = math.log(tol)
    for j in range(max(first, 2), n + 1):
        j2 = int(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1 = env[j - 1]
        if e1 == 0.0 or env[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / log_tol):
            break
    else:
        return n
    plateau = j - 1
    if env[plateau - 1] == 0.0:
        return plateau
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    slope = -math.log10(tol) / (3.0 * (j2 - 1))
    cc = [math.log10(env[i]) + i * slope for i in range(j2)]
    return max(cc.index(min(cc)), 1)


def _fit(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: float, hi: float, where: str
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Chebyshev coefficients of ``f`` on [lo, hi], those chopping keeps and
    those it drops, or None when the largest sample size does not resolve
    it.  ``f`` gets the sample times and the values of T_k there."""
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for n in _SIZES:
        x, m, v = _cheb_basis(n)
        with np.errstate(over="ignore", invalid="ignore"):
            values = f(mid + hw * x, v)
        if not np.all(np.isfinite(values)):
            raise OverflowError(f"non-finite values on {where} near [{lo!r}, {hi!r}]")
        coefs = m @ values / n
        keep = _chop(coefs)
        if keep < n:
            return coefs[:keep], coefs[keep:]
    return None


def _antiderivative(c: np.ndarray, x_start: float, scale: float) -> List[float]:
    """Coefficients of scale * int_{x_start}^x of the series ``c``, using
    int T_0 = T_1 and int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1))."""
    c = c.tolist() + [0.0, 0.0]
    n = len(c) - 2
    out = [0.0, (2.0 * c[0] - c[2]) * 0.5 * scale]
    out += [(c[k - 1] - c[k + 1]) * scale / (2 * k) for k in range(2, n + 1)]
    out[0] = -sum(v * x_start**k for k, v in enumerate(out))
    return out


def _colleague_roots(c: np.ndarray) -> np.ndarray:
    """Roots of sum c_k T_k, complex ones included: the eigenvalues of its
    colleague matrix (Good, 1961), none below degree 1."""
    return np.polynomial.chebyshev.chebroots(c)


def _clenshaw(c: List[float], x: float) -> float:
    b1 = b2 = 0.0
    x2 = 2.0 * x
    for i in range(len(c) - 1, 0, -1):
        b1, b2 = c[i] + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


def _keeps_sign(c: np.ndarray, err: float) -> bool:
    """|c_0| > sum_{k>=1} |c_k| + err: as |T_k| <= 1 on [-1, 1], a function
    within err of the series sum c_k T_k there has the sign of c_0 throughout
    and no root."""
    return abs(c[0]) > float(np.abs(c[1:]).sum()) + err


class _Panel:
    """One chain link: [lo, hi], entered at its end c nearer the anchor with
    A(c) = A0 and y(c) = y0.  ``A`` and ``C`` are the Chebyshev coefficients
    of the local antiderivatives int_c^t a and int_c^t exp(-A) g, as arrays
    and as float lists for scalar evaluation."""

    __slots__ = ("lo", "hi", "mid", "hw", "A0", "y0", "A", "C", "A_list", "C_list")

    def __init__(self, lo, hi, A0, y0, A, C):
        self.lo, self.hi = lo, hi
        # a side as short as one subnormal step still maps onto [-1, 1]
        self.mid, self.hw = 0.5 * (lo + hi), 0.5 * (hi - lo) or hi - lo
        self.A0, self.y0 = A0, y0
        self.A_list, self.C_list = A, C
        self.A, self.C = np.array(A), np.array(C)


class IntervalSeries:
    """Flow and forced response on one interval, built once and evaluated
    anywhere in it.

    ``combination`` is a fixed combination of y(t) above, exactly 0 at the
    anchor, with the flow exp(int_anchor^t a) and a constant, and ``zeros``
    the roots of such a combination.  Each side of the anchor is built on
    first use.  Raises :class:`QuadratureError`
    when the coefficients do not level off after ``MAX_BISECTIONS`` halvings
    or the chain needs more than ``MAX_PANELS`` panels, and ``OverflowError``
    when exp(A) passes exp(709) where it multiplies a nonzero value; both
    name the interval.  ``err`` sums a rounding-level error estimate of y
    over the panels built so far.
    """

    def __init__(
        self, a: ScalarExpr, g: ScalarExpr, lo: float, hi: float, anchor: float, k: int
    ):
        if not lo <= anchor <= hi:
            raise ValueError(f"anchor {anchor!r} outside [{lo!r}, {hi!r}]")
        self.a, self.g = a, g
        self.lo, self.hi, self.anchor = lo, hi, anchor
        self.err = 0.0
        self._where = f"interval k={k}"
        self._const_a = a.value if isinstance(a, Const) else None
        self._zero_g: Optional[bool] = None
        self._sides: Dict[bool, Tuple[List[float], List[_Panel]]] = {}

    # -- construction ----------------------------------------------------------

    def g_vanishes(self) -> bool:
        """g is 0 at every node of the interval, as g = a + b is for b = -a;
        then y is exactly 0 and long panels need no splitting."""
        if self._zero_g is None:
            x = _cheb_basis(_SIZES[0])[0]
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = self.g.ev_array(0.5 * (self.lo + self.hi) + 0.5 * (self.hi - self.lo) * x)
            self._zero_g = not np.any(nodes)
        return self._zero_g

    def _chain(self, end: float) -> List[_Panel]:
        """Panels from the anchor to ``end``, in chain order."""
        a_arr, g_arr, const_a = self.a.ev_array, self.g.ev_array, self._const_a
        panels: List[_Panel] = []
        A0 = y0 = 0.0
        pending = [(self.anchor, end, 0)]

        def split(start, stop, pieces, depth):
            if len(panels) + len(pending) + pieces > MAX_PANELS:
                raise QuadratureError(
                    f"series on {self._where} needs more than {MAX_PANELS} panels"
                )
            cuts = [start + (stop - start) * i / pieces for i in range(pieces)] + [stop]
            pending.extend((cuts[i], cuts[i + 1], depth) for i in reversed(range(pieces)))

        while pending:
            start, stop, depth = pending.pop()
            lo, hi = min(start, stop), max(start, stop)
            hw = 0.5 * (hi - lo)
            x_start = -1.0 if start < stop else 1.0
            A = C = None
            if const_a is None:
                a_fit = _fit(lambda t, v: a_arr(t), lo, hi, self._where)
                if a_fit is not None:
                    A = _antiderivative(a_fit[0], x_start, hw)
                    bound = float(np.abs(a_fit[0]).sum()) * (hi - lo)
            else:  # a (t - start) = a hw (x - x_start), exact in panel coordinates
                A = [-const_a * hw * x_start, const_a * hw]
                bound = abs(const_a) * (hi - lo)
            if A is not None and bound > 1.0 + 1e-9:
                if not self.g_vanishes():
                    split(start, stop, math.ceil(bound), depth)
                    continue
                C = [0.0]
            elif A is not None:
                f_fit = _fit(
                    lambda t, v: np.exp(-(v[:, : len(A)] @ A)) * g_arr(t), lo, hi, self._where
                )
                if f_fit is not None:
                    C = _antiderivative(f_fit[0], x_start, hw)
                    self.err += _EPS * hw * float(np.abs(f_fit[0]).sum())
            if C is None:  # a or the integrand is not resolved: bisect
                if depth >= MAX_BISECTIONS:
                    raise QuadratureError(
                        f"Chebyshev coefficients do not decay on {self._where} "
                        f"near [{lo!r}, {hi!r}] after {depth} bisections"
                    )
                split(start, stop, 2, depth + 1)
                continue
            p = _Panel(lo, hi, A0, y0, A, C)
            panels.append(p)
            A0, y0 = self._evaluate(p, stop)
            if not math.isfinite(y0) or (A0 > EXP_OVERFLOW and y0 != 0.0):
                raise OverflowError(
                    f"flow weight exp({A0:.3g}) overflows on {self._where} at t={stop!r}"
                )
            self.err += _EPS * abs(y0)
        return panels

    def _side(self, t: float) -> Tuple[List[float], List[_Panel]]:
        if self.lo < self.anchor < self.hi:
            forward = t > self.anchor
        else:
            forward = self.anchor < self.hi
        side = self._sides.get(forward)
        if side is None:
            panels = sorted(self._chain(self.hi if forward else self.lo), key=lambda p: p.lo)
            side = ([p.lo for p in panels], panels)
            self._sides[forward] = side
        return side

    def _panel(self, t: float) -> _Panel:
        slack = 1e-9 * (self.hi - self.lo)
        if not self.lo - slack <= t <= self.hi + slack:
            raise ValueError(f"t={t!r} outside {self._where} [{self.lo!r}, {self.hi!r}]")
        los, panels = self._side(t)
        i = min(max(bisect_right(los, t) - 1, 0), len(panels) - 1)
        return panels[i]

    # -- evaluation ------------------------------------------------------------

    def _evaluate(self, p: _Panel, t: float) -> Tuple[float, float]:
        """(A(t), y(t)) on panel ``p``."""
        x = (t - p.mid) / p.hw
        local = _clenshaw(p.A_list, x)
        return p.A0 + local, math.exp(local) * (p.y0 + _clenshaw(p.C_list, x))

    def _flow(self, A: float) -> float:
        if A > EXP_OVERFLOW:
            raise OverflowError(f"flow weight exp({A:.3g}) overflows on {self._where}")
        return math.exp(A)

    def terms(self, t: float) -> Tuple[float, float]:
        """(A(t), y(t)) from one panel lookup."""
        return (0.0, 0.0) if t == self.anchor else self._evaluate(self._panel(t), t)

    def combination(self, t: float, flow_coef: float, forced_coef: float, const: float) -> float:
        """forced_coef y(t) + const + flow_coef exp(A(t)); the flow is not
        evaluated when flow_coef is 0."""
        A, y = self.terms(t)
        u = forced_coef * y + const
        if flow_coef:
            u += flow_coef * self._flow(A)
        return u

    def zeros(
        self, lo: float, hi: float, flow_coef: float, forced_coef: float, const: float
    ) -> List[float]:
        """Sorted roots in [lo, hi) of u = flow_coef exp(A) + forced_coef y + const.

        A panel whose fit keeps one sign holds none.  A colleague root t is
        kept where u changes sign across t +- 1e-8 hw, and then moved by one
        secant step through those two values, within that bracket; or where
        u touches 0: |u(t)| within the rounding of the terms that sum to it."""
        if hi <= lo:
            return []
        if not const and (not forced_coef or self.g_vanishes()):
            return []  # u = flow_coef exp(A) has the sign of flow_coef throughout

        def u(p: _Panel, t: float) -> Tuple[float, float]:
            """u(t) and the sum of the magnitudes of its terms."""
            A, y = self._evaluate(p, t)
            y, flow = forced_coef * y, (flow_coef * self._flow(A) if flow_coef else 0.0)
            return y + flow + const, abs(y) + abs(flow) + abs(const)

        def u_nodes(p: _Panel, t: np.ndarray, v: np.ndarray) -> np.ndarray:
            nonlocal scale  # the largest sum of the magnitudes of the terms of a sample
            local = v[:, : len(p.A)] @ p.A
            out = np.full_like(t, const)
            scale = abs(const)
            if forced_coef:
                grow = np.exp(local)
                out += forced_coef * grow * (p.y0 + v[:, : len(p.C)] @ p.C)
                scale += abs(forced_coef) * (abs(p.y0) + np.abs(p.C).sum()) * grow.max()
            if flow_coef:
                flow = np.exp(p.A0 + local)
                out += flow_coef * flow
                scale += abs(flow_coef) * flow.max()
            return out

        panels: List[_Panel] = []
        if lo < self.anchor:
            panels += self._side(lo)[1]
        if hi > self.anchor:
            panels += self._side(hi)[1]
        roots: List[float] = []
        for p in panels:
            if p.hi <= lo or p.lo >= hi:
                continue
            scale = 0.0
            fit = _fit(lambda t, v: u_nodes(p, t, v), p.lo, p.hi, self._where)
            if fit is None:
                raise QuadratureError(
                    f"zero search on {self._where}: {_SIZES[-1]} Chebyshev points "
                    f"do not resolve [{p.lo!r}, {p.hi!r}]"
                )
            coefs, dropped = fit
            # |u - sum c_k T_k| <= the dropped tail, standing for the aliased one
            # too, plus per kept coefficient twice the rounding of a value of u (eps
            # of its terms' magnitudes per term of the products with A and C, as
            # much again for exp, sums and products) and 2 n eps scale, n <= 129,
            # from the coefficient product
            rounding = 2 * (len(p.A) + len(p.C)) * _EPS
            err = 2 * len(coefs) * (rounding + _SIZES[-1] * _EPS) * scale
            if _keeps_sign(coefs, float(np.abs(dropped).sum()) + err):
                continue
            for r in _colleague_roots(coefs):
                if abs(r.imag) > _ROOT_IMAG_TOL or abs(r.real) > 1.0 + _ROOT_IMAG_TOL:
                    continue
                t = min(max(p.mid + p.hw * float(r.real), p.lo), p.hi)
                d, (value, size) = _ROOT_IMAG_TOL * p.hw, u(p, t)
                below, above = u(p, t - d)[0], u(p, t + d)[0]
                if np.sign(below) != np.sign(above):  # one secant step, kept in the bracket
                    t += min(max(2.0 * d * value / (below - above), -d), d)
                elif abs(value) > rounding * size:
                    continue  # neither a crossing nor a touch
                if lo <= t < hi:
                    roots.append(t)
        roots.sort()
        merged: List[float] = []
        for t in roots:
            if not merged or t - merged[-1] > _ROOT_MERGE_TOL * max(1.0, abs(t)):
                merged.append(t)
        return merged
