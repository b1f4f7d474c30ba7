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

The fits are made in row batches: :func:`build_sides` fits the pieces of
many sides level by level, one sample matrix, one values-to-coefficients
product and one chop per batch; each piece built or failed is a leaf of
its side.  One array pass sums every panel's local series at its far end,
and one walk per side then takes the leaves in chain order and chains
those sums, as floats, into the values its panels start from.  Every row
is computed alike whatever the other rows of its batch, so a side comes
out bitwise the same built alone or with others.

It returns them in a :class:`PanelTable`, the one holder and reader of
built sides, which no side is added to later: it keeps each side's panels
and error estimate, or the failure its build met, lays the panels out flat
and reads (A, y) of many points in one array pass, each point on the last
panel of its side that starts at or before it, so that a point at an
interval's right knot is read on that interval.  A Clenshaw sum over an
array performs the same IEEE operations as over one float, so a point
comes out bitwise the same whatever else is read with it.

Zeros are the real roots, from numpy's ``chebroots``, of the interpolant of
the wanted combination on each panel: the eigenvalues of its colleague
matrix (Good, 1961).  :func:`zero_search` reads the panels of many intervals
from a :class:`PanelTable` and fits the combination on them in one batch.
A root where the combination changes sign gets one secant step through the
two values that show the change.  A double root is ill-conditioned and may
come out as a pair or not at all.

Before any fit, :func:`_one_signed` skips a panel where a bound from its
series' coefficients alone keeps the combination u = exp(a) q + const away
from 0; there a is the panel's local exponent and q = forced (y0 + C) + flow
exp(A0).  Each series lies within c_0 +- sum_{k>=1} |c_k| and changes by at
most sum_k k^2 |c_k| per unit of the panel variable (|T_k| <= 1 and
|T_k'| <= k^2, a little more at the reads just past the panel's ends), which
bounds |u'|; on each of 16 sub-panels u is then within its value at the
centre plus the half-width times that bound.  Where, with the rounding of
both reads, |u| stays above the threshold under which a root is kept as a
touch, every value the search could read has one sign and is no touch, so it
would keep no root there; the other panels take the path they take when none
is skipped, and every root comes out bitwise the same.
"""

from __future__ import annotations

import copy
import functools
import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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


@functools.lru_cache(maxsize=None)
def _plateau_tests(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The indices j >= 2 that standardChop tests for a plateau in n
    coefficients, and j2 = int(1.25 j + 5.5) for each, while j2 <= n."""
    j = np.arange(2, n + 1)
    j2 = (1.25 * j + 5.5).astype(int)
    return j[j2 <= n], j2[j2 <= n]


def _chop(coefs: np.ndarray, tol: float = _EPS) -> np.ndarray:
    """Row i: the number of leading coefficients of ``coefs[i]`` to keep
    (Aurentz & Trefethen's standardChop); n where the row's tail has not
    levelled off.  Each row is chopped alike whatever the other rows."""
    rows, n = coefs.shape
    keep = np.ones(rows, dtype=int)
    env = np.maximum.accumulate(np.abs(coefs)[:, ::-1], axis=1)[:, ::-1]
    live = np.flatnonzero(env[:, 0] != 0.0)
    env = env[live] / env[live, :1]
    # The plateau is the first j whose envelope barely falls by index
    # j2 = 1.25 j + 5, tested from the first j with env[j - 1] < tol^(2/3)
    # on; the envelope does not increase.
    j, j2 = _plateau_tests(n)
    first = np.argmax(env < tol ** (2.0 / 3.0), axis=1) + 1
    e1, e2 = env[:, j - 1], env[:, j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / math.log(tol)))
    flat &= j >= first[:, None]
    found = flat.any(axis=1)
    at = np.argmax(flat, axis=1)
    j, j2 = j[at], j2[at]
    r = np.arange(len(live))
    plateau = j - 1
    at_zero = env[r, plateau - 1] == 0.0
    # the coefficients past the plateau: cut where log10 of the envelope plus
    # a slope from 0 to -log10(tol)/3 over [0, j2) is least, with the
    # envelope floored at tol^(7/6) from its first index below that on
    floor = tol ** (7.0 / 6.0)
    j3 = np.count_nonzero(env >= floor, axis=1)
    short = j3 < j2
    j2 = np.where(short, j3 + 1, j2)
    env[r[short], j2[short] - 1] = floor
    slope = -math.log10(tol) / (3.0 * (j2 - 1))
    i = np.arange(n)
    with np.errstate(divide="ignore"):
        cc = np.log10(env) + i * slope[:, None]
    cc[i >= j2[:, None]] = np.inf
    cut = np.maximum(np.argmin(cc, axis=1), 1)
    keep[live] = np.where(found, np.where(at_zero, plateau, cut), n)
    return keep


_Fit = Tuple[np.ndarray, np.ndarray, np.ndarray]  # rows, their coefficients, kept lengths


def _fit(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> Tuple[List[_Fit], np.ndarray]:
    """Chebyshev fits of row i of ``f`` on [lo[i], hi[i]], each at the first
    sample size whose coefficients chopping cuts.

    ``f(rows, t, v)`` gets the rows to sample, their sample times, one row of
    times each, and the values of T_k there, and returns one row of values
    per row.  Returns the resolved rows grouped by sample size, as (rows,
    coefficients, kept lengths), and a mask of the rows whose samples were
    not finite; a row in neither is resolved by no size."""
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    rows = np.arange(len(lo))
    bad = np.zeros(len(lo), dtype=bool)
    fits: List[_Fit] = []
    for n in _SIZES:
        if not len(rows):
            break
        x, m, v = _cheb_basis(n)
        with np.errstate(over="ignore", invalid="ignore"):
            values = f(rows, mid[rows, None] + hw[rows, None] * x, v)
        finite = np.isfinite(values).all(axis=1)
        bad[rows[~finite]] = True
        rows, values = rows[finite], values[finite]
        coefs = _products(m, values) / n
        keep = _chop(coefs)
        done = keep < n
        fits.append((rows[done], coefs[done], keep[done]))
        rows = rows[~done]
    return fits, bad


def _kept(coefs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``coefs`` with each row's entries from its kept length on set to 0."""
    return np.where(np.arange(coefs.shape[1]) < keep[:, None], coefs, 0.0)


def _antiderivative(c: np.ndarray, keep: np.ndarray, x_start: np.ndarray, scale: np.ndarray):
    """Row i: the coefficients of scale[i] * int_{x_start[i]}^x of the series
    ``c[i]``, zero from its kept length on, using int T_0 = T_1 and
    int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)); the series has keep[i] + 1
    terms, and each row is padded with zeros to the width of ``c``."""
    rows, n = c.shape
    c = np.concatenate([c, np.zeros((rows, 2))], axis=1)
    out = np.zeros((rows, n))
    out[:, 1] = (2.0 * c[:, 0] - c[:, 2]) * 0.5 * scale
    out[:, 2:] = (c[:, 1 : n - 1] - c[:, 3 : n + 1]) * scale[:, None] / (2 * np.arange(2, n))
    # the value at x_start, summed in index order; x_start^k is exactly +-1
    signs = np.where(x_start[:, None] < 0.0, (-1.0) ** np.arange(n), 1.0)
    out[:, 0] = -np.cumsum(out * signs, axis=1)[np.arange(rows), keep]
    return out


def _products(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row i: m @ rows[i].  A stack of matrix-vector products makes one
    BLAS gemv per row, so each row comes out as it would alone, whatever
    the row count; a product of two matrices would not."""
    return np.matmul(m, rows[:, :, None])[:, :, 0]


def _at_nodes(series: Sequence[np.ndarray], v: np.ndarray) -> np.ndarray:
    """Row i: sum_k series[i][k] T_k at the points where ``v`` holds T_k,
    from one :func:`_products` per series length."""
    out = np.empty((len(series), v.shape[0]))
    by_length: Dict[int, List[int]] = {}
    for i, c in enumerate(series):
        by_length.setdefault(len(c), []).append(i)
    for length, rows in by_length.items():
        out[rows] = _products(v[:, :length], np.array([series[i] for i in rows]))
    return out


def _colleague_roots(c: np.ndarray) -> np.ndarray:
    """Roots of sum c_k T_k, complex ones included: the eigenvalues of its
    colleague matrix (Good, 1961), none below degree 1."""
    return np.polynomial.chebyshev.chebroots(c)


def _clenshaw(c, x):
    """sum_k c[k] T_k(x), also for an array x and rows c[k] of zero-padded columns."""
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
    """One stretch [start, stop] of a side, oriented away from the anchor, at ``key``,
    its path of part indices in the chain of request ``req`` of :func:`build_sides`.
    Fitted as a piece, it holds the Chebyshev coefficients ``A`` and ``C`` of the local
    antiderivatives int_c^t a and int_c^t exp(-A) g from its end c nearer the anchor,
    the integrand fit's error term ``err`` and, where int |a| exceeds 1, a bound ``top``
    of its local exponent.  ``end`` holds the local exponent at ``stop``, its exp and
    the value of C there; :func:`_walk` then enters the panel as a chain link with
    A(c) = A0 and y(c) = y0."""

    __slots__ = ("req", "key", "start", "stop", "depth", "lo", "hi", "mid", "hw", "A0", "y0",
                 "A", "C", "err", "top", "end")

    def __init__(self, req: int, key: Tuple[int, ...], start: float, stop: float, depth: int):
        self.req, self.key, self.start, self.stop, self.depth = req, key, start, stop, depth
        self.lo, self.hi = lo, hi = min(start, stop), max(start, stop)
        # a side as short as one subnormal step still maps onto [-1, 1]
        self.mid, self.hw = 0.5 * (lo + hi), 0.5 * (hi - lo) or hi - lo
        self.err, self.top = 0.0, -math.inf


def _exp(v):
    """exp of a float or of an array by ``math.exp``, which numpy's exp does not match."""
    return math.exp(v) if isinstance(v, float) else np.array(list(map(math.exp, v.tolist())))


def _panel_terms(t, mid, hw, A0, y0, A, C):
    """(A(t), y(t)) on the panels about mid, hw wide each way, entered with A0 and y0,
    with the local series A and C given as coefficient columns, one per point."""
    x = (t - mid) / hw
    local = _clenshaw(A, x)
    return A0 + local, _exp(local) * (y0 + _clenshaw(C, x))


class PanelTable:
    """The sides :func:`build_sides` built on many intervals, in interval order, laid
    out flat: panels, their ``lo`` and ``hi`` edges (sorted across the intervals),
    ``mid``, ``hw``, ``A0``, ``y0`` and zero-padded rows of ``A`` and ``C`` with their
    lengths, and the first and last row of each side.

    A read gives the flow exponent A(t) = int_anchor^t a and y(t) above, both exactly 0
    at the anchor, and :func:`zero_search` finds the roots of a fixed combination of y,
    the flow exp(A) and a constant.  Each built side keeps its error estimate, or the
    failure its build met: :class:`QuadratureError` when the coefficients do not level
    off after ``MAX_BISECTIONS`` halvings or the chain needs more than ``MAX_PANELS``
    panels, ``OverflowError`` when exp(A) passes exp(709) where it multiplies a nonzero
    value or inside a panel kept whole; both name the interval, and :meth:`require`
    raises the failure each time.  ``g_zero[i]``: g is 0 at every node of interval i,
    as g = a + b is for b = -a; then y is exactly 0 and long panels need no splitting.
    """

    def __init__(self, spans, names, g_zero, sides):
        """``sides`` holds (panels sorted by ``lo``, state) of the backward, then the
        forward side of each interval; the state is None where the side was not
        built, its failure, or its error estimate."""
        self._spans, self._names, self.g_zero = spans, names, g_zero
        lo, hi, self._anchor = np.array(spans, dtype=float).reshape(-1, 3).T
        # the side of a point: past the anchor, or the one side of an anchor on an end
        self._split = (lo < self._anchor) & (self._anchor < hi)
        self._onward = self._anchor < hi
        self._sides = [state for _, state in sides]
        self._panels = panels = [p for side, _ in sides for p in side]
        count = np.array([len(side) for side, _ in sides], dtype=int)
        self._first = np.cumsum(count) - count
        self._last = self._first + count - 1
        self._lo, self._hi, self._mid, self._hw, self._A0, self._y0 = np.array(
            [(p.lo, p.hi, p.mid, p.hw, p.A0, p.y0) for p in panels], dtype=float
        ).reshape(-1, 6).T
        self._A, self._nA = _padded([p.A for p in panels])
        self._C, self._nC = _padded([p.C for p in panels])

    def err(self, i: int) -> float:
        """A rounding-level error estimate of y, summed over the built sides of interval i."""
        return sum(e for e in self._sides[2 * i : 2 * i + 2] if isinstance(e, float))

    def require(self, i: int, t: float) -> None:
        """Raise the failure of the side of interval i that holds t; the anchor needs no
        side.  Refuses a t outside the interval, or on a side that was not built."""
        lo, hi, anchor = self._spans[i]
        slack = 1e-9 * (hi - lo)
        if not lo - slack <= t <= hi + slack:
            raise ValueError(f"t={t!r} outside {self._names[i]} [{lo!r}, {hi!r}]")
        if t == anchor:
            return
        side = self._sides[2 * i + (t > anchor if lo < anchor < hi else anchor < hi)]
        if side is None:
            raise ValueError(f"t={t!r} lies on a side of {self._names[i]} that was not built")
        if isinstance(side, BaseException):  # a copy: a raise gives the raised object a traceback
            raise copy.copy(side)

    def overflow(self, i: int, A: float) -> OverflowError:
        """The refusal of a flow weight exp(A) past exp(709) on interval i."""
        return OverflowError(f"flow weight exp({A:.3g}) overflows on {self._names[i]}")

    def terms(self, t: np.ndarray, i: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(A, y) at each point t of interval i: (0, 0) at the anchor, NaN on a side
        that failed or was not built, and otherwise read on the panel of t's side
        that starts last at or before t, or on the side's first or last panel for a
        t just past its ends."""
        forward = np.where(self._split[i], t > self._anchor[i], self._onward[i])
        side = 2 * i + forward
        first, last = self._first[side], self._last[side]
        at_anchor = t == self._anchor[i]
        A = np.where(at_anchor, 0.0, np.nan)
        y = A.copy()
        live = np.flatnonzero(~at_anchor & (first <= last))
        rows = np.searchsorted(self._lo, t[live], side="right") - 1
        A[live], y[live] = self.read(t[live], np.clip(rows, first[live], last[live]))
        return A, y

    def read(self, t: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(A, y) at each point t on the panel of its row, from one Clenshaw pass per
        series over all points, bitwise as each point summed alone."""
        nA, nC = self._nA[rows].max(initial=1), self._nC[rows].max(initial=1)
        return _panel_terms(
            t, self._mid[rows], self._hw[rows], self._A0[rows], self._y0[rows],
            self._A[rows, :nA].T, self._C[rows, :nC].T,
        )


def _padded(rows: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``rows`` as one matrix, each padded with zeros to the longest, and their lengths."""
    lengths = np.array([len(r) for r in rows], dtype=int)
    out = np.zeros((len(rows), lengths.max(initial=1)))
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate([np.zeros(0), *rows])
    return out, lengths


# -- building sides in row batches -------------------------------------------------

_Leaf = Tuple[Tuple[int, ...], Union[_Panel, BaseException]]  # a piece's key, and it or its failure


def build_sides(
    a: ScalarExpr,
    g: ScalarExpr,
    spans: Sequence[Tuple[float, float, float]],
    names: Sequence[str],
    requests: Sequence[Tuple[int, bool]],
) -> PanelTable:
    """The :class:`PanelTable` of the intervals ``spans``, each given as (lo, hi,
    anchor) and named in messages by ``names``, with the side of each (interval
    index, forward) pair of ``requests`` built, forward meaning from the anchor
    to ``hi``.

    All pieces of one level are fitted as one row batch: the fits of a, the
    split of a piece whose int |a| exceeds 1 into pieces where it does not,
    the fits of the integrand exp(-A) g, each at 33, then 65, then 129
    points, and a bisection of a piece that no size resolves.  A piece that
    is built or fails becomes a leaf of its side; then one walk per side
    takes its leaves in chain order and sets each panel's A0 and y0.  A side
    that fails stores its failure, the one the walk meets first, and raises
    it on use.  Whether g vanishes on each interval comes from one sample
    matrix over all spans.
    """
    lo, hi, _ = np.array(spans, dtype=float).reshape(-1, 3).T
    x = _cheb_basis(_SIZES[0])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = g.ev_array(0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * x)
    g_zero = (~np.any(nodes, axis=1)).tolist()
    where = [names[i] for i, _ in requests]
    const_a = a.value if isinstance(a, Const) else None
    a_arr, g_arr = a.ev_array, g.ev_array
    counts = [1] * len(requests)  # pieces of each side that are panels or still to be built
    leaves: List[List[_Leaf]] = [[] for _ in requests]
    level = [
        _Panel(r, (), spans[i][2], spans[i][1] if forward else spans[i][0], 0)
        for r, (i, forward) in enumerate(requests)
    ]
    following: List[_Panel] = []  # the pieces of the next level

    def leaf(piece: _Panel, value: Union[_Panel, BaseException]) -> None:
        leaves[piece.req].append((piece.key, value))

    def split(piece: _Panel, pieces: int, depth: int) -> None:
        counts[piece.req] += pieces - 1
        if counts[piece.req] > MAX_PANELS:  # the walk raises the cap here at the latest
            return leaf(piece, _cap_error(where[piece.req]))
        start, stop = piece.start, piece.stop
        cuts = [start + (stop - start) * i / pieces for i in range(pieces)] + [stop]
        following.extend(
            _Panel(piece.req, piece.key + (i,), cuts[i], cuts[i + 1], depth) for i in range(pieces)
        )

    def bisect(piece: _Panel) -> None:
        if piece.depth >= MAX_BISECTIONS:
            leaf(piece, QuadratureError(
                f"Chebyshev coefficients do not decay on {where[piece.req]} "
                f"near [{piece.lo!r}, {piece.hi!r}] after {piece.depth} bisections"
            ))
        else:
            split(piece, 2, piece.depth + 1)

    def non_finite(piece: _Panel) -> None:
        leaf(piece, OverflowError(
            f"non-finite values on {where[piece.req]} near [{piece.lo!r}, {piece.hi!r}]"
        ))

    while level:
        lo = np.array([p.lo for p in level])
        hi = np.array([p.hi for p in level])
        hw = 0.5 * (hi - lo)
        x_start = np.array([-1.0 if p.start < p.stop else 1.0 for p in level])
        bound = np.full(len(level), np.nan)  # int |a| over each piece, NaN while unknown
        if const_a is None:
            fits, bad = _fit(lambda rows, t, v: a_arr(t), lo, hi)
            for rows, coefs, keep in fits:
                kept = _kept(coefs, keep)
                A = _antiderivative(kept, keep, x_start[rows], hw[rows])
                bound[rows] = np.abs(kept).sum(axis=1) * (hi[rows] - lo[rows])
                for i, row, length in zip(rows.tolist(), A, (keep + 1).tolist()):
                    level[i].A = row[:length]
        else:  # a (t - start) = a hw (x - x_start), exact in panel coordinates
            bad = np.zeros(len(level), dtype=bool)
            bound = abs(const_a) * (hi - lo)
            for p, x0, h in zip(level, x_start.tolist(), hw.tolist()):
                p.A = np.array([-const_a * h * x0, const_a * h])
        integrand: List[int] = []
        for i, (p, b) in enumerate(zip(level, bound.tolist())):
            if counts[p.req] > MAX_PANELS:  # a side past the cap builds no more
                leaf(p, _cap_error(where[p.req]))
            elif bad[i]:
                non_finite(p)
            elif math.isnan(b):  # a is not resolved: bisect
                bisect(p)
            elif b > 1.0 + 1e-9:
                if not g_zero[requests[p.req][0]]:
                    split(p, math.ceil(b), p.depth)
                else:  # kept whole: y is 0, but exp of the local exponent must not overflow
                    p.C, p.top = np.zeros(1), p.A[0] + float(np.abs(p.A[1:]).sum())
                    leaf(p, p)
            else:
                integrand.append(i)
        if integrand:
            pieces = [level[i] for i in integrand]
            As = [p.A for p in pieces]

            def exp_weighted_g(rows, t, v):
                return np.exp(-_at_nodes([As[i] for i in rows.tolist()], v)) * g_arr(t)

            rows_lo, rows_hi = lo[integrand], hi[integrand]
            fits, bad = _fit(exp_weighted_g, rows_lo, rows_hi)
            resolved = np.zeros(len(pieces), dtype=bool)
            for rows, coefs, keep in fits:
                kept = _kept(coefs, keep)
                h = 0.5 * (rows_hi[rows] - rows_lo[rows])
                C = _antiderivative(kept, keep, x_start[integrand][rows], h)
                err = _EPS * h * np.abs(kept).sum(axis=1)
                for i, row, length, e in zip(rows.tolist(), C, (keep + 1).tolist(), err.tolist()):
                    pieces[i].C, pieces[i].err = row[:length], e
                    leaf(pieces[i], pieces[i])
                resolved[rows] = True
            for p, failed, done in zip(pieces, bad.tolist(), resolved.tolist()):
                if failed:
                    non_finite(p)
                elif not done:  # the integrand is not resolved: bisect
                    bisect(p)
        level, following = following, []
    # the local end terms of every panel in one pass; exp only where it stays finite
    panels = [p for side in leaves for _, p in side if isinstance(p, _Panel)]
    stop, mid, hw, top = np.array(
        [(p.stop, p.mid, p.hw, p.top) for p in panels], dtype=float
    ).reshape(-1, 4).T
    x = (stop - mid) / hw
    local = _clenshaw(_padded([p.A for p in panels])[0].T, x)
    C = _clenshaw(_padded([p.C for p in panels])[0].T, x)
    grow = _exp(np.where(top > EXP_OVERFLOW, 0.0, local))
    for p, end in zip(panels, zip(local.tolist(), grow.tolist(), C.tolist())):
        p.end = end
    sides: List[Tuple[List[_Panel], object]] = [([], None)] * (2 * len(spans))
    for (i, forward), side, name in zip(requests, leaves, where):
        sides[2 * i + forward] = _walk(name, side)
    return PanelTable(spans, names, g_zero, sides)


def _cap_error(where: str) -> QuadratureError:
    return QuadratureError(f"series on {where} needs more than {MAX_PANELS} panels")


def _walk(where: str, leaves: List[_Leaf]) -> Tuple[List[_Panel], object]:
    """The panels of a side on interval ``where``, from its leaves taken in chain
    order (by key), with their start values set and sorted by ``lo``, and the
    side's error estimate; or no panels and the failure met first in chain order,
    a leaf's own or the flow's overflow, stored without a traceback."""
    panels: List[_Panel] = []
    A0 = y0 = err = 0.0
    try:
        for _, p in sorted(leaves, key=lambda leaf: leaf[0]):
            if isinstance(p, BaseException):
                raise p
            err += p.err
            p.A0, p.y0 = A0, y0
            panels.append(p)
            if p.top > EXP_OVERFLOW:  # exp(A - A0) <= exp(top) overflows in the panel,
                A0, y0 = A0 + p.top, math.nan  # and y = exp(A - A0) * 0 is undefined
            else:
                local, grow, C = p.end
                A0, y0 = A0 + local, grow * (y0 + C)
            if not math.isfinite(y0) or (A0 > EXP_OVERFLOW and y0 != 0.0):
                raise OverflowError(
                    f"flow weight exp({A0:.3g}) overflows on {where} at t={p.stop!r}"
                )
            err += _EPS * abs(y0)
    except (QuadratureError, OverflowError) as exc:
        return [], exc.with_traceback(None)
    panels.sort(key=lambda p: p.lo)
    return panels, err


# -- zeros ---------------------------------------------------------------------------

_Job = Tuple[int, float, float, float, float, float]

# |T_k(x)| and |T_k'(x)| / k^2 for k < 130 where the search reads u: |x| <= 1 + 1e-8
_BRACKET_T = math.cosh(_SIZES[-1] * math.acosh(1.0 + 2.0 * _ROOT_IMAG_TOL))
_SUBS, _K = 16, np.arange(_SIZES[-1] + 1.0)  # sub-panels of the screen, and k
_T_MID = np.cos(np.outer(_K, np.arccos(np.arange(0.5, _SUBS) / _SUBS * 2 - 1)))  # at their centres


def _one_signed(table: PanelTable, rows: np.ndarray, flow, forced, const) -> np.ndarray:
    """Mask of the ``rows`` of ``table`` where u = exp(a) q + const, with a the local
    exponent and q = forced (y0 + C) + flow exp(A0), holds no root the search would
    keep, by the bound of the module docstring on each of ``_SUBS`` sub-panels."""
    A, C, A0, y0 = table._A[rows], table._C[rows], table._A0[rows], table._y0[rows]
    A_abs, C_abs, forced_abs = np.abs(A), np.abs(C), np.abs(forced)
    a_top = A[:, 0] + _BRACKET_T * A_abs[:, 1:].sum(axis=1)
    # the rounding of a read of a, and of y0 + C: 1e-11 > 130^2 eps
    err_a = 1e-11 * (np.abs(A0) + A_abs.sum(axis=1))
    err_C = 1e-11 * (np.abs(y0) + C_abs.sum(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        flow_w = np.where(flow != 0.0, flow * np.exp(A0), 0.0)
        q = forced[:, None] * (y0[:, None] + C @ _T_MID[: C.shape[1]]) + flow_w[:, None]
        u = np.exp(A @ _T_MID[: A.shape[1]]) * q + const[:, None]  # at the sub-panel centres
        grow = np.exp(a_top + err_a)
        q_max = np.abs(forced * (y0 + C[:, 0]) + flow_w)
        q_max += forced_abs * _BRACKET_T * C_abs[:, 1:].sum(axis=1)
        slope = q_max * (A_abs @ _K[: A.shape[1]] ** 2)  # |u'| <= _BRACKET_T grow slope
        slope += forced_abs * (C_abs @ _K[: C.shape[1]] ** 2)
        terms = grow * (q_max + 2 * np.abs(flow_w))  # of |forced y| + |flow exp(A)|
        size = np.abs(const) + terms
        radius = (1.0 / _SUBS + 1e-7) * _BRACKET_T * grow * slope + 8 * _EPS * size
        radius += 2 * (2 * err_a * terms + grow * forced_abs * err_C)
        margin = 4 * (table._nA[rows] + table._nC[rows]) * _EPS * size  # twice rounding * size
        low, high = (u - radius[:, None]).min(axis=1), (u + radius[:, None]).max(axis=1)
        return ((low > margin) | (high < -margin)) & ((flow == 0.0) | (A0 + a_top <= EXP_OVERFLOW))


def zero_search(table: PanelTable, jobs: Iterable[_Job]) -> Iterator[List[float]]:
    """For each job (i, lo, hi, flow_coef, forced_coef, const), in order, the
    sorted roots in [lo, hi) of u = flow_coef exp(A) + forced_coef y + const
    on interval i of ``table``; a job with hi <= lo has none and needs no side.

    The panels that overlap [lo, hi) are one row range of the table.  A panel
    where a bound of u from its coefficients clears 0 (:func:`_one_signed`)
    is not fitted; u is fitted on the others in one row batch, and a panel
    whose fit keeps one sign holds no root either.  A colleague root t is
    kept where u changes sign across t +- 1e-8 hw, and then moved by one
    secant step through those two values, within that bracket; or where u
    touches 0: |u(t)| within the rounding of the terms that sum to it.  u at
    every root and bracket end of all jobs is one read of the table.
    ``jobs`` is read up to its first failure, which is raised after the roots
    of the jobs before it, as a failure of a panel's fit or a flow past
    exp(709) is raised in its job's turn.
    """
    searched: List[_Job] = []
    failure: Optional[BaseException] = None
    try:
        for job in jobs:
            i, lo, hi, flow_coef, forced_coef, const = job
            if hi <= lo or (not const and (not forced_coef or table.g_zero[i])):
                # nothing to search, or u = flow_coef exp(A) with that sign throughout
                job = (i, math.inf, math.inf, 0.0, 0.0, 0.0)  # spans no panel
            else:
                for t in (lo, hi):
                    table.require(i, t)  # a side that failed raises here
            searched.append(job)
    except Exception as exc:  # raised in its turn, below
        failure = exc
    spans = np.array([job[1:] for job in searched], dtype=float).reshape(-1, 5)
    first = np.searchsorted(table._hi, spans[:, 0], side="right")
    count = np.searchsorted(table._lo, spans[:, 1], side="left") - first
    rows = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    of_job = np.repeat(np.arange(len(searched)), count)
    live = ~_one_signed(table, rows, *spans[of_job, 2:].T)
    rows, of_job = rows[live], of_job[live]
    coefs_of = spans[of_job, 2:]  # flow_coef, forced_coef and const of the job of each row
    panels = [table._panels[r] for r in rows.tolist()]
    c_sum = np.array([np.abs(p.C).sum() for p in panels])
    scale = np.zeros(len(rows))  # the largest sum of the magnitudes of a sample's terms

    def u_nodes(r: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        p, (flow_r, forced_r, const_r) = rows[r], coefs_of[r].T
        local = _at_nodes([panels[i].A for i in r.tolist()], v)
        out = np.repeat(const_r[:, None], t.shape[1], axis=1)
        size = np.abs(const_r)
        f = np.flatnonzero(forced_r)
        grow = np.exp(local[f])
        C = _at_nodes([panels[i].C for i in r[f].tolist()], v)
        out[f] += forced_r[f, None] * grow * (table._y0[p[f], None] + C)
        terms = np.abs(table._y0[p[f]]) + c_sum[r[f]]
        size[f] += np.abs(forced_r[f]) * terms * grow.max(axis=1)
        w = np.flatnonzero(flow_r)
        flow_values = np.exp(table._A0[p[w], None] + local[w])
        out[w] += flow_r[w, None] * flow_values
        size[w] += np.abs(flow_r[w]) * flow_values.max(axis=1)
        scale[r] = size
        return out

    fits, bad = _fit(u_nodes, table._lo[rows], table._hi[rows])
    found: Dict[int, Tuple[np.ndarray, np.ndarray]] = {  # kept and dropped coefficients
        i: (c[:n], c[n:]) for at, cs, ns in fits for i, c, n in zip(at.tolist(), cs, ns.tolist())
    }
    ends = np.searchsorted(of_job, np.arange(len(searched) + 1)).tolist()
    # the colleague roots of each job's panels, up to the first panel whose fit failed
    picks = []  # job, panel, root, bracket half-width, rounding of a value of u
    stop = len(searched)  # the job whose turn raises failure
    for j, (job, first, last) in enumerate(zip(searched, ends, ends[1:])):
        for i in range(first, last):
            p = panels[i]
            if bad[i] or i not in found:
                stop, failure = j, OverflowError(
                    f"non-finite values on {table._names[job[0]]} near [{p.lo!r}, {p.hi!r}]"
                ) if bad[i] else QuadratureError(
                    f"zero search on {table._names[job[0]]}: {_SIZES[-1]} Chebyshev points "
                    f"do not resolve [{p.lo!r}, {p.hi!r}]"
                )
                break
            coefs, dropped = found[i]
            # |u - sum c_k T_k| <= the dropped tail, standing for the aliased one
            # too, plus per kept coefficient twice the rounding of a value of u (eps
            # of its terms' magnitudes per term of the products with A and C, as
            # much again for exp, sums and products) and 2 n eps scale, n <= 129,
            # from the coefficient product
            rounding = 2 * (len(p.A) + len(p.C)) * _EPS
            err = 2 * len(coefs) * (rounding + _SIZES[-1] * _EPS) * scale[i]
            if _keeps_sign(coefs, float(np.abs(dropped).sum()) + err):
                continue
            for r in _colleague_roots(coefs):
                if abs(r.imag) <= _ROOT_IMAG_TOL and abs(r.real) <= 1.0 + _ROOT_IMAG_TOL:
                    t = min(max(p.mid + p.hw * float(r.real), p.lo), p.hi)
                    picks.append((j, i, t, _ROOT_IMAG_TOL * p.hw, rounding))
        if stop == j:
            break
    # u, and the sum of the magnitudes of its terms, at every root and both ends of
    # its bracket, from one read of the table
    picked = np.array(picks, dtype=float).reshape(-1, 5)
    job_of, at = picked[:, 0].astype(int), picked[:, 1].astype(int)
    t, d = picked[:, 2], picked[:, 3]
    A, y = table.read(np.stack([t, t - d, t + d], axis=1).ravel(), np.repeat(rows[at], 3))
    flow_c, forced_c, const_c = np.repeat(spans[job_of, 2:], 3, axis=0).T
    y = forced_c * y
    over = (flow_c != 0.0) & (A > EXP_OVERFLOW)
    flow = np.zeros(len(A))
    w = np.flatnonzero((flow_c != 0.0) & ~over)
    flow[w] = flow_c[w] * _exp(A[w])
    u = (y + flow + const_c).tolist()
    size = (np.abs(y) + np.abs(flow) + np.abs(const_c)).tolist()
    bounds = np.searchsorted(job_of, np.arange(len(searched) + 1)).tolist()
    overflows = np.flatnonzero(over)[:1].tolist()  # the first read whose flow overflows
    for j, (job, first, last) in enumerate(zip(searched, bounds, bounds[1:])):
        i, lo, hi = job[:3]
        if overflows and overflows[0] < 3 * last:
            raise table.overflow(i, float(A[overflows[0]]))
        if j == stop:
            raise failure
        roots: List[float] = []
        for c, (_, _, t, d, rounding) in enumerate(picks[first:last], first):
            value, below, above = u[3 * c : 3 * c + 3]
            if np.sign(below) != np.sign(above):  # one secant step, kept in the bracket
                t += min(max(2.0 * d * value / (below - above), -d), d)
            elif abs(value) > rounding * size[3 * c]:
                continue  # neither a crossing nor a touch
            if lo <= t < hi:
                roots.append(t)
        roots.sort()
        merged: List[float] = []
        for t in roots:
            if not merged or t - merged[-1] > _ROOT_MERGE_TOL * max(1.0, abs(t)):
                merged.append(t)
        yield merged
    if failure is not None:
        raise failure
