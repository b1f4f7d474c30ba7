"""Oscillation classifiers, threshold criteria, and the a-priori envelope.

A discrete solution oscillates when z(t_n) z(t_{n+1}) <= 0 keeps happening
beyond every bound; a piecewise continuous one when it is neither
eventually positive nor eventually negative.  The asymptotic notions are
finitized over a window of knots: "recurring" means at least one sign
change lands in the final quarter of the window, which makes every
classifier deterministic and testable.

The threshold criteria compare windowed extrema of the advanced/delayed
kernel integrals i_plus, i_minus against +-1 (Aftabizadeh-Wiener style);
strict inequalities must clear the threshold by a configurable margin so
quadrature noise cannot flip a verdict, and boundary cases report as
inconclusive.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .kernel import KernelTable, phi
from .problem import Problem
from .quadrature import default_rel_tol, integrate
from .series import EXP_OVERFLOW
from .solver import Trajectory

MIN_WINDOW_KNOTS = 8
DEFAULT_BURN_IN = 8
DEFAULT_WIDTH = 64
DEFAULT_CRITERION_TOL = 1e-9
EXTREMA = ("sup_i_plus", "inf_i_plus", "sup_i_minus", "inf_i_minus")


@dataclass(frozen=True)
class OscillationVerdict:
    status: str  # oscillatory | nonoscillatory | undetermined
    window: Tuple[int, int]
    sign_changes: Tuple[int, ...]
    evidence: str


@dataclass(frozen=True)
class CriterionReport:
    """Windowed threshold test outcome with its full evidence.

    ``margin`` is the signed clearance of the binding inequality: positive
    means the branch fired by more than the tolerance, values within
    ``tol`` of zero are boundary cases.
    """

    criterion: str  # oscillation | nonoscillation
    branch: str  # positive-impulse | negative-impulse | mixed
    verdict: str  # oscillatory | nonoscillatory | inconclusive
    window: Tuple[int, int]
    sup_i_plus: float
    inf_i_plus: float
    sup_i_minus: float
    inf_i_minus: float
    margin: float
    tol: float
    reason: str = ""

    @property
    def extrema(self) -> Tuple[float, float, float, float]:
        """The fields named in ``EXTREMA``, in that order."""
        return tuple(getattr(self, name) for name in EXTREMA)

    def to_text(self) -> str:
        lines = [
            f"criterion: {self.criterion}",
            f"branch: {self.branch}",
            f"verdict: {self.verdict}",
            f"window: [{self.window[0]}, {self.window[1]})",
            *(f"{name}: {getattr(self, name):.17g}" for name in EXTREMA),
            "thresholds: +1 / -1",
            f"margin: {self.margin:.17g}",
            f"tol: {self.tol:.17g}",
        ]
        if self.reason:
            lines.append(f"reason: {self.reason}")
        return "\n".join(lines) + "\n"


def recurring_sign_changes(values: Sequence[float]) -> bool:
    """True when the tail (final quarter) still takes both signs."""
    if len(values) < 2:
        return False
    tail = list(values)[(3 * len(values)) // 4 :]  # nonempty: 3n // 4 < n
    return max(tail) >= 0.0 and min(tail) <= 0.0


def classify_discrete(
    traj: Trajectory, window: Optional[Tuple[int, int]] = None
) -> OscillationVerdict:
    """Classify the knot sequence z(t_n) over a half-open knot window."""
    pts = traj.skeleton()
    if not pts:
        raise ValueError("trajectory has no knots")
    if window is None:
        window = (pts[0].k, pts[-1].k + 1)
    k_lo, k_hi = window
    # the knot signs stay exact where the values under- or overflow
    seq = [(p.k, p.sign_right) for p in pts if k_lo <= p.k < k_hi]
    if len(seq) < MIN_WINDOW_KNOTS:
        raise ValueError(f"window too short ({len(seq)} < {MIN_WINDOW_KNOTS} knots)")
    changes = tuple(
        seq[i][0] for i in range(len(seq) - 1) if seq[i][1] * seq[i + 1][1] <= 0
    )
    if not changes:
        return OscillationVerdict(
            "nonoscillatory", window, (), "sign-definite skeleton over window"
        )
    tail_first_index = (3 * (len(seq) - 1)) // 4
    tail_start_knot = seq[tail_first_index][0]
    if any(n >= tail_start_knot for n in changes):
        return OscillationVerdict(
            "oscillatory",
            window,
            changes,
            f"sign changes recur through the window tail (last at n={changes[-1]})",
        )
    return OscillationVerdict(
        "undetermined",
        window,
        changes,
        f"sign changes stop at n={changes[-1]} before the window tail",
    )


def classify_continuous(
    traj: Trajectory, window: Optional[Tuple[int, int]] = None
) -> OscillationVerdict:
    """Refine a nonoscillatory skeleton using the in-interval kernel sign.

    With a sign-definite skeleton the solution is nonoscillatory exactly
    when j(t, zeta_k) keeps one strict sign across each interval; a root
    inside any interval produces in-interval zeros and hence oscillation.
    Uses the roots of :meth:`Trajectory.zeros_in_interval`; requires a
    kernel-backed trajectory.
    """
    if type(traj) is not Trajectory or traj.problem.grid.lagged:
        raise ValueError("continuous classification needs a kernel-backed trajectory")
    discrete = classify_discrete(traj, window)
    if discrete.status != "nonoscillatory":
        raise ValueError(
            f"discrete classification must be nonoscillatory, got {discrete.status}"
        )
    k_lo, k_hi = discrete.window
    for k in range(k_lo, k_hi - 1):
        if traj.zeros_in_interval(k):
            return OscillationVerdict(
                "oscillatory",
                discrete.window,
                (),
                f"kernel changes sign inside interval k={k}",
            )
    return OscillationVerdict(
        "nonoscillatory",
        discrete.window,
        (),
        "kernel has no root inside any interval",
    )


def wn_sequence(problem: Problem, k_range: Sequence[int]) -> List[float]:
    """Step ratios w_n = (1 + c_n) j(t_{n+1}, zeta_n) / j(t_n, zeta_n).

    The flow factor cancels out of the ratio, so for b = 0, c = 0 the
    sequence is identically 1.  Recurring sign changes of this sequence
    force oscillation; check with :func:`recurring_sign_changes`.
    """
    table = KernelTable(problem)
    grid = problem.grid
    out = []
    for n in k_range:
        w = table.w_step(n)
        decay = phi(problem.a, grid.knot(n + 1), grid.knot(n), table.rel_tol)
        out.append(problem.impulses.factor(n) * w * decay)
    return out


def _extremum(values, quantity: str) -> float:
    """The extremum that ``quantity``, one of ``EXTREMA``, names, of its side's rows."""
    return float(values.max() if quantity.startswith("sup") else values.min())


def _extrema(i_plus, i_minus) -> Tuple[float, float, float, float]:
    """The four extrema of ``EXTREMA`` from a window's rows."""
    return tuple(map(_extremum, (i_plus, i_plus, i_minus, i_minus), EXTREMA))


def _window_extrema(problem: Problem, window: Tuple[int, int], quantity: Optional[str] = None):
    """The four extrema of ``EXTREMA`` over the window, or with ``quantity``,
    one of those names, that extremum alone from a pass over its side only."""
    k_lo, k_hi = window
    if k_hi <= k_lo:
        raise ValueError("empty criterion window")
    table = KernelTable(problem)
    if quantity is None:
        return _extrema(*table.criterion(k_lo, k_hi)[:2])
    if quantity not in EXTREMA:
        raise ValueError(f"quantity must be one of {EXTREMA}")
    values, _ = table.criterion(k_lo, k_hi, quantity.split("_i_")[1])
    return _extremum(values, quantity)


def _impulse_branch(problem: Problem, window: Tuple[int, int]) -> str:
    factors = [problem.impulses.factor(k) for k in range(window[0], window[1])]
    if all(f > 0 for f in factors):
        return "positive-impulse"
    if all(f < 0 for f in factors):
        return "negative-impulse"
    return "mixed"


def default_window(
    problem: Problem, burn_in: int = DEFAULT_BURN_IN, width: int = DEFAULT_WIDTH
) -> Tuple[int, int]:
    """Knots [k0 + burn_in, k0 + burn_in + width), k0 the interval holding tau."""
    k0 = problem.grid.interval_index(problem.tau)
    return (k0 + burn_in, k0 + burn_in + width)


def _criterion(
    criterion: str,
    problem: Problem,
    window: Optional[Tuple[int, int]],
    tol: float,
    decide: Callable[..., Tuple[str, float, str]],
    extrema: Optional[Tuple[float, float, float, float]] = None,
) -> CriterionReport:
    """Set-up shared by both criteria: window, branch, extrema, mixed case.

    ``decide(branch, sup_ip, inf_ip, sup_im, inf_im)`` gives (verdict,
    margin, reason) on a sign-definite branch.  ``extrema`` of the same
    window, when given, replace the window pass.
    """
    if problem.grid.lagged:
        raise ValueError("criterion not extended to lagged grids")
    if window is None:
        window = default_window(problem)
    branch = _impulse_branch(problem, window)
    extrema = extrema or _window_extrema(problem, window)
    report = functools.partial(
        CriterionReport,
        criterion=criterion,
        branch=branch,
        window=window,
        tol=tol,
        **dict(zip(EXTREMA, extrema)),
    )
    if branch == "mixed":
        return report(
            verdict="inconclusive", margin=math.nan, reason="mixed impulse signs over window"
        )
    verdict, margin, reason = decide(branch, *extrema)
    return report(verdict=verdict, margin=margin, reason=reason)


def aw_criterion(
    problem: Problem,
    window: Optional[Tuple[int, int]] = None,
    strictness_tol: float = DEFAULT_CRITERION_TOL,
    extrema: Optional[Tuple[float, float, float, float]] = None,
) -> CriterionReport:
    """Sufficient oscillation test from windowed kernel-integral extrema.

    Positive-impulse branch: sup i_plus > 1 or inf i_minus < -1 forces
    oscillation.  Negative-impulse branch (taken verbatim, note the
    asymmetry): inf i_plus < 1 or sup i_minus > -1.  All four extrema are
    reported so alternative readings can be applied by the caller.
    ``extrema`` of the same window, in the order of ``EXTREMA``, save its
    pass; ``sweep`` gives the combined rows' extrema of a value here.
    """
    def decide(branch, sup_ip, inf_ip, sup_im, inf_im):
        if branch == "positive-impulse":
            margin = max(sup_ip - 1.0, -1.0 - inf_im)
        else:
            margin = max(1.0 - inf_ip, sup_im + 1.0)
        if margin > strictness_tol:
            return "oscillatory", margin, ""
        if margin > -strictness_tol:
            return "inconclusive", margin, "boundary (within tolerance of threshold)"
        return "inconclusive", margin, "no threshold cleared"

    return _criterion("oscillation", problem, window, strictness_tol, decide, extrema)


def nonosc_criterion(
    problem: Problem,
    window: Optional[Tuple[int, int]] = None,
    strictness_tol: float = DEFAULT_CRITERION_TOL,
    extrema: Optional[Tuple[float, float, float, float]] = None,
) -> CriterionReport:
    """Sufficient nonoscillation test (non-strict thresholds, both branches);
    ``extrema`` of the same window (``CriterionReport.extrema``) save its pass."""
    def decide(branch, sup_ip, inf_ip, sup_im, inf_im):
        if branch == "positive-impulse":
            margin = min(1.0 - sup_ip, inf_im + 1.0)
        else:
            margin = min(inf_ip - 1.0, -1.0 - sup_im)
        if margin >= -strictness_tol:
            return "nonoscillatory", margin, ""
        return "inconclusive", margin, "bounds exceeded"

    return _criterion("nonoscillation", problem, window, strictness_tol, decide, extrema)


class GronwallBound:
    """A-priori envelope for |z(t)| from the integral inequality bound.

    With eta1 = |a|, eta2 = |b| and jump weights |c_k|, provided
    theta_hat = sup_k int over the advanced part of (|a| + |b|) stays
    below 1, every solution obeys

        |z(t)| <= prod_{tau < t_k <= t} (1 + |c_k|)
                  * exp(int_tau^t (|a| + |b| / (1 - theta_hat))) * |z0|.

    The quadrature tolerance is read once, at construction.
    """

    def __init__(self, problem: Problem):
        if problem.grid.lagged:
            raise ValueError("envelope needs the advanced/delayed split")
        self.problem = problem
        self.rel_tol = default_rel_tol()
        grid = problem.grid
        abs_a = lambda s: abs(problem.a.ev(s))
        abs_b = lambda s: abs(problem.b.ev(s))
        self._abs_a, self._abs_b = abs_a, abs_b
        k0 = grid.interval_index(problem.tau)
        k_end = grid.interval_index(problem.horizon)
        thetas = []
        for k in range(k0, k_end + 1):
            tk, zk = grid.knot(k), grid.zeta(k)
            va, _ = integrate(abs_a, tk, zk, self.rel_tol)
            vb, _ = integrate(abs_b, tk, zk, self.rel_tol)
            thetas.append(va + vb)
        self.theta_hat = max(thetas)
        if self.theta_hat >= 1.0:
            raise ValueError(
                f"theta_hat = {self.theta_hat:.6g} >= 1; envelope unavailable"
            )
        self._weight = 1.0 / (1.0 - self.theta_hat)
        # cumulative exponent and jump product at the piece boundaries
        # pieces: [tau, t_{k0+1}], [t_{k0+1}, t_{k0+2}], ...
        self._piece_starts = [problem.tau]
        self._cum_exponent = [0.0]
        self._cum_jump = [1.0]
        cum_e, cum_j = 0.0, 1.0
        k = k0
        while grid.knot(k + 1) <= problem.horizon:
            lo = self._piece_starts[-1]
            hi = grid.knot(k + 1)
            cum_e += self._exponent_piece(lo, hi)
            cum_j *= 1.0 + abs(problem.impulses.c(k + 1))
            self._piece_starts.append(hi)
            self._cum_exponent.append(cum_e)
            self._cum_jump.append(cum_j)
            k += 1

    def _exponent_piece(self, lo: float, hi: float) -> float:
        va, _ = integrate(self._abs_a, lo, hi, self.rel_tol)
        vb, _ = integrate(self._abs_b, lo, hi, self.rel_tol)
        return va + self._weight * vb

    def bound(self, t: float) -> float:
        if not (self.problem.tau <= t <= self.problem.horizon):
            raise ValueError("t outside [tau, horizon]")
        i = bisect_right(self._piece_starts, t) - 1
        exponent = self._cum_exponent[i] + self._exponent_piece(self._piece_starts[i], t)
        if exponent > EXP_OVERFLOW:  # an infinite envelope is still a bound
            return math.inf
        return self._cum_jump[i] * math.exp(exponent) * abs(self.problem.z0)


def gronwall_bound(problem: Problem, t: float) -> float:
    """Envelope value at one time point; see :class:`GronwallBound`."""
    return GronwallBound(problem).bound(t)
