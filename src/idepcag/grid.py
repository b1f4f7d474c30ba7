"""Piecewise constant argument grids.

A grid is the pair of sequences {t_k} (knots) and {zeta_k} (argument
values): the deviating argument equals zeta_k on the whole interval
[t_k, t_{k+1}).  Knots use the right-continuous convention, so t = t_k
belongs to interval k.  All grids are immutable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


class GridRangeError(ValueError):
    """Point outside the range covered by an explicit grid."""


class ArgumentGrid:
    """Common interface: knot/zeta lookup, interval index, argument value."""

    __slots__ = ()

    lagged: bool = False

    def knot(self, k: int) -> float:
        raise NotImplementedError

    def zeta(self, k: int) -> float:
        raise NotImplementedError

    def interval_index(self, t: float) -> int:
        raise NotImplementedError

    def window(self, k_lo: int, k_hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """(knots t_k_lo..t_k_hi, zetas zeta_k_lo..zeta_{k_hi-1}) as float
        arrays, bitwise equal to :meth:`knot` and :meth:`zeta`."""
        raise NotImplementedError

    def gamma(self, t: float) -> float:
        """Argument value at time t (constant on each interval)."""
        return self.zeta(self.interval_index(t))


class _EvenKnots(ArgumentGrid):
    """Knots t_k = t0 + k*h, shared by the uniform and lagged grids; the
    subclass holds ``t0`` and ``h``."""

    __slots__ = ()

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("step h must be positive and finite")

    def knot(self, k):
        return self.t0 + k * self.h

    def window(self, k_lo, k_hi):
        # knot and zeta are the same float operations on an index array
        ks = np.arange(k_lo, k_hi + 1)
        return self.knot(ks), self.zeta(ks[:-1])

    def interval_index(self, t):
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        k = math.floor((t - self.t0) / self.h)
        # guard against floating-point boundary misses
        while t < self.knot(k):
            k -= 1
        while t >= self.knot(k + 1):
            k += 1
        return k


@dataclass(frozen=True)
class UniformGrid(_EvenKnots):
    """t_k = t0 + k*h with zeta_k = t_k + alpha*h, alpha in [0, 1]."""

    t0: float
    h: float
    alpha: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")

    def zeta(self, k):
        return self.t0 + (k + self.alpha) * self.h


@dataclass(frozen=True)
class ExplicitGrid(ArgumentGrid):
    """Explicit knot list with one zeta per interval, zeta_k in [t_k, t_{k+1}]."""

    knots: Tuple[float, ...]
    zetas: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(float(x) for x in self.knots))
        object.__setattr__(self, "zetas", tuple(float(x) for x in self.zetas))
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")
        if len(self.zetas) != len(self.knots) - 1:
            raise ValueError("need exactly one zeta per interval")
        for a, b in zip(self.knots, self.knots[1:]):
            if not a < b:
                raise ValueError("knots must be strictly increasing")
        for k, z in enumerate(self.zetas):
            if not (self.knots[k] <= z <= self.knots[k + 1]):
                raise ValueError(f"zeta[{k}] outside its interval")

    def knot(self, k):
        if not 0 <= k < len(self.knots):
            raise GridRangeError(f"knot index {k} out of range")
        return self.knots[k]

    def zeta(self, k):
        if not 0 <= k < len(self.zetas):
            raise GridRangeError(f"interval index {k} out of range")
        return self.zetas[k]

    def window(self, k_lo, k_hi):
        # the first index outside the grid that the scalar lookups would meet
        self.knot(k_lo)
        self.knot(min(k_hi, len(self.knots)))
        return np.array(self.knots[k_lo : k_hi + 1]), np.array(self.zetas[k_lo:k_hi])

    def interval_index(self, t):
        if not (self.knots[0] <= t < self.knots[-1]):
            raise GridRangeError(f"t={t} outside [{self.knots[0]}, {self.knots[-1]})")
        return bisect.bisect_right(self.knots, t) - 1


@dataclass(frozen=True)
class LaggedUniformGrid(_EvenKnots):
    """Uniform knots with the argument pinned to an earlier knot.

    zeta_k = t_{k-lag} lies outside [t_k, t_{k+1}], e.g. gamma(t) = [t-1]
    for h = 1, lag = 1.  Such grids have no advanced/delayed split and the
    solver handles them by direct forward marching.
    """

    t0: float
    h: float
    lag: int = 1

    lagged = True

    def __post_init__(self):
        super().__post_init__()
        if not (isinstance(self.lag, int) and self.lag >= 1):
            raise ValueError("lag must be an integer >= 1")

    def zeta(self, k):
        return self.knot(k - self.lag)
