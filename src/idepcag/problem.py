"""Problem definition: coefficients, grid, impulse rule, initial data."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from .expressions import ScalarExpr, Sum, evaluate
from .grid import ArgumentGrid, GridRangeError

# A divisor d with |d| < SINGULARITY_FACTOR * (1 + |r|), r the quantity it was
# formed from, is treated as zero: the impulse factors here, the kernel
# values the solver divides by (:mod:`idepcag.kernel`) and the oracle's
# 1 - B(zeta_k).
SINGULARITY_FACTOR = 1e-12


def _require_finite(key: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")


class ImpulseDegenerate(ValueError):
    """An impulse factor 1 + c_k vanished, so the jump is not invertible."""

    def __init__(self, k: int):
        super().__init__(f"impulse factor 1 + c_k vanishes at k={k}")
        self.k = k


@dataclass(frozen=True)
class ImpulseRule:
    """Jump rule at the knots: z(t_k) = (1 + c_k) * z(t_k^-).

    Kinds: ``none`` (c_k = 0), ``constant`` (c_k = c), ``multiplier``
    (z(t_k) = C z(t_k^-), i.e. c_k = C - 1), ``alternating``
    (c_k = (-1)^k * c), ``explicit`` (a list of c_k values starting at
    ``start_k``), and ``expr`` (an expression in the index k).
    """

    kind: str
    c0: float = 0.0
    values: Tuple[float, ...] = ()
    start_k: int = 0
    expr: Optional[ScalarExpr] = None

    _KINDS = ("none", "constant", "multiplier", "alternating", "explicit", "expr")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown impulse kind {self.kind!r}")
        if self.kind == "expr" and self.expr is None:
            raise ValueError("expr impulse needs an expression in k")
        key = "C" if self.kind == "multiplier" else "c"
        _require_finite(f"impulse.{key}", self.c0)
        for i, v in enumerate(self.values):
            _require_finite(f"impulse.values[{i}]", v)

    @classmethod
    def none(cls) -> "ImpulseRule":
        return cls("none")

    @classmethod
    def constant(cls, c: float) -> "ImpulseRule":
        return cls("constant", c0=float(c))

    @classmethod
    def multiplier(cls, C: float) -> "ImpulseRule":
        return cls("multiplier", c0=float(C))

    @classmethod
    def alternating(cls, c: float) -> "ImpulseRule":
        return cls("alternating", c0=float(c))

    @classmethod
    def explicit(cls, values, start_k: int = 0) -> "ImpulseRule":
        return cls("explicit", values=tuple(float(v) for v in values), start_k=start_k)

    @classmethod
    def from_expression(cls, expr: ScalarExpr) -> "ImpulseRule":
        return cls("expr", expr=expr)

    def c(self, k: int) -> float:
        if self.kind == "none":
            return 0.0
        if self.kind == "constant":
            return self.c0
        if self.kind == "multiplier":
            return self.c0 - 1.0
        if self.kind == "alternating":
            return self.c0 if k % 2 == 0 else -self.c0
        if self.kind == "explicit":
            i = k - self.start_k
            if not 0 <= i < len(self.values):
                raise ValueError(f"no explicit impulse value for k={k}")
            return self.values[i]
        try:
            c = evaluate(self.expr, float(k))
        except OverflowError:  # exp past the float range
            c = math.inf
        if not math.isfinite(c):
            raise OverflowError(f"impulse value c_k is not finite at k={k}")
        return c

    def factor(self, k: int) -> float:
        """1 + c_k (C itself for a multiplier), raising if the jump degenerates."""
        c = self.c(k)
        f = self.c0 if self.kind == "multiplier" else 1.0 + c
        if abs(f) < SINGULARITY_FACTOR * (1.0 + abs(c)):
            raise ImpulseDegenerate(k)
        return f


@dataclass(frozen=True)
class Problem:
    """One initial-value problem z' = a(t) z + b(t) z(gamma(t)) with jumps.

    ``a`` multiplies the state, ``b`` the deviated value z(gamma(t)),
    jumps act at the grid knots, and the solve runs from (tau, z0) to
    ``horizon``.  ``history`` supplies the pre-start knot values required
    by lagged grids (one value per lag step, oldest first).
    """

    a: ScalarExpr
    b: ScalarExpr
    grid: ArgumentGrid
    impulses: ImpulseRule = field(default_factory=ImpulseRule.none)
    tau: float = 0.0
    z0: float = 1.0
    horizon: float = 10.0
    history: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if not math.isfinite(self.z0):
            raise ValueError("z0 must be finite")
        if not (math.isfinite(self.tau) and math.isfinite(self.horizon)):
            raise ValueError("tau and horizon must be finite")
        if not self.horizon > self.tau:
            raise ValueError("horizon must exceed tau")
        for name, t in (("tau", self.tau), ("horizon", self.horizon)):
            try:
                self.grid.interval_index(t)
            except GridRangeError as exc:
                raise ValueError(f"{name}={t!r} is not inside the grid: {exc}") from None
        if self.history is not None:
            object.__setattr__(
                self, "history", tuple(float(v) for v in self.history)
            )
            for i, v in enumerate(self.history):
                _require_finite(f"history[{i}]", v)

    @cached_property
    def forcing(self) -> ScalarExpr:
        """a + b, built once so every kernel table and trajectory of the
        problem shares its one compiled form."""
        return Sum((self.a, self.b))
