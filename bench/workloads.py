"""Seeded workloads: problem configs and the request sequence of one pass.

Every workload is a closed loop with one client.  A workload is a fixed
design of problem sizes (grid kind and horizon, one config per cell);
the seed draws the coefficients of each cell and the order of the pass,
and the timed phase repeats that pass until the run time is used up.
Coefficient draws are stratified (each takes one value per stratum of its
range, shuffled over the cells).  So two seeds give different problems
with the same spread of sizes, which keeps run-to-run figures comparable.

Each family keeps its coefficient formulas twice, once as the expression
text the program parses and once as a numpy function for the reference
in :mod:`reference`; the pairs sit next to each other so they cannot
drift apart.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import reference

TWO_PI = 2.0 * math.pi

# a(t) = -a0 - a1 sin(w t),  b(t) = b0 cos(2 pi t) + b1
VARCOEF_A = "-a0 - a1*sin(w*t)"
VARCOEF_B = "b0*cos(2*pi*t) + b1"


def varcoef_a(p: Dict[str, float], t):
    return -p["a0"] - p["a1"] * np.sin(p["w"] * t)


def varcoef_b(p: Dict[str, float], t):
    return p["b0"] * np.cos(TWO_PI * t) + p["b1"]


# a(t) = -a0,  b(t) = b0 sin(2 pi t)
ORACLE_A = "-a0"
ORACLE_B = "b0*sin(2*pi*t)"


def oracle_a(p: Dict[str, float], t):
    return np.full_like(t, -p["a0"])


def oracle_b(p: Dict[str, float], t):
    return p["b0"] * np.sin(TWO_PI * t)


# a(t) = -p,  b(t) = -q0 + b1 sin(2 pi t); i_plus / i_minus have a closed form
SWEEP_A = "-p"
SWEEP_B = "-q0 + b1*sin(2*pi*t)"
SWEEP_ALPHA = 0.5
SWEEP_THRESHOLD = -1.0
SWEEP_XTOL = 1e-6


@dataclass(frozen=True)
class Request:
    """One CLI call: ``idepcag <command> --config <configs[config]> <args>``."""

    command: str
    config: int
    args: Tuple[str, ...] = ()
    expected_exit: int = 0


@dataclass
class Workload:
    name: str
    configs: List[dict]
    families: List[str]  # family of each config: varcoef | oracle | sweep
    requests: List[Request]  # one pass
    warmup: List[Request]  # run before the timed phase, counted in set-up
    references: Dict[int, reference.Solution] = field(default_factory=dict)
    # fewest timed requests per run, so that the 90th percentile has ten
    # samples beyond it
    min_requests: int = 100


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _group_strata(rng: random.Random, groups: int, n: int, lo: float, hi: float) -> List[float]:
    """``groups`` runs of ``n`` values, each run stratified on its own, so
    every group of cells covers the whole range."""
    return [v for _ in range(groups) for v in _strata(rng, n, lo, hi)]


def _config(params, a, b, grid, horizon, impulse_c, extra=None) -> dict:
    cfg = {
        "problem": {
            "a": a,
            "b": b,
            "params": params,
            "grid": grid,
            "impulse": {"type": "multiplier", "C": "C"} if impulse_c else {"type": "none"},
            "tau": 0.0,
            "z0": 1.0,
            "horizon": float(horizon),
        }
    }
    if extra:
        cfg.update(extra)
    return cfg


def _signed(rng: random.Random, lo: float, hi: float, negative_share: float) -> float:
    v = rng.uniform(lo, hi)
    return -v if rng.random() < negative_share else v


def _workload(name, rng, configs, family, requests, references=None) -> Workload:
    """Warm-up: the first request of each command in design order; then the
    pass is shuffled."""
    warmup, seen = [], set()
    for r in requests:
        if r.command not in seen:
            seen.add(r.command)
            warmup.append(r)
    requests = list(requests)
    rng.shuffle(requests)
    return Workload(name, configs, [family] * len(configs), requests, warmup, references or {})


# -- varcoef_solve ---------------------------------------------------------------

VARCOEF_GRIDS = ("lagged", 0.0, 0.5, 1.0)  # lag-1 grid, or uniform grid with this alpha


def varcoef_solve(
    seed: int, horizons=(10, 12, 14, 16), classify_horizons=(12,)
) -> Workload:
    """Non-constant a(t): every quadrature node runs an inner adaptive integral.

    One config per (horizon, grid) cell; ``classify`` runs on the cells of
    ``classify_horizons``, ``solve`` on all of them: 20 requests a pass.
    Each coefficient is stratified within every horizon, so the cells of
    one horizon, which set the latency percentiles, span its whole range.
    """
    rng = random.Random(f"varcoef_solve:{seed}")
    cells = [(g, h) for h in horizons for g in VARCOEF_GRIDS]
    n = len(cells)
    groups, size = len(horizons), len(VARCOEF_GRIDS)
    strata = {
        "a0": _group_strata(rng, groups, size, 0.6, 1.4),
        "a1": _group_strata(rng, groups, size, 0.1, 0.5),
        "w": _group_strata(rng, groups, size, 0.5, 2.5),
        "b0": _group_strata(rng, groups, size, 0.1, 0.6),
        "b1": _group_strata(rng, groups, size, -0.5, 0.5),
    }
    configs, refs = [], {}
    for i, (kind, horizon) in enumerate(cells):
        params = {k: v[i] for k, v in strata.items()}
        if kind == "lagged":
            grid = {"type": "lagged", "t0": 0, "h": 1, "lag": 1}
        else:
            grid = {"type": "uniform", "t0": 0, "h": 1, "alpha": kind}
        while True:
            params["C"] = _signed(rng, 0.6, 1.2, 0.5)
            cfg = _config(
                dict(params), VARCOEF_A, VARCOEF_B, grid, horizon, True,
                {"output": {"samples_per_interval": 16}},
            )
            if kind == "lagged":
                cfg["problem"]["history"] = [rng.uniform(0.5, 1.5)]
            sol = reference.solve(cfg, varcoef_a, varcoef_b)
            if sol.well_conditioned():
                break
            # redraw the coefficients of this config only
            for k in strata:
                params[k] = rng.uniform(min(strata[k]), max(strata[k]))
        configs.append(cfg)
        refs[i] = sol
    requests = [Request("solve", i) for i in range(n)]
    requests += [Request("classify", i) for i, (_, h) in enumerate(cells) if h in classify_horizons]
    return _workload("varcoef_solve", rng, configs, "varcoef", requests, refs)


# -- oracle_check ------------------------------------------------------------------

def oracle_check(seed: int, horizons=tuple(range(10, 21)), steps: int = 2000) -> Workload:
    """Constant a: the per-step RK4 loop of the oracle does almost all the work.

    One config per (alpha, horizon) cell, each checked once per pass.
    """
    rng = random.Random(f"oracle_check:{seed}")
    cells = [(alpha, h) for alpha in (0.0, 0.5) for h in horizons]
    a0s = _strata(rng, len(cells), 0.5, 2.0)
    b0s = _strata(rng, len(cells), 0.1, 0.5)
    configs = []
    for i, (alpha, horizon) in enumerate(cells):
        grid = {"type": "uniform", "t0": 0, "h": 1, "alpha": alpha}
        b0 = b0s[i]
        while True:
            params = {"a0": a0s[i], "b0": b0 if rng.random() < 0.5 else -b0,
                      "C": _signed(rng, 0.7, 1.1, 0.5)}
            cfg = _config(
                params, ORACLE_A, ORACLE_B, grid, horizon, True,
                {"analysis": {"oracle_steps": steps, "check_samples": 60, "check_tol": 1e-6}},
            )
            # the oracle check compares relative deviations, which a zero of
            # the solution inside an interval would blow up
            if reference.solve(cfg, oracle_a, oracle_b).well_conditioned(zero_free=True):
                break
            b0 *= 0.8
        configs.append(cfg)
    requests = [
        Request("oracle-check", i, ("--seed", str(seed * 1000 + i))) for i in range(len(cells))
    ]
    return _workload("oracle_check", rng, configs, "oracle", requests)


# -- long_sweep ----------------------------------------------------------------------

def long_sweep(seed: int, intervals=tuple(100 + round(200 * i / 15) for i in range(16))) -> Workload:
    """Long horizon, criterion integrals only, a fresh kernel table per sweep value.

    One config per interval count; ``criterion`` runs on every third.
    """
    rng = random.Random(f"long_sweep:{seed}")
    m = len(intervals)
    ps = _strata(rng, m, 0.5, 1.5)
    b1s = _strata(rng, m, 0.1, 0.5)
    hs = _strata(rng, m, 0.6, 1.2)
    configs = []
    for i, n in enumerate(intervals):
        h = round(hs[i], 6)
        window = (2, n - 4)
        params = {"p": ps[i], "q0": 0.0, "b1": b1s[i]}
        q_star = reference.sweep_crossing(params, h, window, SWEEP_THRESHOLD)
        lo = q_star - rng.uniform(0.1, 0.4)
        hi = q_star + rng.uniform(0.1, 0.4)
        params["q0"] = rng.uniform(lo, hi)
        grid = {"type": "uniform", "t0": 0, "h": h, "alpha": SWEEP_ALPHA}
        configs.append(_config(
            params, SWEEP_A, SWEEP_B, grid, n * h, False,
            {
                "analysis": {"window": {"burn_in": window[0], "width": window[1]}},
                "sweep": {
                    "parameter": "q0", "lo": lo, "hi": hi, "steps": 3 + i % 3,
                    "target": {"quantity": "inf_i_minus", "threshold": SWEEP_THRESHOLD,
                               "xtol": SWEEP_XTOL},
                },
            },
        ))
    requests = [Request("sweep", i) for i in range(m)]
    requests += [Request("criterion", i) for i in range(0, m, 3)]
    return _workload("long_sweep", rng, configs, "sweep", requests)


# -- smoke (self-tests only) ---------------------------------------------------------

def smoke(seed: int) -> Workload:
    """Tiny problems from all three families, for the benchmark's self-tests."""
    parts = [
        varcoef_solve(seed, horizons=(8,), classify_horizons=(8,)),
        oracle_check(seed, horizons=(3,), steps=200),
        long_sweep(seed, intervals=(16, 20)),
    ]
    wl = Workload("smoke", [], [], [], [], min_requests=1)
    for part in parts:
        base = len(wl.configs)
        wl.configs += part.configs
        wl.families += part.families
        wl.references.update({base + k: v for k, v in part.references.items()})
        for mine, theirs in ((wl.requests, part.requests), (wl.warmup, part.warmup)):
            mine += [Request(r.command, base + r.config, r.args) for r in theirs]
    return wl


WORKLOADS = {
    "varcoef_solve": varcoef_solve,
    "oracle_check": oracle_check,
    "long_sweep": long_sweep,
    "smoke": smoke,
}
