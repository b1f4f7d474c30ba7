"""Config-driven command line front end.

Subcommands ingest one JSON problem file and emit deterministic CSV /
text reports: ``solve`` (trajectory export), ``classify`` (skeleton and
in-interval sign analysis), ``criterion`` (windowed threshold tests),
``sweep`` (parameter scan with optional threshold bisection) and
``oracle-check`` (kernel route vs. fixed-step Runge-Kutta route).

Exit codes: 0 success, 1 oracle deviation above tolerance, 2 config
error, 3 singular kernel, 4 sweep found no crossing, 5 a flow weight or
solution value outside the float range.  stdout carries the summary,
stderr the diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .expressions import ExpressionError, ScalarExpr, affine_split, parameters, parse_expression
from .grid import ArgumentGrid, ExplicitGrid, GridRangeError, LaggedUniformGrid, UniformGrid
from .kernel import KernelTable, SingularKernel
from .oracle import DEFAULT_STEPS_PER_INTERVAL, oracle_integrate
from .oscillation import (
    DEFAULT_BURN_IN,
    DEFAULT_CRITERION_TOL,
    DEFAULT_WIDTH,
    EXTREMA,
    CriterionReport,
    _extrema,
    _extremum,
    _window_extrema,
    aw_criterion,
    classify_continuous,
    classify_discrete,
    default_window,
    nonosc_criterion,
)
from .problem import ImpulseDegenerate, ImpulseRule, Problem
from .quadrature import QuadratureError
from .solver import bisect_root, solve

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_NO_CROSSING = 4
EXIT_RANGE = 5


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextlib.contextmanager
def _reading(section: str):
    """Report a missing key or a value of the wrong type in ``section`` as ConfigError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad {section} config: {exc}") from exc


# -- config -> problem ---------------------------------------------------------

def _build_grid(cfg: dict) -> ArgumentGrid:
    kind = cfg.get("type")
    if kind == "uniform":
        return UniformGrid(float(cfg["t0"]), float(cfg["h"]), float(cfg.get("alpha", 0.0)))
    if kind == "lagged":
        return LaggedUniformGrid(float(cfg["t0"]), float(cfg["h"]), int(cfg.get("lag", 1)))
    if kind == "explicit":
        return ExplicitGrid(tuple(cfg["knots"]), tuple(cfg["zetas"]))
    raise ConfigError(f"grid.type must be uniform|explicit|lagged, got {kind!r}")


# the key of the one value of an impulse kind: a number, or an expression in the params
_IMPULSE_VALUE_KEYS = {"constant": "c", "multiplier": "C", "alternating": "c"}


def _build_impulse(cfg: Optional[dict], expr: Optional[ScalarExpr]) -> ImpulseRule:
    """The impulse rule of ``cfg``; ``expr`` is its parsed expression, when
    :func:`_expression_texts` lists one."""
    if cfg is None:
        return ImpulseRule.none()
    kind = cfg.get("type", "none")
    if kind == "none":
        return ImpulseRule.none()
    if kind in _IMPULSE_VALUE_KEYS:
        make = getattr(ImpulseRule, kind)
        return make(float(cfg[_IMPULSE_VALUE_KEYS[kind]]) if expr is None else expr.ev(0.0))
    if kind == "explicit":
        return ImpulseRule.explicit(cfg["values"], int(cfg.get("start_k", 0)))
    if kind == "expr":
        return ImpulseRule.from_expression(expr)
    raise ConfigError(f"unknown impulse type {kind!r}")


def _expression_texts(pcfg: dict) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """(text, variables) of every config value that is an expression: a, b,
    then the impulse's expression or its value when that is not a number.
    Each is read when it is reached, so a config error surfaces in the order
    :func:`build_problem` reads the config."""
    yield pcfg["a"], ("t",)
    yield pcfg["b"], ("t",)
    icfg = pcfg.get("impulse") or {}
    kind = icfg.get("type", "none")
    if kind == "expr":
        yield icfg["expr"], ("k",)
    elif kind in _IMPULSE_VALUE_KEYS:
        value = icfg[_IMPULSE_VALUE_KEYS[kind]]
        if not isinstance(value, (int, float)):
            yield str(value), ()


def build_problem(cfg: dict, param_overrides: Optional[Dict[str, float]] = None) -> Problem:
    with _reading("problem"):
        pcfg = cfg["problem"]
        params = dict(pcfg.get("params", {}))
        if param_overrides:
            params.update(param_overrides)
        exprs = (parse_expression(text, variables, params)
                 for text, variables in _expression_texts(pcfg))
        a, b = next(exprs), next(exprs)
        grid = _build_grid(pcfg["grid"])
        impulses = _build_impulse(pcfg.get("impulse"), next(exprs, None))
        history = pcfg.get("history")
        return Problem(
            a=a,
            b=b,
            grid=grid,
            impulses=impulses,
            tau=float(pcfg.get("tau", 0.0)),
            z0=float(pcfg.get("z0", 1.0)),
            horizon=float(pcfg.get("horizon", 10.0)),
            history=tuple(history) if history is not None else None,
        )


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _analysis_window(cfg: dict, args, problem: Problem) -> Tuple[int, int]:
    burn, width = DEFAULT_BURN_IN, DEFAULT_WIDTH
    with _reading("analysis"):
        wcfg = cfg.get("analysis", {}).get("window")
        if wcfg:
            burn = int(wcfg.get("burn_in", burn))
            width = int(wcfg.get("width", width))
    if args.window:
        burn, width = args.window
    return default_window(problem, burn, width)


def _finite(name: str, value: float) -> float:
    """value, refused unless it is finite."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _tolerance(name: str, value: float) -> float:
    """value, refused unless it is finite and non-negative."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def _criterion_tol(cfg: dict, args) -> float:
    with _reading("analysis"):
        tolerances = cfg.get("analysis", {}).get("tolerances", {})
        if "quad_rel_tol" in tolerances:
            raise ConfigError(
                "analysis.tolerances.quad_rel_tol is not supported; "
                "set the quadrature tolerance with the IDEPCAG_QUAD_TOL environment variable"
            )
        if args.tol is not None:
            return _tolerance("--tol", args.tol)
        tol = float(tolerances.get("criterion_tol", DEFAULT_CRITERION_TOL))
        return _tolerance("analysis.tolerances.criterion_tol", tol)


# -- commands -------------------------------------------------------------------

def _write(args, name: str, text: str) -> Path:
    """Write one output file into ``--out``, made if missing; its path."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def _sample_times(traj, n_samples: int) -> Tuple[List[float], List[int]]:
    """(t, k) of every row of ``solve``: n_samples evenly from the start of
    each solved interval, then the horizon, so that the rows end on z(horizon)."""
    horizon = traj.problem.horizon
    k_end = traj.problem.grid.interval_index(horizon)
    ks = np.arange(traj.k_start, k_end + 1)
    lo, hi = np.array([traj._window(k) for k in ks.tolist()]).reshape(-1, 2).T
    solved = lo < hi
    lo, hi = lo[solved, None], hi[solved, None]  # one row of samples per interval
    ts = (lo + (hi - lo) * np.arange(n_samples) / n_samples).ravel()
    return [*ts.tolist(), horizon], [*np.repeat(ks[solved], n_samples).tolist(), k_end]


def cmd_solve(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    with _reading("output"):
        n_samples = int(cfg.get("output", {}).get("samples_per_interval", 64))
        if n_samples < 1:
            raise ConfigError("output.samples_per_interval must be at least 1")
    traj = solve(problem)
    ts, ks = _sample_times(traj, n_samples)
    pts = list(map(traj._by_time.get, ts))
    # rows are refused in order: no value is read past the first knot row out of range
    knots = (i for i, pt in enumerate(pts) if pt)
    bad = (i for i in knots if not all(map(math.isfinite, (pts[i].z_left, pts[i].z_right))))
    zs = traj.values(ts[: next(bad, len(ts)) + 1])  # z_right of each row
    lefts = [z if pt is None else pt.z_left for z, pt in zip(zs, pts)]
    for i in np.flatnonzero(~np.isfinite([zs, lefts]).all(axis=0))[:1].tolist():
        raise OverflowError(f"solution value is not finite on interval k={ks[i]}")
    right = [f"{z:.17g}" for z in zs]
    rows = ["t,z,interval_k,is_knot,z_left,z_right\n"] + [
        f"{t:.17g},{r},{k},{int(pt is not None)},{format(pt.z_left, '.17g') if pt else r},{r}\n"
        for t, r, k, pt in zip(ts, right, ks, pts)
    ]
    out_path = _write(args, "trajectory.csv", "".join(rows))

    zeros = traj.zero_list()
    print(
        f"knots={len(traj.points)} zeros={len(zeros)} final={right[-1]} "
        f"start_argument=\"{traj.metadata.get('start_argument', '')}\" out={out_path}"
    )
    return EXIT_OK


def cmd_classify(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    traj = solve(problem)
    window = default_window(problem, *args.window) if args.window else None
    verdict = classify_discrete(traj, window)
    lines = [
        f"discrete: {verdict.status}",
        f"window: [{verdict.window[0]}, {verdict.window[1]})",
        f"evidence: {verdict.evidence}",
    ]
    if verdict.sign_changes:
        shown = ",".join(str(n) for n in verdict.sign_changes[:32])
        lines.append(f"sign_changes: {shown}")
    final = verdict
    if verdict.status == "nonoscillatory" and not problem.grid.lagged:
        refined = classify_continuous(traj, window)
        lines.append(f"continuous: {refined.status}")
        lines.append(f"continuous_evidence: {refined.evidence}")
        final = refined
    _write(args, "classify_report.txt", "\n".join(lines) + "\n")
    print(f"verdict: {final.status}")
    for line in lines[1:]:
        print(line)
    return EXIT_OK


def _criterion_verdict(
    problem: Problem, window, tol, extrema=None
) -> Tuple[str, List[CriterionReport]]:
    """Oscillation test, then the nonoscillation test unless the first fired;
    ``extrema`` of the window, when given, replace its pass."""
    osc = aw_criterion(problem, window, tol, extrema)
    if osc.verdict == "oscillatory":
        return "oscillatory", [osc]
    non = nonosc_criterion(problem, window, tol, osc.extrema)
    return ("nonoscillatory" if non.verdict == "nonoscillatory" else "inconclusive"), [osc, non]


def cmd_criterion(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    if problem.grid.lagged:
        raise ConfigError(
            "criterion not extended to lagged grids; use the lagged solver and classify"
        )
    window = _analysis_window(cfg, args, problem)
    final, reports = _criterion_verdict(problem, window, _criterion_tol(cfg, args))
    _write(args, "criterion_report.txt", "\n".join(r.to_text() for r in reports))
    print(f"verdict: {final}")
    for r in reports:
        print(
            f"{r.criterion}: {r.verdict} (branch={r.branch}, margin={r.margin:.6g})"
        )
    return EXIT_OK


# a combined row is used while |u| + |v - lo| |w| <= _SPLIT_GUARD |u + (v - lo) w|,
# so that its error, within tol (|u| + |v - lo| |w|), stays within 10 tol of its value
_SPLIT_GUARD = 10.0


def _affine_rows(cfg: dict, pname: str, lo: float, hi: float, problem: Problem, window):
    """``rows_at(v, side)``, the window's rows of ``side`` at v as
    u + (v - lo) w, u and w from passes on ``problem``'s b, that is b(lo),
    and on b's coefficient of v; it gives None where the rows fail the
    guard.  None when b is not affine in v, b(hi) does not bind or a pass
    raises, and the sweep makes every pass itself."""
    pcfg = cfg["problem"]
    try:
        split = affine_split(pcfg["b"], ("t",), pcfg.get("params", {}), pname)
        if split is None:
            return None
        # the constants b folds are affine in v, so every row binds when both ends do
        build_problem(cfg, {pname: hi})
        u = KernelTable(problem).criterion(*window)
        w = KernelTable(dataclasses.replace(problem, b=split[1])).criterion(*window)
    except (ArithmeticError, RuntimeError, ValueError):
        return None
    # each side's u, w, |u| and |w|, so that a value only combines them
    passes = {side: (u[i], w[i], np.abs(u[i]), np.abs(w[i]))
              for i, side in enumerate(("plus", "minus"))}

    def rows_at(v: float, side: str):
        (u, w, abs_u, abs_w), dv = passes[side], v - lo
        if dv == 0.0:
            return u
        rows = u + dv * w
        bound = abs_u + abs(dv) * abs_w
        if np.isfinite(rows).all() and (bound <= _SPLIT_GUARD * np.abs(rows)).all():
            return rows
        return None

    return rows_at


def cmd_sweep(cfg: dict, args) -> int:
    """Rows of the four extrema over ``steps`` values of one parameter, then
    with a target the bisection of one extremum to its threshold.

    When the parameter is read by b alone and affinely, every row and every
    bisection step after the first row combines two window passes (see
    :func:`_affine_rows`); a value whose combined rows fail the guard makes
    its own pass, as every value of any other sweep does.
    """
    with _reading("sweep"):
        sweep = cfg.get("sweep")
        if not sweep:
            raise ConfigError("sweep section missing")
        pname = sweep.get("parameter")
        params = cfg.get("problem", {}).get("params", {})
        if pname not in params:
            raise ConfigError(f"sweep parameter {pname!r} not in problem params")
        lo, hi = (_finite(f"sweep.{key}", float(sweep[key])) for key in ("lo", "hi"))
        steps = int(sweep.get("steps", 11))
        if steps < 2:
            raise ConfigError("sweep needs steps >= 2")
        target = sweep.get("target")
        if target:
            quantity = target.get("quantity")
            if quantity not in EXTREMA:
                raise ConfigError(f"target.quantity must be one of {EXTREMA}")
            threshold = _finite("sweep.target.threshold", float(target["threshold"]))
            xtol = _tolerance("sweep.target.xtol", float(target.get("xtol", 1e-6)))
    with _reading("problem"):
        texts = list(_expression_texts(cfg["problem"]))
        readers = [i for i, (text, variables) in enumerate(texts)
                   if pname in parameters(text, variables, params)]
        if not readers:
            raise ConfigError(f"sweep parameter {pname!r} is read by no expression")
    tol = _criterion_tol(cfg, args)

    def make(value: float) -> Problem:
        return build_problem(cfg, {pname: value})

    # one rule for every row; the last is hi itself, so the end rows bracket the crossing
    values = [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]
    problem = make(lo)
    window = _analysis_window(cfg, args, problem)
    # texts[1] is b; a parameter that b alone reads may have its rows combined
    rows_at = _affine_rows(cfg, pname, lo, hi, problem, window) if readers == [1] else None
    rows = [",".join(("parameter",) + EXTREMA + ("verdict",))]
    row_extrema = []
    for v in values:
        sides = [rows_at(v, side) for side in ("plus", "minus")] if rows_at else [None]
        if any(side is None for side in sides):
            verdict, reports = _criterion_verdict(problem if v == lo else make(v), window, tol)
        else:
            verdict, reports = _criterion_verdict(problem, window, tol, _extrema(*sides))
        row_extrema.append(reports[0].extrema)
        rows.append(",".join([_fmt(v), *map(_fmt, row_extrema[-1]), verdict]))
    path = _write(args, "sweep.csv", "\n".join(rows) + "\n")
    print(f"sweep: {steps} rows -> {path}")
    if not target:
        return EXIT_OK

    def g(v: float) -> float:
        # a bisection step reads only the side that ``quantity`` reads
        side_rows = rows_at and rows_at(v, quantity.split("_i_")[1])
        if side_rows is None:
            return _window_extrema(make(v), window, quantity) - threshold
        return _extremum(side_rows, quantity) - threshold

    index = EXTREMA.index(quantity)
    g_lo, g_hi = (row_extrema[i][index] - threshold for i in (0, -1))
    if g_lo == 0.0:
        root = lo
    elif g_hi == 0.0:
        root = hi
    elif (g_lo < 0.0) == (g_hi < 0.0):
        print("no crossing")
        return EXIT_NO_CROSSING
    else:
        root = bisect_root(g, lo, hi, g_lo, xtol)
    print(f"crossing: {pname}={root:.8f} ({quantity} = {threshold:g})")
    return EXIT_OK


def cmd_oracle_check(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    if problem.grid.lagged:
        raise ConfigError("oracle check supports non-lagged grids only")
    with _reading("analysis"):
        acfg = cfg.get("analysis", {})
        steps = int(acfg.get("oracle_steps", DEFAULT_STEPS_PER_INTERVAL))
        n_samples = int(acfg.get("check_samples", 100))
        check_tol = _tolerance("analysis.check_tol", float(acfg.get("check_tol", 1e-6)))
        if steps < 2 or n_samples < 1:
            raise ConfigError("analysis needs oracle_steps >= 2 and check_samples >= 1")
    traj = solve(problem)
    otraj = oracle_integrate(problem, steps)
    span = problem.horizon - problem.tau
    if args.seed is not None:
        rng = random.Random(args.seed)
        ts = sorted(problem.tau + rng.random() * span for _ in range(n_samples))
    else:
        ts = [problem.tau + span * (i + 0.5) / n_samples for i in range(n_samples)]
    max_dev = 0.0
    worst_t = problem.tau
    for t, zo, zk in zip(ts, otraj.values(ts), traj.values(ts)):
        dev = abs(zk - zo) / max(abs(zk), abs(zo), sys.float_info.min)
        if dev > max_dev:
            max_dev, worst_t = dev, t
    _write(
        args,
        "oracle_check.txt",
        f"samples: {n_samples}\noracle_steps: {steps}\n"
        f"max_rel_dev: {max_dev:.6e}\nworst_t: {_fmt(worst_t)}\ntol: {check_tol:g}\n",
    )
    print(f"max_rel_dev={max_dev:.6e} tol={check_tol:g}")
    return EXIT_OK if max_dev <= check_tol else EXIT_DEVIATION


# -- entry point -----------------------------------------------------------------

def _parse_window(text: str) -> Tuple[int, int]:
    try:
        burn, width = text.split(",")
        return int(burn), int(width)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --window K0,W") from exc


_OPTIONS = {
    "--window": dict(type=_parse_window, default=None, metavar="K0,W"),
    "--tol": dict(type=float, default=None, help="criterion strictness"),
    "--seed": dict(type=int, default=None, help="seed for randomized samples"),
}
_CRITERION_OPTIONS = ("--window", "--tol")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idepcag",
        description="Solve and analyze impulsive equations with piecewise constant arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in (
        ("solve", cmd_solve, ()),
        ("classify", cmd_classify, ("--window",)),
        ("criterion", cmd_criterion, _CRITERION_OPTIONS),
        ("sweep", cmd_sweep, _CRITERION_OPTIONS),
        ("oracle-check", cmd_oracle_check, ("--seed",)),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON problem file")
        p.add_argument("--out", default=".", help="output directory")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(fn=fn)
    return parser


_PARSER = _build_parser()  # parse_args leaves the parser unchanged


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.fn(cfg, args)
    except (ConfigError, ExpressionError, GridRangeError, ImpulseDegenerate) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularKernel as exc:
        print(f"singular kernel: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
