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
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .expressions import ExpressionError, parse_expression
from .grid import ArgumentGrid, ExplicitGrid, GridRangeError, LaggedUniformGrid, UniformGrid
from .kernel import KernelTable, SingularKernel
from .oracle import oracle_integrate
from .oscillation import (
    DEFAULT_BURN_IN,
    DEFAULT_CRITERION_TOL,
    DEFAULT_WIDTH,
    aw_criterion,
    classify_continuous,
    classify_discrete,
    nonosc_criterion,
)
from .problem import ImpulseDegenerate, ImpulseRule, Problem
from .quadrature import QuadratureError
from .solver import solve

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_NO_CROSSING = 4
EXIT_RANGE = 5

_SWEEP_QUANTITIES = ("sup_i_plus", "inf_i_plus", "sup_i_minus", "inf_i_minus")


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def _build_impulse(cfg: Optional[dict], params: Dict[str, float]) -> ImpulseRule:
    if cfg is None:
        return ImpulseRule.none()
    kind = cfg.get("type", "none")
    if kind == "none":
        return ImpulseRule.none()
    if kind == "constant":
        return ImpulseRule.constant(_bound_value(cfg["c"], params))
    if kind == "multiplier":
        return ImpulseRule.multiplier(_bound_value(cfg["C"], params))
    if kind == "alternating":
        return ImpulseRule.alternating(_bound_value(cfg["c"], params))
    if kind == "explicit":
        return ImpulseRule.explicit(cfg["values"], int(cfg.get("start_k", 0)))
    if kind == "expr":
        return ImpulseRule.from_expression(
            parse_expression(cfg["expr"], ("k",), params)
        )
    raise ConfigError(f"unknown impulse type {kind!r}")


def _bound_value(v, params: Dict[str, float]) -> float:
    """Numeric literal, or a parameter reference / expression in params."""
    if isinstance(v, (int, float)):
        return float(v)
    expr = parse_expression(str(v), (), params)
    return expr.ev(0.0)


def build_problem(cfg: dict, param_overrides: Optional[Dict[str, float]] = None) -> Problem:
    try:
        pcfg = cfg["problem"]
        params = dict(pcfg.get("params", {}))
        if param_overrides:
            params.update(param_overrides)
        a = parse_expression(pcfg["a"], ("t",), params)
        b = parse_expression(pcfg["b"], ("t",), params)
        grid = _build_grid(pcfg["grid"])
        impulses = _build_impulse(pcfg.get("impulse"), params)
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
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad problem config: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _analysis_window(cfg: dict, args, problem: Problem) -> Tuple[int, int]:
    k0 = problem.grid.interval_index(problem.tau)
    burn, width = DEFAULT_BURN_IN, DEFAULT_WIDTH
    wcfg = cfg.get("analysis", {}).get("window")
    if wcfg:
        burn = int(wcfg.get("burn_in", burn))
        width = int(wcfg.get("width", width))
    if args.window:
        burn, width = args.window
    return (k0 + burn, k0 + burn + width)


def _criterion_tol(cfg: dict, args) -> float:
    if args.tol is not None:
        return args.tol
    return float(
        cfg.get("analysis", {}).get("tolerances", {}).get("criterion_tol", DEFAULT_CRITERION_TOL)
    )


def _quad_tol(cfg: dict, args) -> Optional[float]:
    if args.quad_tol is not None:
        return args.quad_tol
    t = cfg.get("analysis", {}).get("tolerances", {}).get("quad_rel_tol")
    return float(t) if t is not None else None


# -- commands -------------------------------------------------------------------

def cmd_solve(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    traj = solve(problem, rel_tol=_quad_tol(cfg, args))
    n_samples = int(cfg.get("output", {}).get("samples_per_interval", 64))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "trajectory.csv"

    grid = problem.grid
    k_end = grid.interval_index(problem.horizon)
    rows: List[str] = ["t,z,interval_k,is_knot,z_left,z_right"]
    for k in range(traj.k_start, k_end + 1):
        lo = problem.tau if k == traj.k_start else grid.knot(k)
        hi = min(grid.knot(k + 1), problem.horizon)
        if hi <= lo:
            continue
        for i in range(n_samples):
            t = lo + (hi - lo) * i / n_samples
            pt = traj._by_time.get(t)
            if pt is not None:
                z_left, z_right, is_knot = pt.z_left, pt.z_right, 1
            else:
                z_left = z_right = traj.value(t)
                is_knot = 0
            rows.append(
                f"{_fmt(t)},{_fmt(z_right)},{k},{is_knot},{_fmt(z_left)},{_fmt(z_right)}"
            )
    t = problem.horizon
    rows.append(
        f"{_fmt(t)},{_fmt(traj.value(t))},{k_end},"
        f"{1 if t in traj._by_time else 0},{_fmt(traj.value(t, 'left'))},{_fmt(traj.value(t))}"
    )
    out_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    zeros = traj.zero_list()
    final = traj.value(problem.horizon)
    print(
        f"knots={len(traj.points)} zeros={len(zeros)} final={_fmt(final)} "
        f"start_argument=\"{traj.metadata.get('start_argument', '')}\" out={out_path}"
    )
    return EXIT_OK


def cmd_classify(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    traj = solve(problem, rel_tol=_quad_tol(cfg, args))
    window = None
    if args.window:
        k0 = traj.k_start
        burn, width = args.window
        window = (k0 + burn, k0 + burn + width)
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "classify_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"verdict: {final.status}")
    for line in lines[1:]:
        print(line)
    return EXIT_OK


def cmd_criterion(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    if problem.grid.lagged:
        raise ConfigError(
            "criterion not extended to lagged grids; use the lagged solver and classify"
        )
    window = _analysis_window(cfg, args, problem)
    tol = _criterion_tol(cfg, args)
    rel_tol = _quad_tol(cfg, args)
    osc = aw_criterion(problem, window, tol, rel_tol)
    reports = [osc]
    if osc.verdict == "oscillatory":
        final = "oscillatory"
    else:
        non = nonosc_criterion(problem, window, tol, rel_tol)
        reports.append(non)
        final = "nonoscillatory" if non.verdict == "nonoscillatory" else "inconclusive"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = "\n".join(r.to_text() for r in reports)
    (out_dir / "criterion_report.txt").write_text(text, encoding="utf-8")
    print(f"verdict: {final}")
    for r in reports:
        print(
            f"{r.criterion}: {r.verdict} (branch={r.branch}, margin={r.margin:.6g})"
        )
    return EXIT_OK


def _sweep_quantity(problem: Problem, window, quantity: str, rel_tol) -> float:
    table = KernelTable(problem, rel_tol)
    vals = [table.criterion(k)[:2] for k in range(window[0], window[1])]
    i_plus = [v[0] for v in vals]
    i_minus = [v[1] for v in vals]
    return {
        "sup_i_plus": max(i_plus),
        "inf_i_plus": min(i_plus),
        "sup_i_minus": max(i_minus),
        "inf_i_minus": min(i_minus),
    }[quantity]


def cmd_sweep(cfg: dict, args) -> int:
    sweep = cfg.get("sweep")
    if not sweep:
        raise ConfigError("sweep section missing")
    pname = sweep.get("parameter")
    params = cfg.get("problem", {}).get("params", {})
    if pname not in params:
        raise ConfigError(f"sweep parameter {pname!r} not in problem params")
    lo, hi = float(sweep["lo"]), float(sweep["hi"])
    steps = int(sweep.get("steps", 11))
    if steps < 2:
        raise ConfigError("sweep needs steps >= 2")
    tol = _criterion_tol(cfg, args)
    rel_tol = _quad_tol(cfg, args)

    def make(value: float) -> Problem:
        return build_problem(cfg, {pname: value})

    window = _analysis_window(cfg, args, make(lo))
    rows = ["parameter,sup_i_plus,inf_i_plus,sup_i_minus,inf_i_minus,verdict"]
    for i in range(steps):
        v = lo + (hi - lo) * i / (steps - 1)
        problem = make(v)
        osc = aw_criterion(problem, window, tol, rel_tol)
        if osc.verdict == "oscillatory":
            verdict = "oscillatory"
        else:
            non = nonosc_criterion(problem, window, tol, rel_tol)
            verdict = "nonoscillatory" if non.verdict == "nonoscillatory" else "inconclusive"
        rows.append(
            f"{_fmt(v)},{_fmt(osc.sup_i_plus)},{_fmt(osc.inf_i_plus)},"
            f"{_fmt(osc.sup_i_minus)},{_fmt(osc.inf_i_minus)},{verdict}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    target = sweep.get("target")
    if not target:
        print(f"sweep: {steps} rows -> {out_dir / 'sweep.csv'}")
        return EXIT_OK
    quantity = target.get("quantity")
    if quantity not in _SWEEP_QUANTITIES:
        raise ConfigError(f"target.quantity must be one of {_SWEEP_QUANTITIES}")
    threshold = float(target["threshold"])
    xtol = float(target.get("xtol", 1e-6))

    def g(v: float) -> float:
        return _sweep_quantity(make(v), window, quantity, rel_tol) - threshold

    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        root = lo
    elif g_hi == 0.0:
        root = hi
    elif g_lo * g_hi > 0:
        print(f"sweep: {steps} rows -> {out_dir / 'sweep.csv'}")
        print("no crossing")
        return EXIT_NO_CROSSING
    else:
        a, b, ga = lo, hi, g_lo
        while b - a > xtol:
            m = 0.5 * (a + b)
            gm = g(m)
            if gm == 0.0:
                a = b = m
                break
            if ga * gm < 0:
                b = m
            else:
                a, ga = m, gm
        root = 0.5 * (a + b)
    print(f"sweep: {steps} rows -> {out_dir / 'sweep.csv'}")
    print(f"crossing: {pname}={root:.8f} ({quantity} = {threshold:g})")
    return EXIT_OK


def cmd_oracle_check(cfg: dict, args) -> int:
    problem = build_problem(cfg)
    if problem.grid.lagged:
        raise ConfigError("oracle check supports non-lagged grids only")
    acfg = cfg.get("analysis", {})
    steps = int(acfg.get("oracle_steps", 10_000))
    n_samples = int(acfg.get("check_samples", 100))
    check_tol = float(acfg.get("check_tol", 1e-6))
    traj = solve(problem, rel_tol=_quad_tol(cfg, args))
    otraj = oracle_integrate(problem, steps)
    span = problem.horizon - problem.tau
    if args.seed is not None:
        rng = random.Random(args.seed)
        ts = sorted(problem.tau + rng.random() * span for _ in range(n_samples))
    else:
        ts = [problem.tau + span * (i + 0.5) / n_samples for i in range(n_samples)]
    max_dev = 0.0
    worst_t = problem.tau
    for t in ts:
        zk = traj.value(t)
        zo = otraj.value(t)
        den = max(abs(zk), abs(zo))
        dev = abs(zk - zo) / den if den > 1e-12 else abs(zk - zo)
        if dev > max_dev:
            max_dev, worst_t = dev, t
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = (
        f"samples: {n_samples}\noracle_steps: {steps}\n"
        f"max_rel_dev: {max_dev:.6e}\nworst_t: {_fmt(worst_t)}\ntol: {check_tol:g}\n"
    )
    (out_dir / "oracle_check.txt").write_text(report, encoding="utf-8")
    print(f"max_rel_dev={max_dev:.6e} tol={check_tol:g}")
    return EXIT_OK if max_dev <= check_tol else EXIT_DEVIATION


# -- entry point -----------------------------------------------------------------

def _parse_window(text: str) -> Tuple[int, int]:
    try:
        burn, width = text.split(",")
        return int(burn), int(width)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --window K0,W") from exc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="idepcag",
        description="Solve and analyze impulsive equations with piecewise constant arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("classify", cmd_classify),
        ("criterion", cmd_criterion),
        ("sweep", cmd_sweep),
        ("oracle-check", cmd_oracle_check),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON problem file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--window", type=_parse_window, default=None, metavar="K0,W")
        p.add_argument("--tol", type=float, default=None, help="criterion strictness")
        p.add_argument("--quad-tol", type=float, default=None, help="quadrature rel tol")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized samples")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
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
