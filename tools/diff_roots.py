"""Compare the zeros, knot values and dense values of two source trees, config by config.

Usage::

    python tools/diff_roots.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are each a checkout (a directory holding
``src/idepcag``) or a ``src`` directory itself.  The configs are the
shipped ones under ``configs/`` and those of the ``varcoef_solve`` (seeds
1-10) and ``oracle_check`` (seeds 1-5) benchmark workloads, built by
``bench/workloads.py``.  Each tree solves every config in one fresh
interpreter and reports, as exact hex floats, the knot values (left limit
and post-jump value at each knot), the dense values at the rows of the
``solve`` command with 16 samples per interval (``cli._sample_times``) and
``Trajectory.zero_list()``.  For every config on a non-lagged grid it also
runs the oracle route, ``oracle_integrate`` at the config's
``oracle_steps``, and reports its knot values and its ``zero_list()``.
Root digits never reach the command line's output, and of the oracle only
``max_rel_dev``, to 7 digits, does, so ``tools/diff_cli.py`` cannot see
them; it sees knot and dense values only on the configs it is given.

One line per config whose knot count, value count or zero count on some
interval differs (or whose run raised a different error), the same for the
oracle route, then the share of bitwise-equal roots and the worst relative
difference among the rest, the shares of bitwise-equal solver knot values
and dense values, and those of the oracle's knot values and roots.  The
exit status is 1 on any count mismatch, of either route, and 2, before
any tree runs, on a usage error or a tree without the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import List

from diff_cli import ROOT, _source_path

SEEDS = {"varcoef_solve": range(1, 11), "oracle_check": range(1, 6)}

# run in each tree: configs as JSON on stdin; out, per config, the solver's knot
# values, dense values and zero list, and the oracle's knot values and zero list
# (None on a lagged grid), each or a part of it the error it raised instead
_CHILD = """
import json, sys
from idepcag import oracle_integrate, solve
from idepcag.cli import _sample_times, build_problem
from idepcag.oracle import DEFAULT_STEPS_PER_INTERVAL

def run(route):
    try:
        return route()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

def zeros(traj):
    return [[k, t.hex()] for k, t in traj.zero_list()]

def knots(traj):
    return [[pt.z_left.hex(), pt.z_right.hex()] for pt in traj.skeleton()]

def solver(p):
    traj = solve(p)
    values = run(lambda: [z.hex() for z in traj.values(_sample_times(traj, 16)[0])])
    return {"knots": knots(traj), "values": values, "zeros": run(lambda: zeros(traj))}

def oracle(p, steps):
    traj = oracle_integrate(p, steps)
    return {"knots": knots(traj), "values": [], "zeros": zeros(traj)}

out = []
for cfg in json.load(sys.stdin):
    steps = int(cfg.get("analysis", {}).get("oracle_steps", DEFAULT_STEPS_PER_INTERVAL))
    p = run(lambda: build_problem(cfg))
    if isinstance(p, str):
        out.append([p, None])
        continue
    oracle_run = None if p.grid.lagged else run(lambda: oracle(p, steps))
    out.append([run(lambda: solver(p)), oracle_run])
json.dump(out, sys.stdout)
"""


def _configs() -> List[Tuple[str, dict]]:
    """(name, config) of every config compared."""
    named = [(p.name, json.loads(p.read_text())) for p in sorted((ROOT / "configs").glob("*.json"))]
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # bench/ is read, never written
    import workloads

    for name, seeds in SEEDS.items():
        for seed in seeds:
            cfgs = getattr(workloads, name)(seed).configs
            named += [(f"{name} seed {seed} config {i}", cfg) for i, cfg in enumerate(cfgs)]
    return named


def _runs(src: str, configs: List[dict]) -> list:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        input=json.dumps(configs),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _intervals(zeros):
    """The interval of each zero, or the error a run raised."""
    return zeros if isinstance(zeros, str) else [k for k, _ in zeros]


def _size(values):
    return values if isinstance(values, str) else len(values)


def _shape(run):
    """A run's knot count, dense value count and the interval of each zero (a part
    the error it raised instead), its error, or None where it did not run."""
    if run is None or isinstance(run, str):
        return run
    return len(run["knots"]), _size(run["values"]), _intervals(run["zeros"])


def _bits(run) -> List[List[str]]:
    """A run's knot values, dense values and roots, as hex floats (the hex form of a
    finite float is unique, so equal strings are equal bits); none for a part that
    raised."""
    return [
        [z for pair in run["knots"] for z in pair],
        [] if isinstance(run["values"], str) else run["values"],
        [] if isinstance(run["zeros"], str) else [t for _, t in run["zeros"]],
    ]


def _relative(old: str, new: str) -> float:
    x, y = float.fromhex(old), float.fromhex(new)
    return abs(y - x) / max(abs(x), abs(y), sys.float_info.min)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/diff_roots.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = _source_path(argv[0]), _source_path(argv[1])
    names, configs = zip(*_configs())
    solver, oracle = Counter(), Counter()
    worst = 0.0
    for name, olds, news in zip(names, _runs(old_src, configs), _runs(new_src, configs)):
        for route, counts, old, new in zip(("", "oracle "), (solver, oracle), olds, news):
            if old is None and new is None:
                continue
            counts["configs"] += 1
            shapes = _shape(old), _shape(new)
            if shapes[0] != shapes[1]:
                counts["mismatches"] += 1
                print(f"{name}: {route}{shapes[0]} -> {shapes[1]}", flush=True)
            elif not isinstance(old, str):
                bits = _bits(old), _bits(new)
                for part, x, y in zip(("knots", "values", "roots"), *bits):
                    counts[part] += len(x)
                    counts[part + " equal"] += sum(a == b for a, b in zip(x, y))
                if not route:
                    worst = max([worst, *map(_relative, bits[0][2], bits[1][2])])
    share = f"{solver['roots equal'] / solver['roots']:.1%}" if solver["roots"] else "-"
    print(
        f"{len(configs)} configs, {solver['mismatches']} count mismatches; of {solver['roots']} "
        f"roots in configs with equal counts, {solver['roots equal']} bitwise equal ({share}), "
        f"worst relative difference {worst:.2g}"
    )
    print(
        f"solver route in configs with equal counts: {solver['knots equal']} of "
        f"{solver['knots']} knot values and {solver['values equal']} of {solver['values']} "
        f"dense values bitwise equal"
    )
    print(
        f"oracle route on {oracle['configs']} non-lagged configs, {oracle['mismatches']} count "
        f"mismatches; in configs with equal counts, {oracle['knots equal']} of {oracle['knots']} "
        f"knot values and {oracle['roots equal']} of {oracle['roots']} roots bitwise equal"
    )
    return 1 if solver["mismatches"] or oracle["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
