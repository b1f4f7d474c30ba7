"""Compare the zeros two source trees find, config by config.

Usage::

    python tools/diff_roots.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are each a checkout (a directory holding
``src/idepcag``) or a ``src`` directory itself.  The configs are the
shipped ones under ``configs/`` and those of the ``varcoef_solve`` (seeds
1-10) and ``oracle_check`` (seeds 1-5) benchmark workloads, built by
``bench/workloads.py``.  Each tree solves every config in one fresh
interpreter and reports ``Trajectory.zero_list()``, roots as exact hex
floats.  For every config on a non-lagged grid it also runs the oracle
route, ``oracle_integrate`` at the config's ``oracle_steps``, and reports
its knot values (left limit and post-jump value at each knot) and its
``zero_list()``, all as hex floats.  Root digits never reach the command
line's output, and of the oracle only ``max_rel_dev``, to 7 digits, does,
so ``tools/diff_cli.py`` cannot see them.

One line per config whose zero count differs on some interval (or whose
run raised a different error), the same for the oracle route, then the
share of bitwise-equal roots and the worst relative difference among the
rest, and the shares of bitwise-equal oracle knot values and roots.  The
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
from typing import List, Tuple

from diff_cli import ROOT, _source_path

SEEDS = {"varcoef_solve": range(1, 11), "oracle_check": range(1, 6)}

# run in each tree: configs as JSON on stdin; out, per config, the solver's zero
# list or error and the oracle's knot values and zero list or error (None on a
# lagged grid)
_CHILD = """
import json, sys
from idepcag import oracle_integrate, solve
from idepcag.cli import build_problem
from idepcag.oracle import DEFAULT_STEPS_PER_INTERVAL

def run(route):
    try:
        return route()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

def zeros(traj):
    return [[k, t.hex()] for k, t in traj.zero_list()]

def oracle(p, steps):
    traj = oracle_integrate(p, steps)
    knots = [[pt.z_left.hex(), pt.z_right.hex()] for pt in traj.skeleton()]
    return {"knots": knots, "zeros": zeros(traj)}

out = []
for cfg in json.load(sys.stdin):
    steps = int(cfg.get("analysis", {}).get("oracle_steps", DEFAULT_STEPS_PER_INTERVAL))
    p = run(lambda: build_problem(cfg))
    if isinstance(p, str):
        out.append([p, None])
        continue
    oracle_run = None if p.grid.lagged else run(lambda: oracle(p, steps))
    out.append([run(lambda: zeros(solve(p))), oracle_run])
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


def _zeros(src: str, configs: List[dict]) -> list:
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


def _count(zeros) -> str:
    return zeros if isinstance(zeros, str) else f"{len(zeros)} zeros"


def _oracle_shape(run):
    """The oracle run's knot count and the interval of each zero, its error, or
    None where it did not run."""
    if run is None or isinstance(run, str):
        return run
    return len(run["knots"]), _intervals(run["zeros"])


def _oracle_values(run) -> Tuple[List[str], List[str]]:
    """The oracle run's knot values and roots, as hex floats (the hex form of a
    finite float is unique, so equal strings are equal bits)."""
    return [z for pair in run["knots"] for z in pair], [t for _, t in run["zeros"]]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/diff_roots.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = _source_path(argv[0]), _source_path(argv[1])
    names, configs = zip(*_configs())
    mismatches = roots = equal = 0
    worst = 0.0
    oracle = Counter()
    for name, (old, old_oracle), (new, new_oracle) in zip(
        names, _zeros(old_src, configs), _zeros(new_src, configs)
    ):
        if old_oracle is not None or new_oracle is not None:
            oracle["configs"] += 1
            shapes = _oracle_shape(old_oracle), _oracle_shape(new_oracle)
            if shapes[0] != shapes[1]:
                oracle["mismatches"] += 1
                print(f"{name}: oracle {shapes[0]} -> {shapes[1]}", flush=True)
            elif not isinstance(old_oracle, str):
                olds, news = _oracle_values(old_oracle), _oracle_values(new_oracle)
                for part, x, y in zip(("knots", "roots"), olds, news):
                    oracle[part] += len(x)
                    oracle[part + " equal"] += sum(a == b for a, b in zip(x, y))
        if _intervals(old) != _intervals(new):
            mismatches += 1
            print(f"{name}: {_count(old)} -> {_count(new)}", flush=True)
        elif not isinstance(old, str):
            for (_, t_old), (_, t_new) in zip(old, new):
                x, y = float.fromhex(t_old), float.fromhex(t_new)
                roots += 1
                equal += x == y
                worst = max(worst, abs(y - x) / max(abs(x), abs(y), sys.float_info.min))
    share = f"{equal / roots:.1%}" if roots else "-"
    print(
        f"{len(configs)} configs, {mismatches} count mismatches; of {roots} roots in configs "
        f"with equal counts, {equal} bitwise equal ({share}), worst relative difference {worst:.2g}"
    )
    print(
        f"oracle route on {oracle['configs']} non-lagged configs, {oracle['mismatches']} count "
        f"mismatches; in configs with equal counts, {oracle['knots equal']} of {oracle['knots']} "
        f"knot values and {oracle['roots equal']} of {oracle['roots']} roots bitwise equal"
    )
    return 1 if mismatches or oracle["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
