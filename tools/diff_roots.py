"""Compare the zeros two source trees find, config by config.

Usage::

    python tools/diff_roots.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are each a checkout (a directory holding
``src/idepcag``) or a ``src`` directory itself.  The configs are the
shipped ones under ``configs/`` and those of the ``varcoef_solve`` (seeds
1-10) and ``oracle_check`` (seeds 1-5) benchmark workloads, built by
``bench/workloads.py``.  Each tree solves every config in one fresh
interpreter and reports ``Trajectory.zero_list()``, roots as exact hex
floats.  Root digits never reach the command line's output, so
``tools/diff_cli.py`` cannot see them.

One line per config whose zero count differs on some interval (or whose
run raised a different error), then the share of bitwise-equal roots and
the worst relative difference among the rest.  The exit status is 1 on
any count mismatch and 2, before any tree runs, on a usage error or a
tree without the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

from diff_cli import ROOT, _source_path

SEEDS = {"varcoef_solve": range(1, 11), "oracle_check": range(1, 6)}

# run in each tree: configs as JSON on stdin, one zero list or error per config out
_CHILD = """
import json, sys
from idepcag import solve
from idepcag.cli import build_problem
out = []
for cfg in json.load(sys.stdin):
    try:
        out.append([[k, t.hex()] for k, t in solve(build_problem(cfg)).zero_list()])
    except Exception as exc:
        out.append(f"{type(exc).__name__}: {exc}")
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


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/diff_roots.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = _source_path(argv[0]), _source_path(argv[1])
    names, configs = zip(*_configs())
    mismatches = roots = equal = 0
    worst = 0.0
    for name, old, new in zip(names, _zeros(old_src, configs), _zeros(new_src, configs)):
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
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
