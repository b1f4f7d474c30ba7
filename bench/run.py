"""Benchmark of the idepcag CLI, driven in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists): ``varcoef_solve``,
``oracle_check``, ``long_sweep``; ``smoke`` is a tiny mix for the
self-tests.  Each run pins the environment (no ``IDEPCAG_QUAD_TOL``, one
numpy thread), starts the workload in fresh processes and prints one
JSON object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median over several fresh processes of the time from start to ready),
``requests_per_s``, ``latency_p50_ms``, ``latency_p90_ms`` and
``peak_rss_mb``.  Times are scaled to a host of fixed speed with a
calibration loop timed on either side of each (see ``calibrate.py``).
With ``--trace 1`` they are the per-layer ones from traced passes, and
the shipped configs are verified as well.  A line
before the result records the environment.  Outputs go to a temporary
directory under ``.bench_out/``, removed at the end; traced runs leave
their spans in ``.bench_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

SETUP_SAMPLES = 3  # fresh processes that only set up, to time it
WORKER_TIMEOUT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pinned_environment() -> dict:
    env = dict(os.environ)
    # a stray tolerance would change the amount of quadrature work
    env.pop("IDEPCAG_QUAD_TOL", None)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, phase: str, tmp: Path, env: dict, deadline: float) -> tuple[float, dict]:
    """Start one fresh workload process; return (start time, its result)."""
    argv = [sys.executable, str(HERE / "harness.py"), "--phase", phase, "--tmp", str(tmp),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "idepcag" / "__init__.py").is_file():
        print(f"no idepcag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = pinned_environment()
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_out"))
    try:
        setup = []
        for i in range(0 if args.trace else SETUP_SAMPLES):
            before = calibrate.loop_s()
            started, res = run_worker(args, "setup", base / f"setup{i}", env, deadline)
            setup.append(calibrate.scaled(res["ready"] - started, before, calibrate.loop_s()))
        _, res = run_worker(args, "run", base / "run", env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    failures = res["warmup_failures"] + res["failures"] + res.get("verify_failures", [])
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup), **metrics}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    info = {k: v for k, v in res.items()
            if k not in ("metrics", "failures", "warmup_failures", "verify_failures", "ready")}
    info["setup_samples_s"] = setup
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def declared_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
