"""One workload process: set up, run the closed loop, check every output.

Started by ``run.py`` in a fresh interpreter with a pinned environment;
prints one JSON object as the last line of its standard output.

``--phase setup`` stops once the process is ready (package imported,
configs generated, warm-up requests done) and reports when that was.
``--phase run`` goes on to either the timed phase (``--trace 0``) or the
traced passes (``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import idepcag  # noqa: E402
import idepcag.cli as cli  # noqa: E402
import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a run that reaches neither the run time nor the minimum request count by
# then stops anyway, to stay well inside the 180 s a run may take
HARD_STOP_S = 120.0


@dataclass
class Outcome:
    request: workloads.Request
    out_dir: Path
    stdout: str
    latency_s: float
    error: str = ""


class Session:
    """A generated workload with its config files written under ``tmp``."""

    def __init__(self, workload: workloads.Workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.config_paths: List[Path] = []
        (tmp / "configs").mkdir(parents=True)
        for i, cfg in enumerate(workload.configs):
            path = tmp / "configs" / f"{workload.name}-{i}.json"
            path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            self.config_paths.append(path)
        self._next = 0

    def execute(self, request: workloads.Request, tracer: tracing.Tracer | None = None) -> Outcome:
        out_dir = self.tmp / "out" / str(self._next)
        self._next += 1
        argv = [request.command, "--config", str(self.config_paths[request.config]),
                "--out", str(out_dir), *request.args]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        code: Optional[int] = None
        span = tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext()
        if tracer:
            tracer.request = str(self._next - 1)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
                code = cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code}): {stderr.getvalue().strip()}"
        except Exception as exc:  # a crash of the program counts as a failed request
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if not error and code != request.expected_exit:
            error = f"exit {code}, expected {request.expected_exit}: {stderr.getvalue().strip()}"
        return Outcome(request, out_dir, stdout.getvalue(), latency, error)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> List[Outcome]:
        return [self.execute(r, tracer) for r in self.workload.requests]


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _check_all(session: Session, outcomes: List[Outcome], envelope: tracing.Tracer) -> List[str]:
    checker = checks.Checker(session.workload, envelope)
    failures = []
    for n, o in enumerate(outcomes):
        reason = o.error or checker.check(o)
        if reason:
            failures.append(f"request {n} ({o.request.command} config {o.request.config}): {reason}")
    return failures


def timed_run(session: Session, seconds: float) -> dict:
    """Closed loop over whole passes until ``seconds`` and the minimum count
    are reached, so every run times the same mix of requests.

    A calibration loop runs before the first request and after each one;
    the timing metrics use every latency scaled by the loops on either
    side (see :mod:`calibrate`).  The plain wall figures go to the info line.
    """
    requests = session.workload.requests
    outcomes: List[Outcome] = []
    loops = [calibrate.loop_s()]
    start = time.perf_counter()
    elapsed = 0.0
    while (elapsed < seconds or len(outcomes) < session.workload.min_requests
           or len(outcomes) % len(requests)) and elapsed < HARD_STOP_S:
        outcomes.append(session.execute(requests[len(outcomes) % len(requests)]))
        loops.append(calibrate.loop_s())
        elapsed = time.perf_counter() - start
    peak_rss = _peak_rss_mb()
    wall = [o.latency_s for o in outcomes]
    latencies = [calibrate.scaled(w, b, a) for w, b, a in zip(wall, loops, loops[1:])]
    failures = _check_all(session, outcomes, tracing.Tracer())
    return {
        "attempted": len(outcomes),
        "failures": failures,
        "metrics": {
            "requests_per_s": len(outcomes) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * _percentile(latencies, 0.9),
            "peak_rss_mb": peak_rss,
        },
        "timed_s": elapsed,
        "wall_requests_per_s": len(outcomes) / elapsed,
        "wall_latency_p50_ms": 1e3 * statistics.median(wall),
        "wall_latency_p90_ms": 1e3 * _percentile(wall, 0.9),
        "calibration_loop_ms": 1e3 * statistics.median(loops),
    }


def traced_run(session: Session, seconds: float, trace_path: Path) -> dict:
    """Pairs of (untraced, traced) passes over the same requests.

    Every pass runs the same fixed requests, so the counts repeat exactly;
    per-layer figures are the (low) median over the pairs, so each is a
    value one pass measured.
    """
    trace_path.write_text("", encoding="utf-8")
    per_pass: List[Dict[str, float]] = []
    outcomes: List[Outcome] = []
    failures: List[str] = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        plain = session.run_pass()
        t1 = time.perf_counter()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = session.run_pass(tracer)
        t2 = time.perf_counter()
        tracer.write(trace_path, len(per_pass))
        envelope = tracing.Tracer()
        failures += _check_all(session, plain + traced, envelope)
        metrics = tracing.layer_metrics(tracer, envelope)
        metrics["trace_overhead_ratio"] = (t2 - t1) / (t1 - t0)
        per_pass.append(metrics)
        outcomes += plain + traced
    return {
        "attempted": len(outcomes),
        "failures": failures,
        "verify_failures": checks.verify_shipped(ROOT / "configs", session.tmp / "verify"),
        "metrics": {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]},
        "pairs": len(per_pass),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def _git_sha() -> Optional[str]:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "idepcag": idepcag.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)
    if Path(idepcag.__file__).resolve().parent != ROOT / "src" / "idepcag":
        print(f"imported idepcag from {idepcag.__file__}, not from this checkout", file=sys.stderr)
        return 2

    session = Session(workloads.WORKLOADS[args.workload](args.seed), args.tmp)
    warmup_failures = _check_all(
        session, [session.execute(r) for r in session.workload.warmup], tracing.Tracer()
    )
    result = {"ready": time.monotonic(), "warmup_failures": warmup_failures}
    if args.phase == "run":
        if args.trace:
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            result.update(traced_run(session, args.seconds, trace_path))
        else:
            result.update(timed_run(session, args.seconds))
        result["environment"] = environment(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
