"""Output checks for every request, and the verify pass over shipped configs.

A request fails when it raises, returns another exit code than expected,
or its output disagrees with a reference that shares no quadrature code
with the package:

* ``solve``: every row of ``trajectory.csv`` has the pinned header and
  finite values and matches the RK4 reference of :mod:`reference`; where
  theta_hat < 1 the values also stay inside the package's Gronwall
  envelope.
* ``classify``: the knot sign changes match the reference's.
* ``oracle-check``: the reported ``max_rel_dev`` is at most ``check_tol``.
* ``sweep``: the crossing is within ``xtol`` of the closed-form crossing
  and every row's extrema match the closed form.
* ``criterion``: the reported extrema match the closed form.

Identical outputs of one request get the same verdict, so each distinct
output is checked once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path
from typing import Dict, List

import numpy as np

import idepcag.cli as cli
from idepcag.oscillation import GronwallBound

import reference

CSV_HEADER = "t,z,interval_k,is_knot,z_left,z_right"
SOLVE_REL_TOL = 1e-7  # against the interval's largest |z|
CLOSED_FORM_TOL = 1e-8  # absolute plus relative, on criterion integrals
ENVELOPE_SLACK = 1e-9

COMMANDS = ("solve", "classify", "criterion", "sweep", "oracle-check")
# documented exit codes of the shipped configs; every other pair exits 0
SHIPPED_EXIT = {
    # 2: config error, criterion / oracle check are not extended to lagged grids
    ("lagged_unit_delay", "criterion"): 2,
    ("lagged_unit_delay", "oracle-check"): 2,
    # 2: config error, no sweep section
    ("lagged_unit_delay", "sweep"): 2,
    ("constant_forcing_flip", "sweep"): 2,
    ("multiplier_chain", "sweep"): 2,
}


def _digest(out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _report_values(text: str) -> Dict[str, str]:
    """First value of each ``key: value`` line."""
    out: Dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


def _sweep_geometry(cfg: dict):
    pc = cfg["problem"]
    w = cfg["analysis"]["window"]
    return pc["params"], float(pc["grid"]["h"]), (int(w["burn_in"]), int(w["width"]))


def _extrema_mismatch(got, params, h, window) -> str:
    want = reference.window_extrema(params, h, window)
    for name, g, w in zip(("sup_i_plus", "inf_i_plus", "sup_i_minus", "inf_i_minus"), got, want):
        if not abs(g - w) <= CLOSED_FORM_TOL * (1.0 + abs(w)):
            return f"{name} = {g!r}, closed form {w!r}"
    return ""


def _bound(env: GronwallBound, t: float) -> float:
    try:
        return env.bound(t)
    except OverflowError:  # the envelope is past the float range, as theta_hat -> 1
        return math.inf


class Checker:
    def __init__(self, workload, envelope_tracer):
        self.workload = workload
        self.envelope_tracer = envelope_tracer
        self._verdicts: Dict[tuple, str] = {}

    def check(self, outcome) -> str:
        """Empty string when the output is correct, else the reason."""
        r = outcome.request
        key = (r, _digest(outcome.out_dir, outcome.stdout))
        if key not in self._verdicts:
            cfg = self.workload.configs[r.config]
            method = getattr(self, "_" + r.command.replace("-", "_"))
            try:
                self._verdicts[key] = method(outcome, cfg)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self._verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
        return self._verdicts[key]

    def _solve(self, outcome, cfg) -> str:
        lines = (outcome.out_dir / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != CSV_HEADER:
            return f"header {lines[0]!r}"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        if not np.all(np.isfinite(rows)):
            return "non-finite value in trajectory.csv"
        ref = self.workload.references[outcome.request.config]
        samples = cfg["output"]["samples_per_interval"]
        horizon = len(ref.dense)
        if rows.shape != (horizon * samples + 1, 6):
            return f"trajectory.csv has shape {rows.shape}"
        step = ref.steps // samples
        ks = np.repeat(np.arange(horizon), samples)
        knot = np.zeros(len(rows), dtype=bool)
        knot[::samples] = True
        t = np.append(ks + np.tile(np.arange(samples) / samples, horizon), horizon)
        z = np.append(np.concatenate([d[::step][:samples] for d in ref.dense]), ref.right[-1])
        z_left = z.copy()
        z_left[knot] = ref.left
        scales = [ref.scale(k) for k in range(horizon)]
        scale = np.array([max(scales[max(k - 1, 0)], scales[k]) for k in ks] + [scales[-1]])
        if not (np.array_equal(rows[:, 0], t) and np.array_equal(rows[:, 2], np.append(ks, horizon))
                and np.array_equal(rows[:, 3], knot.astype(float))):
            return "t / interval_k / is_knot columns differ from the sampling rule"
        for col, want in ((1, z), (4, z_left), (5, z)):
            dev = np.abs(rows[:, col] - want) / scale
            i = int(np.argmax(dev))
            if not dev[i] <= SOLVE_REL_TOL:
                return f"{CSV_HEADER.split(',')[col]} at t={rows[i, 0]!r} deviates {dev[i]:.3e} from the reference"
        if cfg["problem"]["grid"]["type"] == "lagged":
            return ""
        return self._envelope(cfg, rows)

    def _envelope(self, cfg, rows) -> str:
        with self.envelope_tracer.span("oscillation.envelope"):
            try:
                env = GronwallBound(cli.build_problem(cfg))
            except ValueError:  # theta_hat >= 1: no envelope to check against
                return ""
            bound = np.array([_bound(env, t) for t in rows[:, 0]])
        excess = np.maximum(np.abs(rows[:, 1]), np.abs(rows[:, 4])) / bound
        i = int(np.argmax(excess))
        if not excess[i] <= 1.0 + ENVELOPE_SLACK:
            return f"|z| at t={rows[i, 0]!r} exceeds the Gronwall envelope by {excess[i]:.6g}x"
        return ""

    def _classify(self, outcome, cfg) -> str:
        report = _report_values((outcome.out_dir / "classify_report.txt").read_text(encoding="utf-8"))
        signs = np.sign(self.workload.references[outcome.request.config].right)
        changes = [k for k in range(len(signs) - 1) if signs[k] * signs[k + 1] <= 0]
        want = ",".join(str(k) for k in changes[:32])
        if report.get("sign_changes", "") != want:
            return f"sign changes {report.get('sign_changes')!r}, reference {want!r}"
        if (report["discrete"] == "nonoscillatory") != (not changes):
            return f"discrete verdict {report['discrete']!r} with {len(changes)} sign changes"
        return ""

    def _oracle_check(self, outcome, cfg) -> str:
        report = _report_values((outcome.out_dir / "oracle_check.txt").read_text(encoding="utf-8"))
        dev, tol = float(report["max_rel_dev"]), cfg["analysis"]["check_tol"]
        if not dev <= tol:
            return f"max_rel_dev {dev!r} > check_tol {tol!r}"
        return ""

    def _criterion(self, outcome, cfg) -> str:
        report = _report_values((outcome.out_dir / "criterion_report.txt").read_text(encoding="utf-8"))
        got = [float(report[k]) for k in ("sup_i_plus", "inf_i_plus", "sup_i_minus", "inf_i_minus")]
        return _extrema_mismatch(got, *_sweep_geometry(cfg))

    def _sweep(self, outcome, cfg) -> str:
        params, h, window = _sweep_geometry(cfg)
        sweep = cfg["sweep"]
        lines = (outcome.out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        if len(lines) != sweep["steps"] + 1:
            return f"sweep.csv has {len(lines) - 1} rows, expected {sweep['steps']}"
        for line in lines[1:]:
            fields = line.split(",")
            q0 = float(fields[0])
            bad = _extrema_mismatch([float(x) for x in fields[1:5]], dict(params, q0=q0), h, window)
            if bad:
                return f"row q0={q0!r}: {bad}"
        target = sweep["target"]
        crossing = [ln for ln in outcome.stdout.splitlines() if ln.startswith("crossing: ")]
        if len(crossing) != 1:
            return "no crossing reported"
        got = float(crossing[0].split("=", 1)[1].split()[0])
        want = reference.sweep_crossing(params, h, window, target["threshold"])
        if not abs(got - want) <= target["xtol"]:
            return f"crossing q0={got!r}, closed form {want!r}"
        return ""


# -- shipped configs ------------------------------------------------------------------

def _invoke(argv: List[str], out_dir: Path):
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--out", str(out_dir)])
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, stdout.getvalue(), files


def verify_shipped(config_dir: Path, tmp: Path) -> List[str]:
    """Run every (command, shipped config) pair twice; list what is wrong.

    Each pair must return its documented exit code and write byte-identical
    output both times.
    """
    problems = []
    out_dir = tmp / "out"
    for path in sorted(config_dir.glob("*.json")):
        for command in COMMANDS:
            want = SHIPPED_EXIT.get((path.stem, command), 0)
            argv = [command, "--config", str(path)]
            first = _invoke(argv, out_dir)
            second = _invoke(argv, out_dir)
            if first[0] != want:
                problems.append(f"{path.stem} {command}: exit {first[0]}, documented {want}")
            if first != second:
                problems.append(f"{path.stem} {command}: output differs between two invocations")
    shutil.rmtree(tmp, ignore_errors=True)
    return problems
