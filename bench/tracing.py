"""Spans at the package's module boundaries, for the traced run only.

:func:`installed` rebinds the public names in every module that imports
them (``idepcag.kernel.integrate``, ``KernelTable.e_value``, ...) to
wrappers that record a span per call, and restores the originals on
exit.  The untimed code under ``src/`` is not changed; the timed run never
installs the wrappers.

A span has a name, start, end, parent span and request id.  Self time is
the span's duration minus the time its child spans cover, worked out as
spans close.  Leaf spans with very high counts (``quadrature.integrate``
and friends) are not kept one by one but summed per (request, name,
parent name), which keeps calls, total and self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from collections import Counter, defaultdict
from typing import Dict, List, Optional

import idepcag.cli as cli
import idepcag.kernel as kernel
import idepcag.oracle as oracle
import idepcag.oscillation as oscillation
import idepcag.solver as solver

# summed per (request, name, parent name) instead of kept one by one
AGGREGATED = frozenset({
    "expressions.parse",
    "quadrature.integrate",
    "kernel.e_value",
    "kernel.e_at_knots",
    "kernel.criterion",
    "kernel.flow_weighted_integral",
    "solver.value",
    "oracle.value",
})

LAYERS = ("expressions", "quadrature", "kernel", "solver", "oscillation", "oracle", "cli")
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (id, name, parent id, request, start, end)
        self.leaves: Dict[tuple, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()  # outermost-call time per name
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()  # work counts that are not span calls
        self.request: Optional[str] = None
        self._stack: List[list] = []  # [id, name, start, child time]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._seen: Dict[str, weakref.WeakKeyDictionary] = defaultdict(weakref.WeakKeyDictionary)

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_time[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy[name] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if name in AGGREGATED:
            leaf = self.leaves[(self.request, name, parent[1] if parent else None)]
            leaf[0] += 1
            leaf[1] += dur
            leaf[2] += dur - child
        else:
            self.spans.append((sid, name, parent[0] if parent else None, self.request, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def note_key(self, name: str, table, k) -> None:
        """Count a call on (table, k) as a hit unless the key is first seen."""
        keys = self._seen[name].setdefault(table, set())
        if k in keys:
            self.counts[name + ".hits"] += 1
        else:
            keys.add(k)

    def write(self, path, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, parent, request, start, end in self.spans:
                fh.write(json.dumps({"pass": pass_index, "id": sid, "name": name,
                                     "parent": parent, "request": request,
                                     "start": start, "end": end}) + "\n")
            for (request, name, parent), (calls, total, self_s) in self.leaves.items():
                fh.write(json.dumps({"pass": pass_index, "name": name, "parent_name": parent,
                                     "request": request, "calls": calls, "total_s": total,
                                     "self_s": self_s}) + "\n")


def _wrap(tracer: Tracer, name, fn, after=None):
    """Span around ``fn``; ``name`` may be a function of the call's args."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result)
        return result

    return traced


def _wrap_integrate(tracer: Tracer, integrate):
    @functools.wraps(integrate)
    def traced(f, lo, hi, *args, **kwargs):
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        tracer.enter("quadrature.integrate")
        try:
            return integrate(counted, lo, hi, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.counts["quadrature.integrand_evals"] += evals

    return traced


def _bindings(tracer: Tracer):
    """(owner, attribute, wrapper) for every rebound name."""
    counts = tracer.counts
    KT, Traj = kernel.KernelTable, solver.Trajectory

    def count(key, n):
        counts[key] += n

    def keyed(name):
        return lambda args, result: tracer.note_key(name, args[0], args[1])

    init = KT.__init__

    @functools.wraps(init)
    def table_init(self, *args, **kwargs):
        counts["kernel.tables_built"] += 1
        init(self, *args, **kwargs)

    def value_layer(args):
        return "oracle.value" if isinstance(args[0], oracle._OracleTrajectory) else "solver.value"

    def solve_intervals(args, traj):
        problem = args[0]
        count("solver.solve.intervals",
              problem.grid.interval_index(problem.horizon) - traj.k_start + 1)

    rk4 = oracle._rk4_linear

    # private, so wrapped only to count the RK4 steps and record no span
    @functools.wraps(rk4)
    def rk4_linear(problem, nodes):
        counts["oracle.rk4_steps"] += len(nodes) - 1
        return rk4(problem, nodes)

    fwi = _wrap(tracer, "kernel.flow_weighted_integral", kernel.flow_weighted_integral)
    classify = "oscillation.classify"
    criterion = "oscillation.criterion"
    return [
        (cli, "parse_expression", _wrap(tracer, "expressions.parse", cli.parse_expression)),
        (oracle, "evaluate_array", _wrap(
            tracer, "expressions.evaluate_array", oracle.evaluate_array,
            lambda args, r: count("expressions.evaluate_array.points", len(args[1])))),
        (kernel, "integrate", _wrap_integrate(tracer, kernel.integrate)),
        (oscillation, "integrate", _wrap_integrate(tracer, oscillation.integrate)),
        (KT, "__init__", table_init),
        (KT, "e_value", _wrap(tracer, "kernel.e_value", KT.e_value)),
        (KT, "e_at_knots", _wrap(tracer, "kernel.e_at_knots", KT.e_at_knots,
                                 keyed("kernel.e_at_knots"))),
        (KT, "criterion", _wrap(tracer, "kernel.criterion", KT.criterion,
                                keyed("kernel.criterion"))),
        (kernel, "flow_weighted_integral", fwi),
        (solver, "flow_weighted_integral", fwi),
        (cli, "solve", _wrap(tracer, "solver.solve", cli.solve, solve_intervals)),
        (Traj, "value", _wrap(tracer, value_layer, Traj.value)),
        (Traj, "zero_list", _wrap(tracer, "solver.zero_list", Traj.zero_list,
                                  lambda args, r: count("solver.zero_list.roots", len(r)))),
        (cli, "classify_discrete", _wrap(tracer, classify, cli.classify_discrete)),
        (cli, "classify_continuous", _wrap(tracer, classify, cli.classify_continuous)),
        (cli, "aw_criterion", _wrap(tracer, criterion, cli.aw_criterion)),
        (cli, "nonosc_criterion", _wrap(tracer, criterion, cli.nonosc_criterion)),
        (cli, "oracle_integrate", _wrap(tracer, "oracle.integrate", cli.oracle_integrate)),
        (oracle, "_rk4_linear", rk4_linear),
        (cli, "build_problem", _wrap(tracer, "cli.build_problem", cli.build_problem)),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in _bindings(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, envelope: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are given as shares of the traced request time, the sum of the
    ``cli.main`` spans, which ``trace.request_s`` reports in seconds.  A
    layer that does not run on a workload has a share of exactly 0.
    ``envelope`` holds the spans of the output checks.
    """
    total = tracer.busy[ROOT]
    calls, busy, counts = tracer.calls, tracer.busy, tracer.counts

    def share(x):
        return x / total

    def hit_ratio(name):
        return counts[name + ".hits"] / calls[name] if calls[name] else 0.0

    out = {
        "expressions.parse.calls": calls["expressions.parse"],
        "expressions.evaluate_array.points": counts["expressions.evaluate_array.points"],
        "expressions.evaluate_array.busy_share": share(busy["expressions.evaluate_array"]),
        "quadrature.integrate.calls": calls["quadrature.integrate"],
        "quadrature.integrand_evals": counts["quadrature.integrand_evals"],
        "kernel.tables_built": counts["kernel.tables_built"],
        "kernel.e_value.calls": calls["kernel.e_value"],
        "kernel.e_value.busy_share": share(busy["kernel.e_value"]),
        "kernel.e_at_knots.hit_ratio": hit_ratio("kernel.e_at_knots"),
        "kernel.criterion.calls": calls["kernel.criterion"],
        "kernel.criterion.hit_ratio": hit_ratio("kernel.criterion"),
        "kernel.criterion.busy_share": share(busy["kernel.criterion"]),
        "kernel.flow_weighted_integral.calls": calls["kernel.flow_weighted_integral"],
        "solver.solve.busy_share": share(busy["solver.solve"]),
        "solver.solve.intervals": counts["solver.solve.intervals"],
        "solver.value.calls": calls["solver.value"],
        "solver.value.busy_share": share(busy["solver.value"]),
        "solver.zero_list.busy_share": share(busy["solver.zero_list"]),
        "solver.zero_list.roots": counts["solver.zero_list.roots"],
        "oscillation.classify.busy_share": share(busy["oscillation.classify"]),
        "oscillation.criterion.busy_share": share(busy["oscillation.criterion"]),
        "oscillation.envelope.busy_share": share(envelope.busy["oscillation.envelope"]),
        "oracle.integrate.busy_share": share(busy["oracle.integrate"]),
        "oracle.rk4_steps": counts["oracle.rk4_steps"],
        "cli.build_problem.busy_share": share(busy["cli.build_problem"]),
        "trace.request_s": total,
    }
    layer_self = Counter()
    for name, s in tracer.self_time.items():
        layer_self[name.split(".")[0]] += s
    for layer in LAYERS:
        out[f"{layer}.self_share"] = share(layer_self[layer])
    return out
