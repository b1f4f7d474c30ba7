"""Self-tests of the benchmark: result schema, repeatable counts, live checks.

No timing bounds, so they cannot flake on a slow machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from idepcag.kernel import KernelTable

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_run_prints_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced_counts(tmp: Path) -> dict:
    session = harness.Session(workloads.smoke(7), tmp)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        outcomes = session.run_pass(tracer)
    assert not [o.error for o in outcomes if o.error]
    metrics = tracing.layer_metrics(tracer, tracing.Tracer())
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    return {name: metrics[name] for name in counts}


def test_traced_counts_repeat_exactly(tmp_path):
    original = KernelTable.e_value
    first = _traced_counts(tmp_path / "a")
    assert KernelTable.e_value is original  # wrappers are removed again
    second = _traced_counts(tmp_path / "b")
    assert first == second
    for name in ("quadrature.integrand_evals", "oracle.rk4_steps", "kernel.tables_built"):
        assert first[name] > 0


@pytest.fixture(scope="module")
def smoke_outcomes(tmp_path_factory):
    session = harness.Session(workloads.smoke(11), tmp_path_factory.mktemp("smoke"))
    outcomes = session.run_pass()
    return session, {o.request.command: o for o in outcomes}


def _rewrite_value(path: Path, key: str, new: float) -> None:
    """Replace the value of the first ``key: value`` line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(n for n, line in enumerate(lines) if line.startswith(key + ": "))
    lines[i] = f"{key}: {new!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_checks_pass_on_program_output(smoke_outcomes):
    session, outcomes = smoke_outcomes
    assert harness._check_all(session, list(outcomes.values()), tracing.Tracer()) == []


@pytest.mark.parametrize("command", ["solve", "oracle-check", "sweep", "criterion"])
def test_checks_catch_a_wrong_output(smoke_outcomes, command):
    session, outcomes = smoke_outcomes
    outcome = outcomes[command]
    if command == "solve":
        path = outcome.out_dir / "trajectory.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        row = lines[20].split(",")
        row[1] = repr(float(row[1]) * (1 + 1e-5))
        lines[20] = ",".join(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif command == "oracle-check":
        _rewrite_value(outcome.out_dir / "oracle_check.txt", "max_rel_dev", 2e-6)
    elif command == "sweep":
        outcome.stdout = outcome.stdout.replace("crossing: q0=", "crossing: q0=1")
    else:
        path = outcome.out_dir / "criterion_report.txt"
        report = dict(line.split(": ", 1) for line in path.read_text().splitlines())
        _rewrite_value(path, "inf_i_minus", float(report["inf_i_minus"]) + 1e-6)
    assert harness._check_all(session, [outcome], tracing.Tracer())
