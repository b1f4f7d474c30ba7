"""tools/diff_roots.py tells a bad tree apart from a difference in roots."""

import json
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_without_the_package_is_a_usage_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diff_roots.py"), str(tmp_path), str(ROOT)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # 1 means "zero counts differ"
    assert proc.stdout == ""  # no tree ran
    assert f"no idepcag package under {tmp_path}" in proc.stderr


def test_a_tree_against_itself_matches_bitwise():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diff_roots.py"), str(ROOT), str(ROOT / "src")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary, solver, oracle = proc.stdout.splitlines()[-3:]
    assert " 0 count mismatches;" in summary, summary
    assert "(100.0%), worst relative difference 0" in summary, summary
    knots, knots_total, values, values_total = _solver_counts(solver)
    assert knots == knots_total > 0 and values == values_total > 0, solver
    knots, knots_total, roots, roots_total = _oracle_counts(oracle)
    assert knots == knots_total > 0 and roots == roots_total > 0, oracle


def _solver_counts(line):
    """(equal, total) of the solver's knot values, then of its dense values."""
    m = re.search(r": (\d+) of (\d+) knot values and (\d+) of (\d+) dense values", line)
    assert m, line
    return tuple(map(int, m.groups()))


def _oracle_counts(line):
    """(equal, total) of the oracle knot values, then of its roots."""
    m = re.search(r" 0 count mismatches; .* (\d+) of (\d+) knot values and (\d+) of (\d+) roots", line)
    assert m, line
    return tuple(map(int, m.groups()))


def test_the_config_list_annotation_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import diff_roots

    want = typing.List[typing.Tuple[str, dict]]
    assert typing.get_type_hints(diff_roots._configs)["return"] == want


def _one_config(monkeypatch):
    """tools/diff_roots.py as a module, its configs cut down to one shipped config:
    a non-lagged one with roots, whose oracle and solver values both move."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import diff_roots

    config = json.loads((ROOT / "configs" / "sine_forcing.json").read_text())
    monkeypatch.setattr(diff_roots, "_configs", lambda: [("sine_forcing.json", config)])
    return diff_roots


def test_an_oracle_that_moves_by_an_ulp_shows_in_its_knot_values(tmp_path, monkeypatch, capsys):
    # the oracle's bits never reach the command line but for a 7-digit deviation
    shutil.copytree(ROOT / "src" / "idepcag", tmp_path / "idepcag")
    with open(tmp_path / "idepcag" / "oracle.py", "a") as module:
        module.write(
            "\n_exact = _rk4_linear\n\n\n"
            "def _rk4_linear(problem, nodes):\n"
            "    A, B = _exact(problem, nodes)\n"
            "    return A * (1.0 + 2.0 ** -50), B\n"
        )
    _one_config(monkeypatch).main([str(ROOT), str(tmp_path)])
    summary, solver, oracle = capsys.readouterr().out.splitlines()[-3:]
    assert "(100.0%), worst relative difference 0" in summary, summary  # the solver is untouched
    knots, knots_total, _, _ = _oracle_counts(oracle)
    assert knots < knots_total, oracle


def test_a_solver_that_moves_by_an_ulp_shows_in_its_knot_values(tmp_path, monkeypatch, capsys):
    # tools/diff_cli.py sees the solver's values only on the configs it is given;
    # this tool compares them on every config, the benchmark's too
    shutil.copytree(ROOT / "src" / "idepcag", tmp_path / "idepcag")
    with open(tmp_path / "idepcag" / "solver.py", "a") as module:
        module.write(
            "\n_exact = _scaled\n\n\n"
            "def _scaled(*args):\n"
            "    v, x = _exact(*args)\n"
            "    return v * (1.0 + 2.0 ** -50), x\n"
        )
    _one_config(monkeypatch).main([str(ROOT), str(tmp_path)])
    out = capsys.readouterr().out
    knots, knots_total, values, values_total = _solver_counts(out.splitlines()[-2])
    assert knots < knots_total and values < values_total, out


def test_the_envelope_line_counts_equal_bounds_and_signs_the_worst_move(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import diff_roots

    one, up, inf = (1.0).hex(), (1.0 + 2.0 ** -40).hex(), float("inf").hex()
    pairs = [
        ([one, one], [one, up]),  # one bound moves up by 2^-40
        ([inf], [inf]),
        (None, None),  # theta_hat >= 1 in both trees
        (None, [one]),  # an envelope in the new tree only
        ("OverflowError: x", "OverflowError: x"),
    ]
    line = diff_roots._envelope_line(pairs)
    assert line.startswith("envelope on 2 configs with theta_hat < 1 in both trees (1 with"), line
    assert "2 of 3 bounds bitwise equal, worst relative difference +9.1e-13" in line, line
    assert diff_roots._relative(one, inf) == 1.0 and diff_roots._relative(up, one) < 0.0
