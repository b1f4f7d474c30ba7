"""The shipped configs must run end to end through their natural commands."""

from pathlib import Path

import pytest

from idepcag.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CASES = [
    ("constant_forcing_flip.json", "classify", "verdict: oscillatory"),
    ("decay_with_floor.json", "criterion", "verdict: oscillatory"),
    ("decay_with_floor.json", "sweep", "crossing: q0=0.58"),
    ("lagged_unit_delay.json", "classify", "verdict: oscillatory"),
    ("multiplier_chain.json", "solve", "knots=21"),
    ("sine_forcing.json", "criterion", "verdict: oscillatory"),
    ("sine_forcing.json", "sweep", "crossing: a0=2.0755"),
    ("sine_forcing.json", "oracle-check", "max_rel_dev="),
]


@pytest.mark.parametrize("name,command,expected", CASES)
def test_shipped_config(name, command, expected, tmp_path, capsys):
    code = main([command, "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)])
    assert code == 0
    assert expected in capsys.readouterr().out


COMMANDS = ("solve", "classify", "criterion", "sweep", "oracle-check")

# (config, command) -> (exit code, summary token).  On exit 0 the token is
# looked for in stdout, otherwise in stderr.  Only verdicts, counts and
# crossings are pinned, not digits of final values or deviations.
PINNED = {
    ("constant_forcing_flip.json", "solve"): (0, "knots=51 zeros=0 "),
    ("constant_forcing_flip.json", "classify"): (0, "verdict: oscillatory\n"),
    ("constant_forcing_flip.json", "criterion"): (0, "verdict: oscillatory\n"),
    ("constant_forcing_flip.json", "sweep"): (2, "config error: sweep section missing"),
    ("constant_forcing_flip.json", "oracle-check"): (0, "max_rel_dev="),
    ("decay_with_floor.json", "solve"): (0, "knots=81 zeros=80 "),
    ("decay_with_floor.json", "classify"): (0, "verdict: oscillatory\n"),
    ("decay_with_floor.json", "criterion"): (0, "verdict: oscillatory\n"),
    ("decay_with_floor.json", "sweep"): (0, "crossing: q0=0.58197699 "),
    ("decay_with_floor.json", "oracle-check"): (0, "max_rel_dev="),
    ("lagged_unit_delay.json", "solve"): (0, "knots=51 zeros=18 "),
    ("lagged_unit_delay.json", "classify"): (0, "verdict: oscillatory\n"),
    ("lagged_unit_delay.json", "criterion"): (
        2, "config error: criterion not extended to lagged grids"),
    ("lagged_unit_delay.json", "sweep"): (2, "config error: sweep section missing"),
    ("lagged_unit_delay.json", "oracle-check"): (
        2, "config error: oracle check supports non-lagged grids only"),
    ("multiplier_chain.json", "solve"): (0, "knots=21 zeros=0 "),
    ("multiplier_chain.json", "classify"): (0, "verdict: oscillatory\n"),
    ("multiplier_chain.json", "criterion"): (0, "verdict: oscillatory\n"),
    ("multiplier_chain.json", "sweep"): (2, "config error: sweep section missing"),
    ("multiplier_chain.json", "oracle-check"): (0, "max_rel_dev="),
    ("sine_forcing.json", "solve"): (0, "knots=61 zeros=60 "),
    ("sine_forcing.json", "classify"): (0, "verdict: oscillatory\n"),
    ("sine_forcing.json", "criterion"): (0, "verdict: oscillatory\n"),
    ("sine_forcing.json", "sweep"): (0, "crossing: a0=2.07553339 "),
    ("sine_forcing.json", "oracle-check"): (0, "max_rel_dev="),
}


def test_pins_cover_every_shipped_config_and_command():
    shipped = {path.name for path in CONFIG_DIR.glob("*.json")}
    assert set(PINNED) == {(name, command) for name in shipped for command in COMMANDS}


@pytest.mark.parametrize("name,command", sorted(PINNED))
def test_shipped_config_summary_is_pinned(name, command, tmp_path, capsys):
    expected_code, token = PINNED[(name, command)]
    code = main([command, "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == expected_code
    assert token in (captured.out if code == 0 else captured.err)


def test_multiplier_chain_matches_power_law(tmp_path, capsys):
    code = main(
        ["solve", "--config", str(CONFIG_DIR / "multiplier_chain.json"), "--out", str(tmp_path)]
    )
    assert code == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    for row in rows:
        t, z, k = row.split(",")[:3]
        expected = (-0.9) ** int(k) * (-19.0)
        assert float(z) == pytest.approx(expected, rel=1e-9)
