"""tools/reach.py lists the functions that no command enters."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_an_unreached_method_is_listed_and_the_solve_is_not(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import reach

    config = json.loads((ROOT / "configs" / "sine_forcing.json").read_text())
    monkeypatch.setattr(reach, "_configs", lambda: [config])
    assert reach.main() == 0
    *listed, summary = capsys.readouterr().out.splitlines()
    names = {line.split()[1] for line in listed}
    assert "GronwallBound.bound" in names  # read by the benchmark's checks alone
    assert "solve" not in names
    assert summary.endswith("entered by no command (5 commands on 1 configs)"), summary
