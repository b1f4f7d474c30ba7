"""tools/diff_roots.py tells a bad tree apart from a difference in roots."""

import subprocess
import sys
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
    summary = proc.stdout.splitlines()[-1]
    assert " 0 count mismatches;" in summary, summary
    assert "(100.0%), worst relative difference 0" in summary, summary
