"""tools/diff_cli.py tells a bad tree apart from a difference in output."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_without_the_package_is_a_usage_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diff_cli.py"), str(tmp_path), str(ROOT)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # 1 means "pairs differ"
    assert proc.stdout == ""  # no pair ran
    assert f"no idepcag package under {tmp_path}" in proc.stderr
