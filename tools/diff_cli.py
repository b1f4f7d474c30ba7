"""Compare the CLI output of two source trees, command by command.

Usage::

    python tools/diff_cli.py OLD_SRC NEW_SRC [CONFIG...]

OLD_SRC and NEW_SRC are each a checkout (a directory holding
``src/idepcag``) or a ``src`` directory itself.  Every command of the CLI
runs on every shipped config under ``configs/`` and on any extra CONFIG
given, once per tree, each run in a fresh interpreter with
``PYTHONDONTWRITEBYTECODE=1`` and its own temporary ``--out`` directory.
The output directory is masked in stdout and stderr, then the exit code,
stdout, stderr and the bytes of every output file are compared.  One line
per (command, config) pair; the exit status is 1 when any pair differs
and 2, before any pair runs, on a usage error or a tree without the
package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("solve", "classify", "criterion", "sweep", "oracle-check")
MASK = "<out>"


def _source_path(tree: str) -> str:
    path = Path(tree).resolve()
    if (path / "src" / "idepcag").is_dir():
        path = path / "src"
    if not (path / "idepcag").is_dir():
        print(f"no idepcag package under {tree}", file=sys.stderr)
        sys.exit(2)
    return str(path)


def _run(src: str, command: str, config: Path) -> Tuple[int, str, str, Dict[str, bytes]]:
    """(exit code, stdout, stderr, output files) of one CLI run."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "idepcag", command, "--config", str(config), "--out", out],
            env=env,
            capture_output=True,
            text=True,
        )
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(Path(out).rglob("*"))
            if p.is_file()
        }
        return (
            proc.returncode,
            proc.stdout.replace(out, MASK),
            proc.stderr.replace(out, MASK),
            files,
        )


def _differences(old, new) -> List[str]:
    names = ("exit code", "stdout", "stderr")
    found = [name for name, x, y in zip(names, old, new) if x != y]
    old_files, new_files = old[3], new[3]
    for name in sorted(set(old_files) | set(new_files)):
        if old_files.get(name) != new_files.get(name):
            found.append(name)
    return found


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: python tools/diff_cli.py OLD_SRC NEW_SRC [CONFIG...]", file=sys.stderr)
        return 2
    old_src, new_src = _source_path(argv[0]), _source_path(argv[1])
    configs = sorted((ROOT / "configs").glob("*.json")) + [Path(c).resolve() for c in argv[2:]]
    differing = 0
    for config in configs:
        for command in COMMANDS:
            old = _run(old_src, command, config)
            new = _run(new_src, command, config)
            found = _differences(old, new)
            differing += bool(found)
            status = "differs: " + ", ".join(found) if found else "identical"
            print(f"{command:12} {config.name}: exit {old[0]} -> {new[0]}, {status}", flush=True)
    print(f"{len(configs) * len(COMMANDS)} pairs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
