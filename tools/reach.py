"""List the functions of the package that no CLI command enters.

Usage::

    python tools/reach.py

Runs every command of the CLI in this interpreter, on every shipped config
under ``configs/`` and on the seed-1 configs of each benchmark workload
built by ``bench/workloads.py``, under a ``sys.setprofile`` hook that is
installed before the package is imported.  Then prints, one line each as
``module.py:line qualified.name``, every named function defined in
``src/idepcag`` (lambdas and comprehensions aside) whose code the hook never
saw called, and a count.  A report, not a gate: the exit status is 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "idepcag"
COMMANDS = ("solve", "classify", "criterion", "sweep", "oracle-check")
WORKLOADS = ("varcoef_solve", "oracle_check", "long_sweep")


def _configs() -> List[dict]:
    """Every config run."""
    configs = [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # bench/ is read, never written
    import workloads

    for name in WORKLOADS:
        configs += getattr(workloads, name)(1).configs
    return configs


def _defined() -> List[Tuple[str, int, str]]:
    """(file, first line, qualified name) of every named function in the package;
    the first line is that of the code object, the first decorator's if any."""
    found = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((str(path), first, prefix + child.name))
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "")
    return found


def _entered(configs: List[dict]) -> Set[Tuple[str, int]]:
    """(file, first line) of every code object called while the commands run."""
    seen: Set[Tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        from idepcag.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            for i, cfg in enumerate(configs):
                path = Path(tmp) / f"config{i}.json"
                path.write_text(json.dumps(cfg))
                for command in COMMANDS:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    finally:
        sys.setprofile(before)
    return {(str(Path(path).resolve()), line) for path, line in seen}


def main() -> int:
    configs = _configs()
    entered = _entered(configs)
    defined = _defined()
    missed = [(path, line, name) for path, line, name in defined if (path, line) not in entered]
    for path, line, name in missed:
        print(f"{Path(path).name}:{line} {name}")
    print(
        f"{len(missed)} of {len(defined)} functions in src/idepcag entered by no command "
        f"({len(COMMANDS)} commands on {len(configs)} configs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
