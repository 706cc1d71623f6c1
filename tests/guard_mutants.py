"""Guard mutants: each InternalCheckError guard, once removed, fails its row in test_guards.py.

Copies ``src/`` to a temporary directory, then, one guard at a time, turns
its ``raise InternalCheckError(...)`` statement into ``pass`` and runs the
rows of ``tests/test_guards.py`` against the copy.  Guards listed in
``test_guards.UNREACHABLE`` are skipped by their message.  Exits 1
if the unmutated copy fails or if any mutant passes.

Run from anywhere, with pytest and the package's dependencies installed:

    python tests/guard_mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
# this checkout's package, ahead of any installed copy, and the guard rows
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_guards import UNREACHABLE, guard_sites  # noqa: E402


def _rows_pass(src: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        str(TESTS / "test_guards.py"), "-k", "fires_on_its_fault",
    ]
    return subprocess.run(command, env=env, cwd=src, capture_output=True).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(TESTS.parent / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not _rows_pass(src):
            print("the unmutated copy fails tests/test_guards.py")
            return 1
        survivors = 0
        for path, node, message in guard_sites(src / "nilenv"):
            where = f"{path.name}:{node.lineno}"
            if message in UNREACHABLE:
                print(f"skip     {where} {message}")
                continue
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            indent = lines[node.lineno - 1][: node.col_offset]
            lines[node.lineno - 1 : node.end_lineno] = [f"{indent}pass\n"]
            path.write_text("".join(lines), encoding="utf-8")
            try:
                caught = not _rows_pass(src)
            finally:
                path.write_text(original, encoding="utf-8")
            survivors += not caught
            print(f"{'caught  ' if caught else 'SURVIVED'} {where} {message}")
        print(f"{survivors} mutant(s) survived")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
