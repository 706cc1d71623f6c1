"""Guard and check mutants: each guard or argument check, once removed, fails its tests.

Copies ``src/`` to a temporary directory and runs two families of mutants
against the copy, one statement at a time turned into ``pass``:

- each ``raise InternalCheckError(...)`` statement must fail the rows of
  ``tests/test_guards.py``; guards listed in ``test_guards.UNREACHABLE``
  are skipped by their message;
- each call of an argument check (``_check_index``, ``_check_mask`` or
  ``_check_same_group``, see ``test_contract.check_sites``) must fail
  ``tests/test_contract.py``.

Exits 1 if the unmutated copy fails either test file or if any mutant passes.

Run from anywhere, with pytest and the package's dependencies installed:

    python tests/guard_mutants.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
# this checkout's package, ahead of any installed copy, and the test modules
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_contract import check_sites  # noqa: E402
from test_guards import UNREACHABLE, guard_sites  # noqa: E402

# family -> (its sites as (file, statement, label), the pytest arguments its mutants must fail)
FAMILIES = {
    "guard": (
        lambda src: [site for site in guard_sites(src) if site[2] not in UNREACHABLE],
        [str(TESTS / "test_guards.py"), "-k", "fires_on_its_fault"],
    ),
    "check": (
        lambda src: [(path, node, ast.unparse(node)) for path, node in check_sites(src)],
        [str(TESTS / "test_contract.py")],
    ),
}


def _tests_pass(src: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, env=env, cwd=src, capture_output=True, timeout=600).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(TESTS.parent / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        survivors = 0
        for family, (sites, tests) in FAMILIES.items():
            if not _tests_pass(src, tests):
                print(f"the unmutated copy fails {tests[0]}")
                return 1
            for path, node, label in sites(src / "nilenv"):
                where = f"{path.name}:{node.lineno}"
                original = path.read_text(encoding="utf-8")
                lines = original.splitlines(keepends=True)
                indent = lines[node.lineno - 1][: node.col_offset]
                lines[node.lineno - 1 : node.end_lineno] = [f"{indent}pass\n"]
                path.write_text("".join(lines), encoding="utf-8")
                try:
                    caught = not _tests_pass(src, tests)
                finally:
                    path.write_text(original, encoding="utf-8")
                survivors += not caught
                print(f"{'caught  ' if caught else 'SURVIVED'} {family} {where} {label}")
        print(f"{survivors} mutant(s) survived")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
