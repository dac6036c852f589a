"""Run the mutation catalogue (``catalogue.py``): every mutant must fail a test.

    python tests/mutants/run.py

For each entry the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a new temporary directory, applies the entry's one
replacement there, and runs ``pytest -x -q`` on the entry's test files
inside that copy, with the copy's ``src`` first on the path, so the
repository's own ``src/`` cannot shadow the mutant.  It prints ``killed`` when a test fails, ``survived`` when all pass, and
``stale`` when the old text is absent from its file or occurs more than
once.  The exit status is 1 if any entry is not killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from catalogue import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 900


def run(mutant: Mutant) -> str:
    text = (ROOT / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        return f"stale ({text.count(mutant.old)} matches of the old text in {mutant.file})"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / mutant.file).write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed (timed out after {TIMEOUT_S} s)"
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"error (pytest exit {done.returncode}):\n{done.stdout}{done.stderr}"


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        verdict = run(mutant)
        print(f"{mutant.name}: {verdict}", flush=True)
        failed += not verdict.startswith("killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
