#!/usr/bin/env python3
"""Run the mutant table: each mutant in tests/mutants.json must fail its tests.

    python3 scripts/mutants.py

Each entry of the table names a file under src/, a snippet that must occur
in it exactly once, the snippet's replacement, and the pytest targets (test
files or node ids) expected to kill the mutant.  Each mutant is applied to
its own temporary copy of the repository, where its targets run with
`pytest -x` under a fixed timeout, two mutants at a time.  A mutant is
killed when pytest reports a failed test or a collection error.

Exits 1 when a snippet does not occur exactly once (a refactor must update
the table), when a mutant survives, or when a run times out or cannot
start its tests; otherwise 0.
"""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.json"
# seconds for one mutant's targets; the slowest entry takes well under a minute
TIMEOUT_S = 300
WORKERS = 2
# left out of each copy: version control, caches and benchmark scratch
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build", ".bench_work", "*.egg-info"
)


def _occurrences(mutant: dict) -> int:
    path = ROOT / mutant["file"]
    return path.read_text(encoding="utf-8").count(mutant["snippet"]) if path.is_file() else 0


def _run(mutant: dict) -> tuple[str, float]:
    """Apply ``mutant`` in a fresh copy and run its targets; return the outcome and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        path = copy / mutant["file"]
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["targets"]]
        start = time.perf_counter()
        try:
            result = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "TIMED OUT", time.perf_counter() - start
        seconds = time.perf_counter() - start
    # pytest exits 1 when a test failed and 2 on a collection error; 0 when all passed
    if result.returncode in (1, 2):
        return "killed", seconds
    if result.returncode == 0:
        return "SURVIVED", seconds
    return f"ERROR {result.returncode}", seconds


def main() -> int:
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    runnable = []
    for mutant in table:
        if (count := _occurrences(mutant)) == 1:
            runnable.append(mutant)
        else:
            print(f"STALE      {mutant['name']}: its snippet occurs {count} times in {mutant['file']}")
    killed = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for mutant, (outcome, seconds) in zip(runnable, pool.map(_run, runnable)):
            killed += outcome == "killed"
            print(f"{outcome:<10} {seconds:6.1f} s  {mutant['name']}", flush=True)
    print(f"{killed} of {len(table)} mutants killed")
    return 0 if killed == len(table) else 1


if __name__ == "__main__":
    sys.exit(main())
