"""Kept mutants of the source, each run against the tests that must kill it.

Run from anywhere inside the repository:

    python3 tools/mutants.py

The list is `tools/mutants.json`. Each entry gives a `name`, a `file`,
an `old` string that occurs exactly once in that file, the `new` string
that replaces it, the `tests` to run (pytest paths or node ids), and
optionally `equivalent`: why no test can tell that mutant from the
original.

HEAD's committed files are exported with `git archive` into a temporary
directory, so local edits play no part. Each distinct set of tests first
runs there unmutated and must pass. Then each mutant is written into its
file, its tests run with `-x`, and the file is put back. A mutant is
killed when its tests fail or cannot import the mutated code.

The script exits 1 when a mutant not marked equivalent survives, when an
old string does not occur exactly once, when the unmutated tests fail,
or when pytest reports a usage error; otherwise 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import export  # noqa: E402  (tools/bench_pairs.py)

MUTANTS = ROOT / "tools" / "mutants.json"
KILLED = {1, 2}  # pytest: tests failed, or collection failed (the mutant does not import)


def run_tests(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for `tests` in `tree`, stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(listing: Path = MUTANTS) -> int:
    mutants = json.loads(listing.read_text())
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        tree = export("HEAD", Path(tmp) / "tree")
        for tests in sorted({tuple(m["tests"]) for m in mutants}):
            code = run_tests(tree, list(tests))
            if code:
                print(f"unmutated tests exit {code}: {' '.join(tests)}")
                return 1
        for m in mutants:
            path = tree / m["file"]
            text = path.read_text()
            found = text.count(m["old"])
            if found != 1:
                print(f"STALE     {m['name']}: the old string occurs {found} times in {m['file']}")
                failures += 1
                continue
            path.write_text(text.replace(m["old"], m["new"]))
            try:
                code = run_tests(tree, m["tests"])
            finally:
                path.write_text(text)
            if code in KILLED:
                print(f"killed    {m['name']}" + (" (marked equivalent)" if "equivalent" in m else ""))
            elif code == 0 and "equivalent" in m:
                print(f"survived  {m['name']} (equivalent: {m['equivalent']})")
            else:
                print(f"SURVIVED  {m['name']}" if code == 0 else f"ERROR     {m['name']}: pytest exit {code}")
                failures += 1
    print(f"{len(mutants)} mutants, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
