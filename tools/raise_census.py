"""List every `raise` in src/setqm that the tier-1 tests never reach.

Run from anywhere inside the repository:

    python3 tools/raise_census.py

It runs the tier-1 suite in-process under a `sys.settrace` line tracer
that watches only the frames of src/setqm, then compares the lines it saw
with the `raise` statements that `ast` finds there. It exits 1 when the
suite fails, when a raise outside ALLOWED is unreached, or when an ALLOWED
entry names no unreached raise; else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "setqm"

# (file, start of the raise's source) -> why no test can reach it
ALLOWED = {
    ("qc.py", 'raise AssertionError("post-evaluation state must be a single basis ket")'):
        "parity_sat's invariant: the evaluation gate maps the uniform superposition "
        "to one basis ket, so no input reaches it",
}


def raises() -> dict[tuple[str, int], str]:
    """(file path, line) -> the first line of its source, for every raise statement."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                found[str(path), node.lineno] = text.splitlines()[node.lineno - 1].strip()
    return found


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """The suite's exit code and every (file path, line) executed under src/setqm."""
    seen, prefix = set(), str(SRC)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main() -> int:
    code, seen = run_traced()
    unreached = {(Path(f).name, src) for (f, n), src in raises().items() if (f, n) not in seen}
    bad = sorted(unreached - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unreached)
    for name, src in bad:
        print(f"unreached: {name}: {src}")
    for name, src in stale:
        print(f"allowed but reached or gone: {name}: {src}")
    print(f"{len(unreached)} unreached raise(s), {len(unreached) - len(bad)} allowed")
    return 1 if code or bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
