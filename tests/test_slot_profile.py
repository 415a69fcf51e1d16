"""tools/slot_profile.py: a two-pass table of the frames workload, and its p50 and tail marks."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "slot_profile.py"
ROW = re.compile(r"^\s*(\d+)\s+([\d.]+)\s+([\d.]+)%\s+([\d.]+)%\s+(\S+)\s+(\S+)\s*(.*)$")


def _load():
    spec = importlib.util.spec_from_file_location("slot_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_passes_of_frames_list_every_slot_slowest_first():
    out = subprocess.run([sys.executable, str(SCRIPT), "--workload", "frames", "--seed", "1",
                          "--passes", "2"], capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "workload frames, seed 1: 120 op slots, each slot's best of 2 passes"
    assert lines[1].startswith("120 timed slots") and lines[1].endswith("tail is p90")
    rows = [ROW.match(line) for line in lines[3:]]
    assert len(rows) == 120 and all(rows)
    assert [int(r[1]) for r in rows] == list(range(1, 121))
    best = [float(r[2]) for r in rows]
    assert best == sorted(best, reverse=True) and best[-1] > 0
    assert abs(float(rows[-1][4]) - 100) < 0.01
    marks = {int(r[1]): r[7] for r in rows if r[7]}
    # ascending ranks 59 and 60 (from 0) set the median; p90 of 120 is ascending rank 107
    assert marks == {61: "p50", 60: "p50", 13: "tail p90"}
    assert {r[5] for r in rows} >= {"space.BasisFrame", "dynamics.Dynamics", "entangle.marginals"}


def test_marks_share_a_slot_and_an_untimed_slot_is_listed_last():
    module = _load()
    slots = [(f"op{i}", "s") for i in range(21)]
    lines = module.table(slots, [None] + [i * 1e-3 for i in range(1, 21)])
    assert lines[0] == "20 timed slots, sum of bests 210.0000 ms; tail is p50"
    rows = [ROW.match(line) for line in lines[2:22]]
    assert all(rows) and [r[5] for r in rows] == [f"op{i}" for i in range(20, 0, -1)]
    assert {int(r[1]): r[7] for r in rows if r[7]} == {10: "p50", 11: "p50 tail p50"}
    assert lines[22].split()[4:] == ["op0", "s", "failed", "in", "every", "pass"]
    assert module.table(slots[:3], [1e-3, 2e-3, 3e-3])[0].endswith("fewer than 20 slots, no tail")
