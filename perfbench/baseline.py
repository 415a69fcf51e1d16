"""Record the baseline: two rounds of every workload at ten seeds, plus one traced run each.

Run from the repository root: python3 perfbench/baseline.py [first_seed last_seed]
Writes perfbench/baseline.json. For each workload and end-to-end metric
it keeps each round's values, median and interquartile spread as a share
of the median, and whether the second round's median is worse than the
first's by no more than the metric's bound. The per-layer split is from a
traced run of the first seed. The file is rewritten after each round.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "iqr_share": (q[2] - q[0]) / median, "values": values}


def agrees(metric: dict, first: float, second: float) -> bool:
    worse = (second - first) / first if metric["better"] == "lower" else (first - second) / first
    return worse <= metric["bound"]


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in sys.argv[1:3]) if len(sys.argv) > 2 else (1, 10)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    report = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "run_seconds": seconds, "seeds": [first, last],
              "workloads": {w: {"attempted": 0, "failed": 0, "end_to_end": {}} for w in names}}
    out = HERE / "baseline.json"
    for round_no in range(ROUNDS):
        for w in names:
            runs = [run(w, seed, seconds, 0) for seed in range(first, last + 1)]
            entry = report["workloads"][w]
            entry["attempted"] += sum(r["attempted"] for r in runs)
            entry["failed"] += sum(r["failed"] for r in runs)
            for m in spec["end_to_end"]:
                rounds = entry["end_to_end"].setdefault(m["name"], {"unit": m["unit"], "rounds": []})["rounds"]
                rounds.append(summary([r["metrics"][m["name"]]["value"] for r in runs]))
                if len(rounds) == 2:
                    entry["end_to_end"][m["name"]]["second_agrees"] = agrees(
                        m, rounds[0]["median"], rounds[1]["median"])
            print(f"round {round_no + 1}", w, {k: (round(v["rounds"][-1]["median"], 4),
                                                 round(v["rounds"][-1]["iqr_share"], 3))
                                             for k, v in entry["end_to_end"].items()}, flush=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    for w in names:
        traced = run(w, first, seconds, 1)
        report["workloads"][w]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
