"""Alternating benchmark pairs of a parent revision and this checkout, written to one JSON file.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent cb3217b --workloads circuits --seeds 1-10 \\
        --seconds 28 --out BENCH_11.json

A workload may name its own seeds as `name:seeds`, so one file can hold
ten pairs of one workload and a few of the others:

    python3 tools/bench_pairs.py --parent 074c907 \\
        --workloads frames:1-10,circuits:1-3,mixed_states:1-3,cli:1-3 --out BENCH_13.json

A workload named without seeds runs the `--seeds` range.

The parent is exported with `git archive` into a temporary directory, so
each side runs `perfbench/run.py --trace 0` from its own tree. The change
side is this checkout's working tree. For every seed and workload the two
sides run back to back, the side that goes first alternating from one pair
to the next, so drift of the host falls on both sides alike. After a
workload's pairs, each side runs it once more with `--trace 1` on the
workload's first seed, parent first, and the file keeps both per-layer
splits under "traced", to show in which layer a change moved the time.

The file holds the host, both revisions, every pair's metrics, and per
metric the medians, the parent's interquartile range, the number of pairs
the change wins, and whether the change's median stays within the
metric's bound. Per workload it also gives each side's median number of
ops attempted, against which a move of `peak_rss_mb` can be read, since
`perfbench/run.py` keeps a latency sample per op. Metric names,
directions and bounds come from BENCHMARK.json; the command that runs a
workload does too.

A run that exits non-zero is recorded with its exit code and counted per
side under "crashed"; it loses its pair, a crashed change side makes every
metric's "within_bound" false, and the script exits 1 once the file is
written. A crashed traced run is recorded the same way and also makes the
script exit 1, but it touches no pair.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed files of `rev`, unpacked into `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12+, 3.11.4+
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' (or a mix) as a list of seeds; an empty range is a ValueError."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        part_seeds = range(int(lo), int(hi or lo) + 1)
        if not part_seeds:
            raise ValueError(f"seed range {part!r} is empty")
        seeds.extend(part_seeds)
    return seeds


def parse_workloads(text: str, default: list[int]) -> dict[str, list[int]]:
    """'frames:1-10,circuits' as {workload: seeds}; a name without ':' gets `default`.

    After ':' the seeds are one range or one seed, since ',' separates workloads.
    """
    plan = {}
    for item in text.split(","):
        name, colon, seeds = item.partition(":")
        if name in plan:
            raise ValueError(f"workload {name!r} named twice")
        plan[name] = parse_seeds(seeds) if colon else default
    return plan


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform()}


def run_side(command: list[str], tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run; its JSON line, or the exit code and the end of stderr.

    With `trace` 1 the metrics are the per-layer split, not the end-to-end ones.
    """
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=tree, capture_output=True, text=True)
    if out.returncode:
        return {"exit": out.returncode, "stderr": out.stderr[-2000:]}
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def crashed(pairs: list[dict], side: str) -> int:
    return sum("metrics" not in p[side] for p in pairs)


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Medians, parent IQR, wins and the bound verdict of each end-to-end metric.

    Medians are over the runs of each side that completed. The change wins
    a pair when it completed and either the parent crashed or the change's
    value is better; a pair where the change crashed is a loss.
    """
    change_crashed = crashed(pairs, "change")
    out = {}
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        values = [tuple(p[side]["metrics"][name] if "metrics" in p[side] else None
                        for side in ("parent", "change")) for p in pairs]
        parent = [p for p, _ in values if p is not None]
        change = [c for _, c in values if c is not None]
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": len(pairs),
               "wins": sum(c is not None and (p is None or ((c > p) if higher else (c < p)))
                           for p, c in values)}
        if parent and change:
            before, after = statistics.median(parent), statistics.median(change)
            q1, q3 = quartiles(parent)
            relative = after / before - 1 if before else 0.0
            worse = -relative if higher else relative
            row.update(parent_median=before, change_median=after, relative_change=relative,
                       parent_iqr=q3 - q1, within_bound=not change_crashed and worse <= m["bound"])
        else:
            row["within_bound"] = False
        out[name] = row
    return out


def median_attempted(pairs: list[dict], side: str) -> float | None:
    """The median number of ops attempted by a side's completed runs."""
    runs = [p[side]["attempted"] for p in pairs if "metrics" in p[side]]
    return statistics.median(runs) if runs else None


def failed_share(pairs: list[dict], side: str) -> float | None:
    runs = [p[side] for p in pairs if "metrics" in p[side]]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workloads", default="circuits",
                        help="comma-separated workload names, each optionally name:seeds "
                             "(for example frames:1-10,circuits:1-3)")
    parser.add_argument("--seeds", default="1-10",
                        help="seeds of workloads named without their own, for example 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, help="seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    try:
        seeds = parse_seeds(args.seeds)
        plan = parse_workloads(args.workloads, seeds)
    except ValueError as exc:
        parser.error(f"bad --seeds or --workloads: {exc}")
    unknown = sorted(set(plan) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json names {known}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    spec = bench["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"), "change": ROOT}
        report = {
            "host": host(),
            "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
            "change": {"rev": "working tree", "commit": git("rev-parse", "HEAD"),
                       "changed_files": git("status", "--porcelain").splitlines()},
            "command": bench["command"],
            "seconds": seconds,
            "seeds": seeds,
            "workloads": {},
        }
        for workload, workload_seeds in plan.items():
            pairs = []
            for i, seed in enumerate(workload_seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = run_side(bench["command"], trees[side], workload, seed, seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['ops_per_s']:.6g} ops/s"
                    if "metrics" in pair[side] else f"{side} exit {pair[side]['exit']}"
                    for side in ("parent", "change")), file=sys.stderr)
            traced = {"seed": workload_seeds[0]}
            for side in ("parent", "change"):
                traced[side] = run_side(bench["command"], trees[side], workload,
                                        workload_seeds[0], seconds, trace=1)
            report["workloads"][workload] = {
                "seeds": workload_seeds,
                "pairs": pairs,
                "metrics": summarize(pairs, spec),
                "attempted": {side: median_attempted(pairs, side) for side in ("parent", "change")},
                "failed_share": {side: failed_share(pairs, side) for side in ("parent", "change")},
                "crashed": {side: crashed(pairs, side) for side in ("parent", "change")},
                "traced": traced,
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    runs = [run for w in report["workloads"].values() for run in (*w["pairs"], w["traced"])]
    return 1 if crashed(runs, "parent") or crashed(runs, "change") else 0


if __name__ == "__main__":
    sys.exit(main())
