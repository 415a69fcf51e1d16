"""setqm benchmark: one closed-loop caller in one process, every op checked exactly.

Run from the repository root:

    python3 perfbench/run.py --workload circuits --seed 1 --seconds 12 --trace 0

Workloads are `circuits`, `mixed_states`, `frames` and `cli` (see
workloads.py). A run builds the workload's pass from the seed, warms up,
then repeats the pass until the passes have taken `--seconds` (at least MIN_PASSES
times). Each op is timed on its own; its exact check runs between ops,
outside the timed interval.

Every metric scores each op slot of the pass by its best completed
repeat; an op that raised is counted in `failed` but never timed. On a
shared host the same pass runs up to twice as fast in one half-minute as
in the next (measured on a 2-vCPU VM), and interference only adds time,
so the best repeat is the figure that stays put between runs. The report lines also give the
all-sample figures.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced and traced passes and reports the per-layer split (layers.py);
the spans go to `.perfbench_work/trace_<workload>.jsonl`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. A result that differs from the reference ends the
run with exit code 3 and no JSON line, and so does an op that raises in
any workload but `cli`. A checkout without `src/setqm` exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("circuits", "mixed_states", "frames", "cli")  # workloads.py imports setqm, which set-up times
# The cli mix keeps the malformed calls that escape today (ROADMAP item 4);
# in every other workload an op that raises ends the run like a wrong value.
MAY_FAIL = ("cli",)
MIN_PASSES = 5
SETUP_SAMPLES = 6  # this process plus five fresh probe processes, spread over the run
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Abort(Exception):
    """A result differed from its exact reference, or an op raised where none may."""


def setup(workload: str, seed: int, workdir: Path):
    """Import setqm, build the pass and warm up; returns (seconds, cases, workloads module)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import setqm
    if Path(setqm.__file__).resolve().parent != SRC / "setqm":
        raise RuntimeError(f"imported setqm from {setqm.__file__}, not from {SRC}")
    import workloads
    cases = workloads.build(workload, seed, ROOT, workdir)
    for case in workloads.warm_cases(workload, cases):
        run_pass([case], workloads, None, seed, workload in MAY_FAIL)
    return time.perf_counter() - start, cases, workloads


def run_pass(cases, workloads, tracer, seed: int, may_fail: bool):
    """Run every op of every case once; returns (latencies in s, None for a failed op; failure notes)."""
    from reference import Mismatch
    latencies, notes = [], []
    for case in cases:
        ctx = {}
        for op in case:
            if tracer is None:
                error = result = None
                t0 = time.perf_counter()
                try:
                    result = op.call(ctx)
                except Exception as exc:  # a failed op; the loop goes on
                    error = exc
                seconds = time.perf_counter() - t0
            else:
                result, error, seconds = tracer.run_op(op.name, op.call, ctx)
            if error is None:
                try:
                    op.check(ctx, result)
                except Mismatch as exc:
                    raise Abort(f"{op.name} [{op.size}] (seed {seed}): {exc}") from None
                except workloads.ContractBreak as exc:
                    error = exc
            if error is None:
                latencies.append(seconds)
                if op.keep:
                    ctx[op.keep] = result
                continue
            note = f"{op.name} [{op.size}]: {type(error).__name__}: {str(error)[:120]}"
            if not may_fail:
                raise Abort(f"{note} (seed {seed})")
            latencies.append(None)
            notes.append(note)
    return latencies, notes


def quantile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    xs = sorted(values)
    return xs[max(math.ceil(len(xs) * q / 100) - 1, 0)]


def ops_per_s(latencies) -> float:
    done = [x for x in latencies if x is not None]
    return len(done) / sum(done)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile that leaves at least ten of `samples` beyond it (needs 20)."""
    return next(p for p in TAIL_LADDER if samples * (100 - p) / 100 >= 10)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter (see setup_probe.py)."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, int, int, list]:
    setup_s, cases, workloads = setup(workload, seed, workdir)
    setups = [setup_s]
    from spans import assert_untraced
    assert_untraced()
    runs, notes = [], []
    measured = 0.0  # seconds spent in passes; the fresh set-ups are not counted
    while len(runs) < MIN_PASSES or measured < seconds:
        start = time.perf_counter()
        lat, n = run_pass(cases, workloads, None, seed, workload in MAY_FAIL)
        measured += time.perf_counter() - start
        runs.append(lat)
        notes = notes or n
        # The fresh set-ups are spread over the run, so that their least
        # meets the same fast stretches of the host as the passes' best.
        if len(setups) < SETUP_SAMPLES and measured >= seconds * len(setups) / SETUP_SAMPLES:
            setups.append(probe_setup(workload, seed))
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(workload, seed))
    # Each op slot runs once per pass and is scored by its best completed
    # repeat; a slot whose op raised in every pass is left out.
    completed = [[x for x in column if x is not None] for column in zip(*runs)]
    best = [min(column) for column in completed if column]
    pct = tail_percentile(len(best))
    metrics = {
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_tail_ms": quantile(best, pct) * 1e3,
        "setup_s": min(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    every = [x for column in completed for x in column]
    attempted = len(runs) * len(completed)
    failed = attempted - len(every)
    report = [f"workload {workload}, seed {seed}: {len(runs)} passes of {len(completed)} op slots, "
              f"closed loop, 1 caller; {len(every)} timed samples",
              f"latencies are each completed slot's best of {len(runs)}; latency_tail_ms is "
              f"p{pct:g} of {len(best)} slots, {len(best) - math.ceil(len(best) * pct / 100)} beyond it",
              f"all samples: median pass {statistics.median(ops_per_s(lat) for lat in runs):.6g} ops/s, "
              f"p50 {statistics.median(every) * 1e3:.6g} ms, p{pct:g} {quantile(every, pct) * 1e3:.6g} ms",
              f"error_rate {failed / attempted:.6f} ({failed} of {attempted} ops failed)",
              f"setup_s is the least of {', '.join(f'{s:.4f}' for s in setups)}"]
    return metrics, attempted, failed, report + notes


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, int, int, list]:
    import layers
    import spans
    _, cases, workloads = setup(workload, seed, workdir)
    tracer = spans.Tracer(layers.HOOKS)
    plain, traced, attempted, failed, notes = [], [], 0, 0, []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        spans.assert_untraced()
        lat, _ = run_pass(cases, workloads, None, seed, workload in MAY_FAIL)
        plain.append(sum(x for x in lat if x is not None))
        attempted, failed = attempted + len(lat), failed + lat.count(None)
        try:
            tracer.install()
            lat, n = run_pass(cases, workloads, tracer, seed, workload in MAY_FAIL)
        finally:
            tracer.remove()
        traced.append(sum(x for x in lat if x is not None))
        attempted, failed, notes = attempted + len(lat), failed + lat.count(None), notes or n
    overhead = min(traced) / min(plain) - 1
    metrics = layers.compute(tracer.spans, tracer.counters, overhead)
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace_{workload}.jsonl"
    tracer.dump(out)
    report = [f"workload {workload}, seed {seed}: {len(traced)} traced and {len(plain)} untraced passes",
              f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}"]
    return metrics, attempted, failed, report + notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "setqm" / "__init__.py").is_file():
        print(f"no setqm sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # runs the cleanup below
    try:
        run = measure_traced if args.trace else measure
        metrics, attempted, failed, report = run(args.workload, args.seed, args.seconds, workdir)
    except Abort as exc:
        print(f"workload {args.workload} aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        import layers
        units = {m["name"]: m["unit"] for m in layers.spec()}
    else:
        units = dict(END_TO_END)
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
