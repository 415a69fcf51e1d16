"""Per-slot latency table of one benchmark workload's pass.

Run from anywhere inside the repository:

    python3 tools/slot_profile.py --workload frames --seed 1 --passes 20

The pass is built, warmed up and timed by `perfbench/run.py`'s own
`setup` and `run_pass`, so every op is checked against its exact
reference and the slots are the ones the benchmark scores. Each op slot
is scored by its best completed repeat over `--passes` passes, as the
benchmark scores it. The table lists the slots slowest first, with each
slot's best latency, its share of the sum of all slots' bests (the pass
as the benchmark's `ops_per_s` reads it) and the running share, and
marks the slots that set `latency_p50_ms` (`p50`; two when the slot
count is even, whose mean it is) and `latency_tail_ms` (`tail p90` or
whichever percentile the benchmark's tail ladder picks). A slot whose op raised in
every pass is listed last, untimed.

Exit codes follow `perfbench/run.py`: 3 when a result differs from its
reference or an op raises where none may, 2 without `src/setqm`.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)


def best_of(workload: str, seed: int, passes: int, workdir: Path) -> tuple[list, list]:
    """The pass's op slots as (name, size), and each slot's best latency in s (None if none completed)."""
    _, cases, workloads = bench.setup(workload, seed, workdir)
    slots = [(op.name, op.size) for case in cases for op in case]
    runs = [bench.run_pass(cases, workloads, None, seed, workload in bench.MAY_FAIL)[0]
            for _ in range(passes)]
    completed = [[x for x in column if x is not None] for column in zip(*runs)]
    return slots, [min(column) if column else None for column in completed]


def table(slots: list, best: list) -> list[str]:
    """The slots slowest first, with share, running share and the p50 and tail marks."""
    timed = sorted(((b, s) for s, b in zip(slots, best) if b is not None), key=lambda t: t[0])
    if not timed:
        return ["no op slot completed"]
    n, total = len(timed), sum(b for b, _ in timed)
    pct = bench.tail_percentile(n) if n >= 20 else None
    marks = {(n - 1) // 2: "p50", n // 2: "p50"}  # ascending ranks; run.py takes their median
    if pct is not None:
        tail = max(math.ceil(n * pct / 100) - 1, 0)
        marks[tail] = f"{marks.get(tail, '')} tail p{pct:g}".lstrip()
    lines = [f"{n} timed slots, sum of bests {total * 1e3:.4f} ms"
             + (f"; tail is p{pct:g}" if pct is not None else "; fewer than 20 slots, no tail"),
             f"{'rank':>5} {'best_ms':>10} {'share':>7} {'cum':>7}  {'op':40s} {'size':6s} mark"]
    cum = 0.0
    for rank in reversed(range(n)):
        b, (name, size) = timed[rank]
        cum += b
        lines.append(f"{n - rank:5d} {b * 1e3:10.4f} {b / total:7.2%} {cum / total:7.2%}  "
                     f"{name:40s} {size:6s} {marks.get(rank, '')}".rstrip())
    lines += [f"{'-':>5} {'-':>10} {'-':>7} {'-':>7}  {name:40s} {size:6s} failed in every pass"
              for (name, size), b in zip(slots, best) if b is None]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if not (bench.SRC / "setqm" / "__init__.py").is_file():
        print(f"no setqm sources under {bench.SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory() as workdir:
            slots, best = best_of(args.workload, args.seed, args.passes, Path(workdir))
    except bench.Abort as exc:
        print(f"workload {args.workload} aborted: {exc}", file=sys.stderr)
        return 3
    print(f"workload {args.workload}, seed {args.seed}: {len(slots)} op slots, "
          f"each slot's best of {args.passes} passes")
    for line in table(slots, best):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
