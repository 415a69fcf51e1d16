"""Time one set-up (import, input generation, warm-up) in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>; prints seconds.
"""

import os
import shutil
import sys

import run

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    workdir = run.WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        seconds, _, _ = run.setup(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(seconds)
