"""Diagnostic, not part of the benchmark's metrics: the scenario runner's thread pool.

Times ``run_scenario("drifted-bd-scaling", threads=k)`` for k = 1 and 2
with BLAS pinned to one thread, alternating the two settings, and prints
the median wall time of each. Run from the root of a source checkout::

    python3 perfbench/diag_threads.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 3


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from mclab.scenarios import run_scenario

    times: dict[int, list[float]] = {1: [], 2: []}
    rows = {}
    for _ in range(REPEATS):
        for threads in times:
            t0 = time.perf_counter()
            result = run_scenario("drifted-bd-scaling", threads=threads)
            times[threads].append(time.perf_counter() - t0)
            rows[threads] = result.rows
    if rows[1] != rows[2]:
        print("rows differ between thread counts", file=sys.stderr)
        return 1
    for threads, samples in times.items():
        print(f"drifted-bd-scaling threads={threads}: median {statistics.median(samples):.3f} s "
              f"over {len(samples)} runs {[round(s, 3) for s in samples]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
