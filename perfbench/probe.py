"""Machine-speed probe: express measured times at a fixed reference speed.

On a shared virtual machine the vCPU's speed drifts by up to about 20%
over minutes while CPU time drifts with wall time, so raw pass times of
identical work spread more across runs than any useful regression bound.
The probe is a fixed mix of the three kinds of work mclab's passes are
made of: an interpreter loop, small BLAS matmuls and elementwise numpy
reductions. No change to mclab can alter it. It is timed before and
after every operation of a pass, each time as the median of three runs
of the mix; the operation's time is divided by the mean of its two
probes and multiplied by the probe's time on the reference machine.
``README.md`` compares the raw and scaled spreads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe wall time on the reference machine (a 2-vCPU Intel Xeon VM at 2.1 GHz)
REFERENCE_S = 0.13
REPEATS = 3


class SpeedProbe:
    """Callable returning the ``(wall, cpu)`` seconds of one fixed probe.

    The mix runs ``REPEATS`` times and the medians are returned: one run
    is short enough that its own noise showed in the scaled times.
    """

    reference_s = REFERENCE_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self._square = rng.random((129, 129))
        self._rows = rng.random((257, 257))

    def __call__(self) -> tuple[float, float]:
        walls, cpus = [], []
        for _ in range(REPEATS):
            t0, c0 = time.perf_counter(), time.process_time()
            acc = 0
            for i in range(800_000):
                acc += i * i
            for _ in range(500):
                self._square @ self._square
            for i in range(256):
                np.abs(self._rows[i + 1:] - self._rows[i]).sum(axis=1).max()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        return statistics.median(walls), statistics.median(cpus)
