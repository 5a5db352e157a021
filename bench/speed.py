"""Machine-speed reference for normalizing wall times.

The benchmark runs on shared virtual machines whose speed drifts.  On the
2-core machine the baseline was measured on, the same operation's median over
20 s windows moved by up to 26 % within three minutes, and run-to-run spreads
of the raw times came close to any usable bound.  A fixed reference kernel,
timed between operations, slows down with the machine: over the same windows
the ratio of operation time to kernel time moved by under 6 %.

So end-to-end times are reported normalized: each measured wall time is
multiplied by ``NOMINAL_S / k``, where ``k`` is the median of the kernel
timings taken during the run.  The result reads as seconds on a machine
where the kernel takes ``NOMINAL_S``.  The kernel does not touch optiloop,
so a change to the program cannot move it.  Raw wall times are kept next to
the normalized ones in the run's detail file.
"""

import statistics
import time

import numpy as np

# Kernel wall time that normalized times are scaled to; roughly what it takes
# on the baseline machine.
NOMINAL_S = 0.06
# Seconds between kernel timings.
INTERVAL_S = 1.0


def reference_kernel():
    """Fixed work of both kinds the program does: rank-1 updates of a dense
    array, as in simplex pivots, and dict-of-tuple churn, as in problem
    building.  It holds a few megabytes at most, so it does not move the
    peak resident set.  Returns its wall time."""
    t = time.perf_counter()
    D = np.ones((400, 600))
    u = np.arange(400.0) / 400.0
    v = np.arange(600.0) / 600.0
    for _ in range(75):
        D -= np.outer(u, v) * 1e-6
    for _ in range(15):
        d = {}
        for i in range(5000):
            d[(i % 97, i)] = i * 0.5
    return time.perf_counter() - t


class Speed:
    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self):
        """Time the kernel if ``INTERVAL_S`` has passed since the last timing."""
        now = time.perf_counter()
        if self._last is None or now - self._last >= INTERVAL_S:
            self.samples.append(reference_kernel())
            self._last = time.perf_counter()

    def factor(self):
        return NOMINAL_S / statistics.median(self.samples)
