"""Host-speed calibration: how long a section's work would take at the
host's nominal speed.

The shared host's speed drifts by up to 2x, in phases that last from
seconds to minutes (README, Host noise), and wall time drifts with it.
`Clock` times a fixed calibration kernel before and after every measured
section and, while `sampling()` is active, every PERIOD_S in between.
Each stretch of work between two consecutive kernel timings is scaled by
CAL_NOMINAL_S over the mean of the two; a section's time at nominal speed
is the sum over its stretches.  The kernel timings themselves count
neither as wall time nor as nominal time.

The periodic timings run in a SIGALRM handler, which Python runs in the
main thread between bytecodes.  While another thread is alive (the
extract thread pool) the handler skips its timing, so the kernel never
competes with the pipeline for the GIL; the stretch then reaches to the
timings on either side of the pool.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import threading
import time

import numpy as np

# The kernel mixes what the pipeline spends its time on: numpy calls on
# 64-wide vectors, dominated by call overhead, and a BLAS GEMM.  Against
# a ds2 forward pass its time correlates at 0.84 with an exponent of 0.98
# (README, Host noise).  CAL_NOMINAL_S is its median time on the
# reference host (2-core Xeon at 2.0 GHz, numpy 2.4.6, OpenBLAS 0.3.31,
# one BLAS thread); it only sets the scale.
CAL_NOMINAL_S = 1.8e-3
KERNEL_REPEATS = 3
PERIOD_S = 0.1

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((64, 64)) * 0.1
_H = _RNG.standard_normal(64)
_M = _RNG.standard_normal((160, 160))


def _kernel():
    h = _H
    for _ in range(150):
        h = np.tanh(_W @ h + _W.T @ h)
    for _ in range(4):
        _M @ _M


class Clock:
    def __init__(self):
        self.samples = []  # (start, end, kernel seconds), in time order
        self._busy = False

    def calibrate(self):
        """Time the kernel now: the median of KERNEL_REPEATS runs."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            runs = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                _kernel()
                runs.append(time.perf_counter() - t0)
            self.samples.append((start, time.perf_counter(),
                                 statistics.median(runs)))
        finally:
            self._busy = False

    def _on_timer(self, signum, frame):
        if threading.active_count() == 1:
            self.calibrate()

    @contextlib.contextmanager
    def sampling(self):
        """Time the kernel every PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, record, key, fn, *args, **kwargs):
        """Call fn and store (wall seconds, seconds at nominal speed) of
        the call in record[key]."""
        self.calibrate()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.calibrate()
        record[key] = self.span(start, end)
        return result

    def span(self, start, end):
        """(wall seconds, seconds at nominal speed) of the work done in
        [start, end], kernel timings left out.  Needs a kernel timing
        ending at or before `start` and one starting at or after `end`."""
        first = bisect.bisect_right(self.samples, start,
                                    key=lambda s: s[1]) - 1
        last = bisect.bisect_left(self.samples, end, key=lambda s: s[0])
        if first < 0 or last == len(self.samples):
            raise ValueError("span is not bracketed by kernel timings")
        wall = nominal = 0.0
        stretch = self.samples[first:last + 1]
        for before, after in zip(stretch, stretch[1:]):
            length = min(after[0], end) - max(before[1], start)
            wall += length
            nominal += length * 2 * CAL_NOMINAL_S / (before[2] + after[2])
        return wall, nominal
