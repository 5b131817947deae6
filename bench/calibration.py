"""Machine-speed calibration.

On a shared 2-core Intel Xeon virtual machine (the one the README's
figures come from) the speed drifts by 10-40 % over tens of seconds.  Ten
back-to-back figure3-ground sweeps took 9.8 to 16.6 s (quartile spread
0.26 of the median), and a fixed kernel timed every 0.3 s during each
sweep drifted with them (correlation 0.96): dividing each sweep's time by
the kernel's median there cut the spread to 0.07.  Timings are therefore
reported rescaled to ``REFERENCE_S``, the kernel's time at that machine's
usual speed; the raw figures stay in the run record.

The kernel is a thousand NumPy ufunc calls on a 32 KiB array, dominated by
per-call overhead as the package's many small array operations are; of the
kernels tried (larger arrays, a pure interpreter loop) it tracked the sweep
best.  It is timed in thread CPU time, so that it measures the speed of
the core it runs on and not its share of it, and it is the benchmark's own
code, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

REFERENCE_S = 0.019
SAMPLES = 3


def kernel_seconds() -> float:
    # Buffers are allocated before the clock starts: the time must not
    # depend on the allocator's state, which the workload leaves behind.
    x = np.linspace(1.0, 2.0, 1 << 12)
    decay = np.expm1(-x)
    buf = np.empty_like(x)
    start = time.thread_time()
    acc = 0.0
    for i in range(1000):
        np.multiply(x, i + 1.0, out=buf)
        np.log1p(buf, out=buf)
        np.multiply(buf, decay, out=buf)
        acc += float(buf.sum())
    return time.thread_time() - start


def sample() -> float:
    """Median kernel time over a few back-to-back repetitions."""
    return statistics.median(kernel_seconds() for _ in range(SAMPLES))


class Speed:
    """Speed factors for timed calls: the reference kernel time over the
    kernel time measured around the call.

    A call that computes in this process is bracketed by samples taken
    just before and just after it.  A call that waits on worker processes
    is also sampled while it runs, from a thread of this otherwise idle
    process, every ``PERIOD`` seconds.
    """

    PERIOD = 0.5

    def __init__(self) -> None:
        self._last = sample()

    def measure(self, fn, background: bool):
        """``(fn(), factor)``."""
        during: list[float] = []
        stop = threading.Event()
        thread = None
        if background:
            def loop():
                while not stop.wait(self.PERIOD):
                    during.append(kernel_seconds())
            thread = threading.Thread(target=loop, daemon=True)
            thread.start()
        try:
            out = fn()
        finally:
            if thread is not None:
                stop.set()
                thread.join()
        now = sample()
        kernel = 0.5 * (self._last + now)
        if len(during) >= SAMPLES:
            kernel = statistics.median(during)
        self._last = now
        return out, REFERENCE_S / kernel
