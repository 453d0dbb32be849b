"""A host-speed yardstick: fixed interpreter and numpy work that runs no netpeer code.

The 2 vCPU Xeon VM the benchmark was built on switched between a fast and a
slow state within seconds, and each vCPU could be in either state on its
own: the kernel below took about 1.1 ms on one and 1.8 ms on the other. The
median mc_small rep took 5.5 ms in the fast state and 10.9 ms in the slow
one. Timed right before and right after each op, in as many processes as
the op keeps busy, the kernel tells how fast the host was during the op,
and the op's time is scaled to a host on which the kernel takes REFERENCE_S.

Measured on that VM, over 15 s windows of back-to-back ops: the quartile
spread of cli_files chain time fell from 0.067 raw to 0.009 corrected and
that of mc_large rep time from 0.069 to 0.033; for mc_small_w2, the kernel
timed in two processes at once brought 0.076 raw to 0.036, where timing it
in one process gave 0.104.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

# Kernel time on the reference host, between its fast and slow states.
REFERENCE_S = 1.5e-3


@functools.cache
def _inputs():
    import numpy as np

    values = np.random.default_rng(0).random(20_000)
    return np, values, values.tolist(), np.arange(0, values.size, 7)


def kernel_seconds() -> float:
    np, values, items, starts = _inputs()
    t0 = time.perf_counter()
    total = 0.0
    for v in items:
        total += v * v
    np.add.reduceat(np.sort(values), starts)
    np.random.default_rng(1).random(values.size).argsort()
    return time.perf_counter() - t0


def reading(repeats: int) -> float:
    """Median kernel time over `repeats` passes in this process."""
    return statistics.median(kernel_seconds() for _ in range(repeats))


class Yardstick:
    """Kernel readings around each op, in `processes` processes at once.

    With more than one process the kernel runs in that many forked workers
    at the same time, so that a reading covers every vCPU the op's own
    workers ran on; the reading is the mean of theirs. Call close() when done:
    it waits until the workers have ended. The workers are forked, not
    spawned, because a spawn pool also starts multiprocessing's resource
    tracker, a process that nothing waits for and that outlives the
    benchmark.
    """

    def __init__(self, processes: int = 1):
        self.processes = processes
        self.pool = None
        if processes > 1:
            self.pool = ProcessPoolExecutor(
                processes, mp_context=multiprocessing.get_context("fork"))
        try:
            self.last = self.reading(3)
        except BaseException:
            self.close()
            raise

    def reading(self, repeats: int) -> float:
        if self.pool is None:
            return reading(repeats)
        return statistics.mean(self.pool.map(reading, [repeats] * self.processes))

    def scale(self, op_seconds: float) -> float:
        """REFERENCE_S over the kernel's time around the op just run.

        Below 1 on a slow host. The geometric mean of the readings before
        and after the op is used. After long ops each process times the
        kernel more often, about once per 50 ms of op time and at most 15
        times, and takes the median.
        """
        now = self.reading(min(15, 1 + int(op_seconds / 0.05)))
        before, self.last = self.last, now
        return REFERENCE_S / math.sqrt(before * now)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
