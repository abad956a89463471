"""Host speed, measured by a reference kernel run from a timer signal.

The machines this benchmark runs on share their cores with other work.
Their speed swings by up to 2x within seconds, and by tens of percent from
one minute to the next, so two timings of the same pass differ by more
than any useful regression bound. While a ``SpeedProbe`` is active, SIGALRM
runs a small fixed pure-Python kernel every ``interval`` seconds in the
measured thread itself: the kernel runs on the same core, at the same
moments, as the code being measured. The kernel's mean duration over an
interval, divided by ``REFERENCE_S``, is the host's slowdown factor over
that interval, and a time divided by that factor is the time at the
reference speed. The kernel depends on nothing in the package, so a
change to the package cannot move it; its cost, under 1% of the measured
time, is the same share on every commit.

Python runs signal handlers between bytecodes of the main thread, so a
long native call delays a sample but never interrupts it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
MIN_SAMPLES = 20
# Kernel duration that defines the reference speed, about its duration on
# an unloaded 2-vCPU Intel Xeon virtual machine. It only sets the scale.
REFERENCE_S = 3.0e-4


def kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(2500):
        acc += (i * 0.5) ** 0.5
        table[i & 63] = acc
    return acc


class SpeedProbe:
    """Context manager that samples the kernel's duration while active."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Slowdown against the reference speed over [start, end). An
        interval holding fewer than MIN_SAMPLES samples uses the MIN_SAMPLES
        samples nearest its middle, so a short operation is not judged by
        one or two samples."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        inside = [d for t, d in self.samples if start <= t < end]
        if len(inside) < MIN_SAMPLES:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        return statistics.fmean(inside) / REFERENCE_S
