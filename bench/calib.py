"""Machine-speed calibration for timings on a CPU whose speed drifts.

On a shared 2-vCPU Intel Xeon VM a fixed pure-Python loop took 0.8x to 1.5x
its usual time, for every process alike.  A fixed kernel timed alongside
the workload tracks that drift, so every reported time is scaled to the
speed at which the kernel takes REF_S seconds:

    time_at_reference = measured_time * REF_S / mean_kernel_time_during_it

The speed flips between states within a fraction of a second, so the
kernel is short (about 1 ms) and sampled often, and samples are averaged
(a time integral), not taken by median.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.001  # kernel time that defines the reference speed
EVERY_S = 0.025  # the workload process samples the kernel at this cadence
NEAREST = 2  # an item with fewer samples around it uses the nearest ones
EDGE_S = 0.002  # samples taken right before and after an item count as around it


def kernel() -> int:
    """Fixed integer, dict and list traffic, about 1 ms."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(5000):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + i
        acc ^= (i * i) >> 3
    return acc + len(sorted(d.values()))


def measure(reps: int = 1) -> float:
    """Mean kernel time over `reps` back-to-back runs."""
    t = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - t) / reps


def factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """REF_S over the mean kernel time sampled during [start, end] and right
    at its edges, or over the NEAREST samples when fewer fall there."""
    inside = [s for t, s in samples if start - EDGE_S <= t <= end + EDGE_S]
    if len(inside) < NEAREST:
        dist = sorted(samples, key=lambda ts: max(start - ts[0], ts[0] - end, 0.0))
        inside = [s for _, s in dist[:NEAREST]]
    return REF_S / statistics.mean(inside)


class Sampler:
    """Times the kernel every EVERY_S seconds from a SIGALRM handler, so
    long items are sampled in their middle too; the workload loop also
    samples right before and after every item.  `clock()` is a nanosecond
    clock that stops while a sample runs, so samples add nothing to the
    times it measures.  Use as a context manager around the timed loop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent_ns = 0

    def clock(self) -> int:
        return time.perf_counter_ns() - self.spent_ns

    def sample(self):
        """One sample outside the timed code, e.g. between two items."""
        self.samples.append((time.perf_counter(), measure()))

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append((t0 / 1e9, measure()))
        self.spent_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self.samples.append((time.perf_counter(), measure(10)))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append((time.perf_counter(), measure(10)))
        return False
