"""Machine-speed calibration for the pma benchmark (stdlib only).

The benchmark's host may share its cores: the same operation can take up
to twice as long for tens of seconds while neighbours are busy, and CPU
time drifts with wall time, so neither more samples nor process time
removes the drift. While a run measures, a timer signal therefore times a
fixed loop of pure-Python modular integer arithmetic every ``INTERVAL_S``
seconds. (Of the loops tried, this one tracked the workloads best across
processes; adding SHA-256 calls or list-and-tuple work made it worse.) An
interval's slowdown is the median loop time of the samples taken within
``WINDOW_S`` of it, relative to ``REFERENCE_S``; every reported time is
divided by the slowdown of its own interval, so it reads as seconds at the
reference speed. Scaling each operation by its own neighbourhood, rather
than the whole run by one figure, matters because the host switches
between a fast and a slow state every few seconds, which makes the median
of raw operation times jump between the two. The loop's own time is taken
out of every measured interval. Readable tables also print the raw
wall-clock median and the run's overall slowdown.
"""

import signal
import statistics
import time

# median time of one _loop() on the reference host (Intel Xeon, 2 vCPUs,
# CPython 3.11); its fastest time there was 0.0043 s
REFERENCE_S = 0.006
INTERVAL_S = 0.1
WINDOW_S = 0.5
BRACKET = 5  # loop runs on entry and on exit, so short runs get samples too


def _loop():
    acc = 0
    for i in range(60000):
        acc = (acc * 31 + i) % 1000003
    return acc


class Speedometer:
    """Samples the machine's speed while the ``with`` block runs.

    ``spent`` is the total time taken by the samples; subtract its change
    over an interval from that interval's wall time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        for _ in range(BRACKET):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET):
            self._sample()

    def slowdown(self, start=None, end=None):
        """Median loop time over the reference time, from the samples
        within WINDOW_S of the perf_counter interval [start, end], or from
        all samples when no interval is given."""
        times = [d for t, d in self.samples if start is None
                 or start - WINDOW_S <= t <= end + WINDOW_S]
        if not times:  # the interval lies between two far-apart samples
            times = [min(self.samples, key=lambda s: min(abs(s[0] - start),
                                                         abs(s[0] - end)))[1]]
        return statistics.median(times) / REFERENCE_S
