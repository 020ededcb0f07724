"""The machine's speed during a run, measured by a fixed probe kernel.

On a few cores of a shared host the same work takes 15-30 % longer for
seconds to minutes at a time while neighbours are busy, and a run of half
a minute cannot average that out. While a run goes on, a timer signal
interrupts it once a second and times a short kernel that touches none of
lidkit's code (FFTs and a matrix product). Every timed interval is scaled
to the speed at which that kernel takes ``REFERENCE_S``:

    normalised time = measured time / factor
    factor = median time of the probes within WINDOW_S of the interval / REFERENCE_S

The probes' own time is left out of every timed interval. A change to
lidkit cannot move the probe, so it moves the normalised metrics exactly
as it moves the measured ones, while the host's slow spells slow the
stages and the probe together and largely cancel. (An interpreter loop
was tried in the kernel too; scaled by it, the stages' times spread more
than scaled by the numpy part alone, on every stage.)
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# median probe time on the reference machine (README, "Machine"): a run at
# that speed reports its measured times unchanged
REFERENCE_S = 0.0088
INTERVAL_S = 1.0  # one burst of probes per second of wall time
BURST = 3  # probes per burst
WINDOW_S = 5.0  # probes this close to an interval set its factor
MIN_PROBES = 12  # with fewer in the window, the run's median is used


class SpeedProbe:
    """Collects probe timings spread over a run; see the module docstring."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # the kernel writes into these buffers and allocates nothing, so it
        # does not move the allocator's thresholds under lidkit's arrays
        self._signal = rng.standard_normal(1 << 14)
        self._spectrum = np.empty((1 << 13) + 1, dtype=np.complex128)
        self._back = np.empty(1 << 14)
        self._a = rng.standard_normal((256, 256))
        self._b = rng.standard_normal((256, 256))
        self._product = np.empty((256, 256))
        self.samples = []  # (perf_counter at the probe's start, its duration)
        self.spent_s = 0.0  # wall time spent probing, to leave out of timed intervals
        self._paused = False
        for _ in range(BURST):  # the first calls pay for allocation and FFT plans
            self._kernel()

    def _kernel(self):
        for _ in range(16):
            np.fft.rfft(self._signal, out=self._spectrum)
            np.fft.irfft(self._spectrum, n=self._back.size, out=self._back)
        for _ in range(2):
            np.matmul(self._a, self._b, out=self._product)

    def _burst(self, *_):
        if self._paused:
            return
        start = time.perf_counter()
        for _ in range(BURST):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        self.spent_s += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S of wall time while the block runs.

        The handler runs in the main thread between two bytecodes, so it
        may land inside lidkit's code; it shares no state with it."""
        previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def median_s(self, start=float("-inf"), end=float("inf")):
        """Median probe time within WINDOW_S of [start, end] (``perf_counter``
        times), or of the whole run if that window holds too few probes."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_PROBES:
            near = [d for _, d in self.samples]
        return statistics.median(near) if near else REFERENCE_S

    @contextlib.contextmanager
    def paused(self):
        """No probes while the block runs: used while a child process
        works, which a probe on the other core would slow down."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def factor(self, start=float("-inf"), end=float("inf")):
        """How much slower than the reference the machine ran around
        [start, end]."""
        return self.median_s(start, end) / REFERENCE_S
