"""Machine-speed gauge: a fixed numpy kernel timed around every measurement.

On a shared machine the same code runs at different speeds over time: while
neighbours load the machine, every computation here can take up to twice as
long, for seconds to minutes at a time.  A run cannot average that away, so
each timing is scaled by how fast a gauge kernel ran right around it:

    scaled_ms = measured_ms * REFERENCE_MS[kind] / gauge_ms

where `gauge_ms` is the mean of the gauge runs just before and just after
the measurement (and any during it).  Callers run the gauge between every
two measurements.  `REFERENCE_MS` is each kernel's time on an idle 2-CPU
machine (Python 3.11, numpy 2.4), so scaled times read as milliseconds at
that speed.  Contention slows different kinds of work by different amounts, so
each workload uses the kernel most like its own hot path:

- desk: im2col convolutions on desk-sized planes plus a loop of tiny
  elementwise ops, like the tape at desk scale;
- dp: an anti-diagonal soft-min dynamic program, like soft-DTW;
- desk-cpus: the desk kernel once on each allowed CPU, averaged, for work
  that spreads over both CPUs (the sweep's thread pool);
- wall: no kernel; times stay as measured.  For paper-scale codec calls no
  kernel tracked the noise, and every one tried widened the spread.

The kernels are benchmark code and never call the program, so a change to
the program cannot move them.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REFERENCE_MS = {"desk": 5.0, "dp": 11.0, "desk-cpus": 15.0, "wall": None}


def _conv(x, w):
    cin = x.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = sliding_window_view(xp, (3, 3), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    return w @ cols.reshape(cin * 9, -1)


class Gauge:
    def __init__(self, kind, tracer=None):
        if kind not in REFERENCE_MS:
            raise ValueError(f"unknown gauge kind {kind!r}")
        self.kind = kind
        self.tracer = tracer      # when tracing, gauge runs get their own span
        self.each_cpu = kind.endswith("-cpus")
        rng = np.random.default_rng(20230309)
        if kind.startswith("desk"):
            self._x = rng.normal(size=(16, 64, 32))
            self._w = rng.normal(size=(16, 144))
            self._small = rng.normal(size=(8, 32, 16))
        elif kind == "dp":
            self._a = rng.normal(size=160)
            self._b = rng.normal(size=160)
        self.samples = []   # (end time, gauge ms)
        if kind != "wall":
            self._kernel()  # first call pays for lazy set-up

    def _kernel(self):
        if self.kind.startswith("desk"):
            for _ in range(2):
                out = _conv(self._x, self._w)
                (self._w.T @ out).sum()
            t = self._small
            for _ in range(40):
                t = np.where(t > 0, t, 0.2 * t)
                t = np.repeat(np.repeat(t[:, ::2, ::2], 2, axis=-2), 2, axis=-1) * 0.999
        else:
            _soft_min_dp(self._a, self._b)

    def measure(self):
        """Run the kernel once (on each CPU for desk-cpus) and record the time."""
        if self.kind == "wall":
            return
        if self.tracer is not None:
            self.tracer.timed("perfbench.gauge", self._measure, (), {})
        else:
            self._measure()

    def _measure(self):
        if not self.each_cpu:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.samples.append((end, (end - start) * 1e3))
            return
        cpus = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                self._kernel()
                end = time.perf_counter()
                times.append((end - start) * 1e3)
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.append((end, statistics.fmean(times)))

    def speed_at(self, start, end):
        """Mean gauge ms of the runs adjacent to and inside [start, end]."""
        ends = [t for t, _ in self.samples]
        lo = max(0, bisect.bisect_left(ends, start) - 1)
        hi = min(len(ends), bisect.bisect_right(ends, end) + 1)
        if lo >= hi:
            raise ValueError("no gauge runs recorded")
        return statistics.fmean(ms for _, ms in self.samples[lo:hi])

    def scale(self, ms, start, end):
        if self.kind == "wall":
            return ms
        return ms * REFERENCE_MS[self.kind] / self.speed_at(start, end)


def _soft_min_dp(x, y):
    n, m = x.size, y.size
    d = (x[:, None] - y[None, :]) ** 2
    r = np.full((n + 1, m + 1), np.inf)
    r[0, 0] = 0.0
    for k in range(2, n + m + 1):
        i = np.arange(max(1, k - m), min(n, k - 1) + 1)
        j = k - i
        a, b, c = r[i - 1, j], r[i, j - 1], r[i - 1, j - 1]
        low = np.minimum(np.minimum(a, b), c)
        finite = np.isfinite(low)
        shift = np.where(finite, low, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.exp(shift - a) + np.exp(shift - b) + np.exp(shift - c)
            r[i, j] = d[i - 1, j - 1] + np.where(finite, low - np.log(s), np.inf)
    return r[n, m]
