"""Host-speed correction for the end-to-end attack timings.

The benchmark shares its host with other machines, and the speed of a
virtual CPU changes by up to 2x for seconds at a time: a fixed 5 ms loop
pinned to one CPU reads 5 ms or 10 ms from one second to the next, with no
steal time reported and no link to the other CPU. Wall time alone measures
the host's load more than the program. So while an attack runs, a timer
interrupts it every ``INTERVAL_S`` and times one fixed reference kernel. The
samples are spread evenly in time, so their mean speed is the host's mean
speed over the attack, and the attack's own time (the kernel's time taken
out) is scaled to what it would be at the kernel's nominal speed.

The host does not slow every kind of code alike, so each workload names the
kernel that matches where its attack spends its time (``KERNELS``):
``interpreted`` runs dozens of single-row numpy calls from the interpreter,
as fuzzing and whitebox synthesis do; ``batched`` repeats one 392-feature
row into a 393-row batch and runs it through two dense layers, as a blackbox
finite-difference step does. The program's code never runs inside a kernel,
so a faster or slower program still shows in full.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# Nominal seconds per kernel call: the 5th percentile of 3000 calls run
# alone on the 2-vCPU host the benchmark was sized on. Any fixed value
# would serve; a sample taken inside an attack runs on caches the attack
# has filled, so attack_s reads below the attack's wall time even there.
KERNELS = {"interpreted": 1.9e-4, "batched": 5.2e-4}

clock = time.perf_counter


class SpeedMeter:
    """``scaled_s, raw_s, result = SpeedMeter(kernel).time(fn)``: ``raw_s``
    is ``fn``'s wall time without the samples, ``scaled_s`` that time at the
    kernel's nominal speed."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.nominal_s = KERNELS[kernel]
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64))
        self._v = rng.standard_normal(13)
        self._row = rng.standard_normal(392)
        self._w1 = rng.standard_normal((392, 64)) / 20.0
        self._w2 = rng.standard_normal((64, 32)) / 8.0
        self._samples: list[float] = []

    def _kernel(self):
        if self.kernel == "batched":
            batch = np.repeat(self._row[None, :], 393, axis=0)
            return np.maximum(np.maximum(batch @ self._w1, 0) @ self._w2, 0)
        a, v, s = self._a, self._v, 0.0
        for i in range(60):
            s += float(a[i] @ a[:, i]) + float(np.abs(v).max())
        return s

    def _sample(self, signum, frame):
        t = clock()
        self._kernel()
        self._samples.append(clock() - t)

    def time(self, fn):
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            t = clock()
            result = fn()
            wall = clock() - t
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = wall - sum(self._samples)
        # A call shorter than one interval gets the one sample taken after it.
        if not self._samples:
            self._sample(None, None)
        speed = (sum(self.nominal_s / s for s in self._samples)
                 / len(self._samples))
        return raw * speed, raw, result
