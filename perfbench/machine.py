"""Gauge of the machine's current speed, sampled while timed work runs.

On a shared machine other tenants slow every computation down, in waves
that come and go within a second and last up to minutes. Wall-clock times
of the same work then spread by half or more between runs. The sampler
runs a fixed probe every INTERVAL_S from a SIGALRM handler while the timed
work runs, and the benchmark divides the work's time (less the time spent
in the handler) by the probe's mean slowdown against NOMINAL_S. The probe
does the kind of arithmetic a trial step does, on fixed inputs that never
come from gridwatch, so no change to gridwatch can change it.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

INTERVAL_S = 0.05
REPS = 4
# Probe time on a quiet machine. Fixed for good: every reported time is
# rescaled to a machine on which the probe takes this long.
NOMINAL_S = 0.00083


class Probe:
    """One filter-update-like computation: a 115 x 115 Cholesky solve and
    small per-meter array operations, REPS times over."""

    def __init__(self):
        rng = np.random.default_rng(20180301)
        self.H = np.repeat(rng.standard_normal((23, 13)), 5, axis=0)
        self.P = 1e-4 * np.eye(13)
        self.x = rng.standard_normal(13)
        self.y = rng.standard_normal(115)
        self.seconds()  # the first call pays for lazy loading

    def seconds(self) -> float:
        H, P, x, y = self.H, self.P, self.x, self.y
        t0 = time.perf_counter()
        for _ in range(REPS):
            PHt = P @ H.T
            S = H @ PHt
            S.flat[:: S.shape[0] + 1] += 1e-4
            G = cho_solve(cho_factor(0.5 * (S + S.T), lower=True, check_finite=False), PHt.T).T
            r = y - H @ x
            e = (r - H @ (G @ r)).reshape(23, 5)
            d = e.sum(axis=1)
            z = (e * e).sum(axis=1)
            np.argmin(np.vstack([z, z - d, z + d, d]), axis=0)
            float(np.linalg.norm(r))
        return time.perf_counter() - t0


class Sampler:
    """Probe samples (start, seconds in handler, slowdown) over a window.

    Single-threaded use only: SIGALRM handlers run in the main thread.
    """

    def __init__(self):
        self.probe = Probe()
        self.samples = []
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        s = self.probe.seconds()
        self.samples.append((t, time.perf_counter() - t, s / NOMINAL_S))
        self._busy = False

    def start(self):
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return self.samples


def window(samples, start: float, end: float) -> "tuple[float, float]":
    """(seconds spent probing, mean slowdown) for samples taken in [start, end).

    Without a sample inside the window, the nearest samples gauge it.
    """
    inside = [(d, s) for t, d, s in samples if start <= t < end]
    spent = sum(d for d, _ in inside)
    if not inside:
        inside = sorted(((abs(t - start), d, s) for t, d, s in samples))[:2]
        inside = [(d, s) for _, d, s in inside]
    return spent, sum(s for _, s in inside) / len(inside)
