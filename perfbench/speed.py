"""Wall times rescaled to a fixed machine speed.

The shared 2-core VM this benchmark was tuned on runs the same
single-threaded code at two speeds about 1.8x apart, in stretches of tens
of seconds to minutes, with CPU time equal to wall time and no steal time.
A 45 s run can sit wholly in either stretch, so raw wall times of ten runs
spread over both speeds whatever a run does to average them.

SpeedProbe measures the machine's speed while the workload runs. A SIGALRM
handler, fired every PERIOD_S seconds of wall time, runs one calibration
slice and records when it started and ended. A slice does a fixed amount of
each kind of work the package does: numpy calls on one (3, 64) state, where
interpreter overhead dominates, the same on a batch of 64 states, LAPACK
inverses of stacked 3x3 matrices, and a plain Python loop. Which kind
follows a solve's speed best differs from solve to solve: over 15 repeats
of each workload's serial and MGRIT solves spread over both speeds, one
kind alone left 2-19 % rms scatter in the rescaled times, all four together
2-7 %, against 12-25 % in the raw ones.

After the run, a timed region [t0, t1] is split at the slices that fell
inside it, and the slices' own time is left out. Each piece is scaled by
REFERENCE_SLICE_S over the median duration of the 2 * WINDOW + 1 slices
centred on the slice that ends it, the first one after t1 for the last
piece. The window, 0.35 s, smooths one slice's jitter but follows a change
of speed. The result is the region's time, in seconds, at the speed at
which one slice takes REFERENCE_SLICE_S. A change to the package moves it
as it moves the raw time; a change of machine speed moves the slices too
and cancels.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05  # wall time between calibration slices
WINDOW = 3       # slices on each side of the median that scales a piece
# A slice's duration in the fast stretches of the 2.1 GHz Xeon VM the
# benchmark was tuned on, so rescaled times read as seconds at that speed.
REFERENCE_SLICE_S = 0.005

_STATE = np.linspace(0.0, 1.0, 3 * 64).reshape(3, 64)
_BATCH = np.linspace(0.0, 1.0, 64 * 3 * 64).reshape(64, 3, 64)
_MATRICES = 3.0 * np.eye(3) + np.linspace(0.0, 1.0, 64 * 9).reshape(64, 3, 3)


def _smooth(a: np.ndarray) -> np.ndarray:
    b = np.roll(a, 1, axis=-1)
    a = 0.5 * (a + b) + 1e-3 * np.abs(a - b)
    return np.where(a > 0.5, a, a + 1e-3) - a.sum(axis=-1, keepdims=True) * 1e-6


def calibration_slice() -> float:
    """A fixed amount of each kind of work, about 1.2 ms each at the
    reference speed; returns a checksum."""
    state, batch = _STATE, _BATCH
    for _ in range(60):
        state = _smooth(state)
    for _ in range(14):
        batch = _smooth(batch)
    for _ in range(32):
        inverse = np.linalg.inv(_MATRICES)
    x = 0
    for i in range(15000):
        x = (x * 31 + i) % 1000003
    return float(state[0, 0] + batch[0, 0, 0] + inverse[0, 0, 0]) + x


class SpeedProbe:
    """Calibration slices every PERIOD_S seconds between start() and stop()."""

    def __init__(self):
        self.slices: list = []  # (start, end) of each slice, in time order
        self._busy = False

    def _slice(self, *_):
        if self._busy:  # a slice held up past the next tick; keep order
            return
        self._busy = True
        try:
            start = time.perf_counter()
            calibration_slice()
            self.slices.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stops the timer and takes one last slice, so every timed region
        has a slice after it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()

    def unscaled(self, t0: float, t1: float) -> float:
        """[t0, t1] less the slices inside it, at the speed it ran at."""
        return t1 - t0 - sum(end - start for start, end in self.slices
                             if t0 <= start and end <= t1)

    def rescaled(self, t0: float, t1: float) -> float:
        """[t0, t1] less the slices inside it, at the reference speed."""
        durations = [end - start for start, end in self.slices]
        total, cursor = 0.0, t0
        for index, (start, end) in enumerate(self.slices):
            if end <= t0:
                continue
            nearest = durations[max(index - WINDOW, 0):index + WINDOW + 1]
            total += ((min(start, t1) - cursor) * REFERENCE_SLICE_S
                      / statistics.median(nearest))
            if start >= t1:
                return total
            cursor = end
        raise ValueError("no calibration slice after the timed region")
