"""Machine-speed reference for the untraced timed section.

On a small shared virtual machine the speed of a vCPU drifts by 20 % and
more over tens of seconds, which no amount of repetition inside one run
averages out. :class:`RefClock` samples that speed while the workload runs:
a ``SIGALRM`` timer interrupts the workload every ``INTERVAL_S`` and runs a
fixed reference kernel, benchmark code that never changes with the program,
and times it. The work time between two bursts, divided by the local burst
time, is the work in units of the reference kernel. Scaled by
``REF_NOMINAL_S``, the summed work reads like seconds on a machine whose
burst takes ``REF_NOMINAL_S``.

The bursts take about 1 % of the section. They touch no program state and
are subtracted from the measured wall time.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
BURST_ITERATIONS = 100
# Median burst time on the 2-vCPU machine the benchmark was defined on.
REF_NOMINAL_S = 0.6e-3
# Bursts in the rolling median that sets the local speed (about 0.15 s):
# the speed changes within a second, so the window is short.
WINDOW = 3

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(32, 32)) / 6.0
_X0 = _rng.normal(size=32)


def reference_kernel(n: int = BURST_ITERATIONS) -> float:
    """Small matrix-vector steps in a Python loop, like the workloads' inner loops."""
    x, acc = _X0, 0.0
    for i in range(n):
        y = np.tanh(_A @ x)
        acc += float(y[i % 32])
        x = 0.5 * y + 0.1
    return acc


class RefClock:
    """Context manager timing a section together with reference bursts."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.t0 = self.t1 = 0.0
        self._previous = None

    def _burst(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def work_s(self) -> float:
        """Wall time of the section without the bursts."""
        return self.t1 - self.t0 - float(sum(self.durations))

    def calibrated_s(self) -> float:
        """Work time scaled to the reference speed (see the module docstring)."""
        if not self.durations:
            return self.work_s
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        # Gap i is the work before burst i; the last gap runs to the end.
        gaps = np.append(starts, self.t1) - np.insert(starts + durations, 0, self.t0)
        half = WINDOW // 2
        local = np.array([np.median(durations[max(0, i - half):i + half + 1])
                          for i in range(durations.size)])
        return float(np.sum(gaps / np.append(local, local[-1])) * REF_NOMINAL_S)

    def summary(self) -> dict:
        """Raw and calibrated times plus every burst, for the result file."""
        return {"work_s": self.work_s, "calibrated_s": self.calibrated_s(),
                "burst_starts_s": [t - self.t0 for t in self.starts],
                "burst_s": self.durations, "end_s": self.t1 - self.t0}
