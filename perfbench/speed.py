"""Times corrected for the host's drifting speed.

The benchmark's host gives it shared cores whose speed drifts: the same
pure-Python loop takes 26 ms in one ten-second stretch and 42 ms in the
next, and process CPU time drifts with it, so neither wall time nor CPU
time of one run says how much work the program did.

``Meter`` measures the drift while the workload runs.  A timer signal
every ``PERIOD_S`` runs a fixed calibration chunk (a numpy sort plus
dict and tuple work in Python) and records how long it took.  Of the
chunks tried, this mix tracked the decision engine's own slowdowns
best: it cut the standard deviation of 10-second medians of three
decision workloads from 12-16 % to 2-5 %.  An interval measured with
``stamp`` is then reported in reference seconds:

    (raw seconds - time spent in the meter) * REF_CHUNK_S / median chunk

where the median is over the chunks run within ``WINDOW_S`` of the
interval.  A reference second is the time the same work takes on a host
where one chunk takes ``REF_CHUNK_S``.  The calibration code is the
benchmark's own, so a change to the program moves these times and a
change of the host's speed does not.

Without a running meter (traced runs, or a meter that has no samples)
``seconds`` gives raw wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.04
WINDOW_S = 1.0
# about the median chunk time on the 2-core 2.1 GHz Xeon box the baseline
# was measured on (Python 3.11, numpy 2.4).  Changing it or chunk()
# rescales every time, so do either only together with a new baseline.
REF_CHUNK_S = 0.0009

_clock = time.perf_counter
_WORDS = np.random.default_rng(12345).integers(0, 1 << 20, size=1 << 20)  # 8 MiB


def chunk() -> int:
    """The fixed calibration work; independent of normgroups."""
    acc = int(np.sort(_WORDS[::48])[0])
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= table[key] & 0xFF
    return acc


class Meter:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent in the signal handler so far
        self._previous = None

    def stamp(self) -> tuple[float, float]:
        return (_clock(), self.spent)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = _clock()
        try:
            chunk()
        except MemoryError:  # the workload is at its address-space limit
            pass
        else:
            t1 = _clock()
            self.starts.append(t0)
            self.durations.append(t1 - t0)
        self.spent += _clock() - t0

    def speed_factor(self, t0: float, t1: float) -> float:
        """REF_CHUNK_S over the median chunk time around [t0, t1]; 1 without samples."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi - lo < 5:  # too few near the interval: use the nearest ones
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo, hi = max(0, mid - 10), min(len(self.starts), mid + 10)
        if hi <= lo:
            return 1.0
        return REF_CHUNK_S / statistics.median(self.durations[lo:hi])

    def seconds(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Reference seconds between stamps a and b."""
        raw = (b[0] - a[0]) - (b[1] - a[1])
        return raw * self.speed_factor(a[0], b[0])
