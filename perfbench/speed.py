"""The machine's current speed, from a fixed calibration kernel.

On a shared host the same code runs up to 1.8x slower for seconds to
minutes at a time, and a slow spell reaches the interpreter loop, small
numpy calls and memory alike.  ``Speed`` times a fixed kernel (pure Python
integer and set work, small and medium numpy calls, the mix a trajindex
query, build or load runs, plus reads at random places of a list too large
for the caches) just before and just after every timed operation.  The
operation is then reported at the reference speed:

    reported = measured * REF_NS / k

where ``k`` is the mean kernel time of the two samples around it.  The
kernel shares no code with trajindex, so a change to the program moves the
reported times, while a change of the machine's pace mostly cancels.
``REF_NS`` is a fixed constant: a reported time reads as the time on a
machine on which one kernel run takes ``REF_NS``.
"""

from __future__ import annotations

import time

import numpy as np

REF_NS = 4_000_000      # kernel time of the reference machine


class Speed:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._words = [int(w) for w in rng.integers(0, 2**62, 4000)]
        self._ids = rng.integers(0, 5000, 3000).tolist()
        self._small = rng.random(6000)
        self._sorted = np.sort(rng.random(3000))
        self._medium = rng.random(40000)
        self._far = list(range(2_000_000))
        self._far_at = rng.integers(0, len(self._far), 3750).tolist()
        self.at: list[int] = []      # sample midpoints, perf_counter ns
        self.ns: list[int] = []      # kernel time of each sample

    def _kernel(self) -> int:
        acc = 0
        for i, w in enumerate(self._words):
            acc += (w >> (i & 31)).bit_count() + (w & 0xFFFF).bit_length()
            if w & 1:
                acc ^= i
        seen = set(self._ids[:1500])
        seen.update(self._ids[1000:])
        acc += len(seen)
        small, ref = self._small, self._sorted
        for k in range(100):
            part = small[k * 50: k * 50 + 200]
            acc += int(np.flatnonzero((part >= 0.25) & (part < 0.5)).size)
            acc += int(np.searchsorted(ref, part[:32])[-1])
        acc += int(np.argsort(self._medium)[0])
        far = self._far
        for i in self._far_at:
            acc += far[i]
        return acc

    def sample(self) -> None:
        """Time one kernel run.  A first, untimed run brings the kernel's
        data back into the caches, so the measured operation that ran just
        before (a build that churns the caches, say) does not slow the
        timed run and so does not move its own scaling."""
        self._kernel()
        clock = time.perf_counter_ns
        t0 = clock()
        self._kernel()
        t1 = clock()
        self.at.append((t0 + t1) // 2)
        self.ns.append(t1 - t0)

    def factor(self, at) -> np.ndarray:
        """``REF_NS / k`` for each time in ``at`` (perf_counter ns), with
        ``k`` the mean of the last sample before and the first after it."""
        ks = np.asarray(self.ns, dtype=np.float64)
        after = np.searchsorted(np.asarray(self.at), np.atleast_1d(at))
        after = np.clip(after, 1, len(ks) - 1)
        return REF_NS / ((ks[after - 1] + ks[after]) / 2)

    def scale(self, seconds, at) -> np.ndarray:
        """Measured durations, taken at times ``at``, at the reference speed."""
        return np.asarray(seconds, dtype=np.float64) * self.factor(at)
