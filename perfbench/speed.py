"""The machine's speed, sampled next to every timed call.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to about 1.5x over seconds, as neighbours come and go. A fixed
pure-Python reference kernel is timed between the engine's calls, and
each call's duration is scaled by ``REF_NS`` over the kernel's time
measured next to it: the figures read as the durations the calls would
have taken on a machine on which the kernel takes ``REF_NS``. The kernel
never changes with the engine, so a change to the engine moves the scaled
figures exactly as it moves the raw ones at a fixed machine speed.

The kernel does the kind of interpreter work the engine does: function
and method calls, tuple keys, dict probes and updates, and int and float
arithmetic, over data larger than the core's caches.
"""

from __future__ import annotations

import gc
import random
from array import array
from time import perf_counter_ns

import numpy as np

# The kernel's time, in ns, on the machine the figures are scaled to: a
# 2-vCPU Xeon VM (2.1 GHz) with Python 3.11 at its fast speed.
REF_NS = 1_000_000
# Reference samples are taken between calls, at most this often, and
# three at a time after a longer gap, so that a long call (a set-up, a
# batch, a listing) has several samples on either side.
INTERVAL_NS = 40_000_000
LONG_NS = 200_000_000
# A call's speed is the median of the samples this close to it.
NEAR_NS = 100_000_000

_rng = random.Random(20230315)
_N = 20_480
# A relation L(A, B) with real payloads, and one R(B, C) with integer
# payloads grouped by B, about ten entries a group.
_LEFT = [((_rng.randrange(2000), _rng.randrange(2000)), _rng.uniform(-1.0, 1.0)) for _ in range(_N)]
_RIGHT: dict = {}
for _ in range(_N):
    _RIGHT.setdefault(_rng.randrange(2000), []).append((_rng.randrange(500), _rng.randrange(1, 9)))
_STEP = 128


def _mul(a, b):
    return a * b


def _add(a, b):
    return a + b


class _Sums:
    def __init__(self) -> None:
        self.entries: dict = {}

    def accumulate(self, key: tuple, val) -> None:
        old = self.entries.get(key)
        if old is None:
            self.entries[key] = val
            return
        val = _add(old, val)
        if val == 0:
            del self.entries[key]
        else:
            self.entries[key] = val


_pos = [0]


def kernel() -> int:
    """Join the next ``_STEP`` tuples of L with R on B, sum the products
    into (A, C), then sum out A: the shape of one delta step of a view
    tree, in plain Python over data the engine never sees."""
    start = _pos[0]
    _pos[0] = (start + _STEP) % _N
    joined = _Sums()
    for (a, b), x in _LEFT[start : start + _STEP]:
        for c, y in _RIGHT.get(b, ()):
            joined.accumulate((a, c), _mul(x, y))
    out = _Sums()
    for (a, c), v in joined.entries.items():
        out.accumulate((c,), v)
    return len(out.entries)


class Speed:
    """Reference samples (midpoint, duration) over one run."""

    def __init__(self) -> None:
        self.at = array("q")
        self.ns = array("q")
        self.last = 0

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times.

        The collector is off meanwhile, so that no collection runs inside
        the kernel. The kernel frees all it allocates, mostly back to the
        interpreter's free lists, so it leaves the collector's counts
        nearly as it found them, and the collections the engine's calls
        meet are the ones they would meet without it.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = perf_counter_ns()
                kernel()
                t1 = perf_counter_ns()
                self.at.append((t0 + t1) // 2)
                self.ns.append(t1 - t0)
                self.last = t1
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        """Sample if the last sample is older than ``INTERVAL_NS``."""
        gap = perf_counter_ns() - self.last
        if gap >= INTERVAL_NS:
            self.sample(3 if gap >= LONG_NS else 1)

    def scale(self, start, dur) -> np.ndarray:
        """``REF_NS`` over the kernel's time near each call (start, dur in ns).

        The kernel's time is the median of the samples within ``NEAR_NS``
        of the call, or of the last sample before it and the first after it
        when none is that close.
        """
        at = np.frombuffer(self.at, dtype=np.int64)
        ns = np.frombuffer(self.ns, dtype=np.int64)
        start = np.asarray(start, dtype=np.int64)
        end = start + np.asarray(dur, dtype=np.int64)
        lo = np.searchsorted(at, start - NEAR_NS)
        hi = np.searchsorted(at, end + NEAR_NS)
        out = np.empty(len(start))
        memo: dict = {}
        for i in range(len(start)):
            a, b = lo[i], hi[i]
            if b - a < 2:
                a = max(0, min(a, np.searchsorted(at, start[i]) - 1))
                b = min(len(at), max(b, np.searchsorted(at, end[i]) + 1))
            if (a, b) not in memo:
                memo[a, b] = REF_NS / float(np.median(ns[a:b]))
            out[i] = memo[a, b]
        return out
