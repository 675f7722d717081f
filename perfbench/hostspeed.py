"""Host-speed calibration for the timed jobs.

The benchmark host shares its cores with other tenants, and their load
changes its speed by 20-40% in phases lasting from seconds to minutes,
on every core at once.  Repeating a job cannot average that away within
one run, so every job is bracketed by a fixed calibration loop (pure
Python and small numpy products, no simulator code), and the job's wall
time is scaled to the reference speed at which the loop takes
``REFERENCE_S``.  A change to the simulator cannot change the loop's
speed, so the scaled time still moves one-for-one with the simulator's
own cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Calibration-loop time that defines the reference host speed.
REFERENCE_S = 0.004

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))
_VECTOR = np.ones(8)


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(2000):
        v = _MATRIX.dot(_VECTOR)
        v += 1.0
    return time.perf_counter() - start


def probe_s(repeats: int = 3) -> float:
    """Median time of the calibration loop, run now."""
    return statistics.median(_loop() for _ in range(repeats))
