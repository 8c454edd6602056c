"""Machine-speed calibration, so that times from different runs compare.

On a 2-core x86-64 container shared with other jobs, the same code ran
up to twice as fast in some stretches as in others: stretches of seconds
to tens of seconds, with CPU time equal to wall time and no steal time
reported.  Raw pass times of two 30 s runs differed by 15% or more.  The
benchmark therefore times a fixed calibration burst next to every solve
and reports reference seconds: wall seconds times REFERENCE_S over the
burst's time, the time the work would take on a machine where one burst
takes REFERENCE_S.  In a trial of five 30 s runs of tables-test1 this
cut the interquartile spread of the median pass time from 0.128 to 0.034
of the median.

The burst uses numpy only, no slabsm code, so no change to the solver
moves it.  It is a Python loop over small-array numpy arithmetic, the
kind of work the solver's inner loops do.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010
_ITERATIONS = 1500


def calibrate() -> float:
    """Wall seconds of one calibration burst."""
    x = np.linspace(0.1, 1.0, 80).reshape(10, 8)
    y = np.ones((10, 8))
    start = time.perf_counter()
    for _ in range(_ITERATIONS):
        y = (3.0 * x + y) * 0.5 - x * y / (x + 2.0)
    return time.perf_counter() - start
