"""The host's speed at a moment, from the time of a fixed loop.

On a shared host the CPU runs up to half again as slow for spells of a
second to minutes, so wall times of the same work spread by more than a
performance change one wants to see.  :func:`loop_s` times a fixed loop
of the kinds of work the package does (integer and float arithmetic in
the interpreter, ``math`` calls, small numpy operations).  The benchmark
runs it before and after every timed request and scales the request's
wall time by ``REFERENCE_S`` over the mean of the two loop times: the
time the request would take on a host where the loop takes
``REFERENCE_S``.  The loop shares no code with the package, so a change
to the package moves the scaled time exactly as it moves the wall time.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the loop's time on the 2-core VM the baseline was taken on, in its
# faster spells; it sets only the scale of the reported times
REFERENCE_S = 0.004

_X = np.linspace(0.0, 1.0, 33)


def loop_s() -> float:
    """Wall time of one fixed loop of about 4 ms."""
    t0 = time.perf_counter()
    n = 0
    for i in range(20000):
        n += i * i % 7
    x = 0.0
    for i in range(8000):
        u = i * 1e-3
        x += math.sin(u) * math.exp(-u) + u * u
    for i in range(300):
        x += float(np.dot(np.sin(_X * i), np.exp(-_X)))
    return time.perf_counter() - t0


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` on a host where the loop takes ``REFERENCE_S``."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
