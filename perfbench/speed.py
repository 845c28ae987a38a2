"""Machine-speed reference: a fixed loop that shares no code with xqmetro.

The benchmark's host is shared.  Its speed drifts by 20% and more over tens
of seconds, and ``process_time`` drifts with it.  Each worker times this loop
right before and right after the workload body, and between its parts when
the body is long.  Every time from that repetition is then scaled by
``REFERENCE_S / mean(loop times)``.  That expresses it in seconds of a machine
on which the loop takes ``REFERENCE_S``.  The loop does the same kind of work
as the package: interpreter-bound Python around 4-element numpy arrays.
"""

import time

import numpy as np

REFERENCE_S = 0.15
_ITERATIONS = 30_000
_VECTOR = np.linspace(0.1, 0.9, 4)


def calibrate() -> float:
    """Seconds taken by the fixed reference loop."""
    start = time.perf_counter()
    total = 0.0
    for i in range(_ITERATIONS):
        v = _VECTOR * (i % 7) + 1.0
        total += float(v[0] * v[1] - v[2:] @ v[2:]) + abs(complex(i, 1.0))
    return time.perf_counter() - start
