"""Host speed, read from a fixed reference kernel, to scale measured times.

On a shared virtual machine the host's speed changes by up to half within
seconds and drifts over minutes; Python loops slow down most, numpy scans
less.  A run times ``kernel``, which has one part of each kind, right
before every operation and around every set-up probe.  The kernel is the
benchmark's own code and never calls scoresets, so a change to the
program cannot change it.  A time is multiplied by ``NOMINAL_S`` over the
median kernel time around it: the result is the time the operation would
have taken at the host speed at which the kernel takes ``NOMINAL_S``.
The gated metrics are scaled; the run prints the unscaled ones as well.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure near the median kernel time on the 2-core virtual machine
# that recorded the baseline (runs there read medians of 0.77 to 1.19 ms);
# scaled times read as times on that machine at that speed.
NOMINAL_S = 1.0e-3
# Kernel times on each side of an operation whose median scales it.
WINDOW = 5

_ROWS, _COLS = 120, 300
_ARCS = bytearray(b"\x00\x01\x02" * (_ROWS * _COLS // 3))
_NET = np.array([0, 1, -1], dtype=np.int16)
_SCAN = 1 << 16


def kernel() -> float:
    """Geometric mean of the seconds the kernel's two parts take, so that
    each part weighs the same.  The interpreter's part counts bytes in
    strided slices, builds a string and runs an integer loop, as
    constructions and serialization do; numpy's part scores base-3 digits
    over an array of several hundred kilobytes, as the oracle does."""
    start = time.perf_counter()
    total = 0
    for col in range(_COLS):
        column = _ARCS[col::_COLS]
        total += column.count(1) - column.count(2)
    total += len(",".join(f'{{"u":{i},"v":{i + 1}}}' for i in range(400)))
    for i in range(5000):
        total += i & 7
    middle = time.perf_counter()
    rem = np.arange(5000, 5000 + _SCAN, dtype=np.int64)
    scores = np.full(_SCAN, 3, dtype=np.int16)
    for _ in range(2):
        scores += _NET[rem % 3]
        rem //= 3
    total += int(scores.sum())
    end = time.perf_counter()
    return ((middle - start) * (end - middle)) ** 0.5 if total else 0.0


def scale(times: list[float], refs: list[float]) -> list[float]:
    """``times[i]`` at nominal host speed, from the median of the kernel
    times ``refs`` within ``WINDOW`` places of ``i``."""
    return [
        t * NOMINAL_S / statistics.median(refs[max(0, i - WINDOW) : i + WINDOW + 1])
        for i, t in enumerate(times)
    ]


def around(probe) -> tuple[float, float]:
    """(seconds ``probe()`` took, median kernel time of ``WINDOW`` kernels
    before it and ``WINDOW`` after it)."""
    refs = [kernel() for _ in range(WINDOW)]
    elapsed = probe()
    refs += [kernel() for _ in range(WINDOW)]
    return elapsed, statistics.median(refs)
