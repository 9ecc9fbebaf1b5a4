"""Host-speed calibration of CPU-time measurements.

On a shared virtual machine the CPU time one operation takes swings by
tens of percent from one minute to the next as other guests load the
same cores. The benchmark therefore times a fixed piece of pure-Python
work (canonical keys from reference.py and a Fraction elimination; no
package code, so no change to the package moves it) before and after
each block of operations, and scales the block's CPU times to a
reference host on which that work takes REFERENCE_S.
"""

from __future__ import annotations

from fractions import Fraction
from time import process_time

from reference import one_twist_key

REFERENCE_S = 0.0008
REPEATS = 3

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 3 + 1) for j in range(7)]
           for i in range(7)]
_VECTORS = ((1, 2, 3, -1), (2, -2, 3, 1), (0, 1, 3, 3))


def _work() -> int:
    keys = [one_twist_key(v) for v in _VECTORS]
    a = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(len(a)):
        pivot = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][c]
        for i in range(rank + 1, len(a)):
            f = a[i][c] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank + len(keys)


def kernel_s() -> float:
    """CPU seconds the fixed work takes now: the median of REPEATS timings."""
    times = []
    for _ in range(REPEATS):
        t0 = process_time()
        _work()
        times.append(process_time() - t0)
    return sorted(times)[REPEATS // 2]


def factor(before: float, after: float) -> float:
    """Scale from this host's CPU seconds to reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
