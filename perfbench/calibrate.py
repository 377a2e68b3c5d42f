"""Machine-speed calibration for the timed figures.

The benchmark runs on shared hosts whose speed changes by up to 1.9x for
minutes at a time: the median of discrepancy(8) over 10-second windows moved
between 121 and 254 ms within one ten-minute recording, with pelljeru and the
process unchanged.  No statistic taken within a 20-second run removes that,
because whole runs fall into slow periods.  So every timed interval is paired
with this fixed kernel, timed just before and just after it, and is scaled
by REFERENCE_S over the kernel's mean time.  A figure then reads as the time
the interval would take on a host where the kernel takes REFERENCE_S.

The kernel uses no pelljeru code, so a change to pelljeru moves the scaled
figures exactly as it moves the wall times.  It mixes interpreter-bound work
(big-integer arithmetic, comparisons, dict and list traffic) with many small
numpy calls, which is what the workloads' ops are made of; a kernel of large
array traffic tracked the slowdowns less well and was left out.  Over an
eight-minute recording, scaling cut the spread (interquartile range over
median) of 20-second medians from 0.25 to 0.04 for discrepancy(8) and from
0.29 to 0.02 for the queries op.  The host's speed also swings within a
second (one kernel pass reads 3.0 ms, then 6.0 ms a second later), so an
op that lasts about that long, like a CLI process, is tracked less well.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.003


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel (about 3.4 ms on a quiet 2.1 GHz Xeon)."""
    t0 = perf_counter()
    acc = 0
    x = 10**22 + 7
    for i in range(6000):
        lo, mid = x // 3, x // 7
        if lo <= i * 1000003 < lo + mid:
            acc += 1
        x = (x * 5 + i) % (10**22)
    table = {i: (i, str(i)) for i in range(2000)}
    acc += sum(v[0] for v in table.values())
    u = (np.arange(400, dtype=np.float64) + 0.5) / 400
    for _ in range(120):
        m = (u >= 0.41) & (u < 0.59)
        w = np.where(m, u / 0.17, np.where(u < 0.41, u / 0.41, (u - 0.59) / 0.41))
        np.packbits(m | (w > 0.5))
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time bracketed by two kernel timings into reference time."""
    return 2 * REFERENCE_S / (before + after)
