"""Traced memory peaks of the dense builds at and just past their guards.

The bounds leave headroom over the measured peaks (about 28 MiB for
build2d(12), 116 MiB for build3d(9) and 92 MiB for discrepancy(12)), of
which the packed results are 23 MiB, 115 MiB and twice 23 MiB.
"""

import tracemalloc

import pytest

from pelljeru import build2d, build3d, discrepancy

MIB = 1 << 20


@pytest.mark.parametrize("call, bound_mib", [
    (lambda: build2d(12), 64),
    (lambda: build3d(9, max_build=9), 256),
    (lambda: discrepancy(12), 112),
], ids=["build2d(12)", "build3d(9)", "discrepancy(12)"])
def test_traced_peak_within_bound(call, bound_mib):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * MIB, f"traced peak {peak / MIB:.1f} MiB over {bound_mib} MiB"
