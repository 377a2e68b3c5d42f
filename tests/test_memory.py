"""Traced memory peaks of the dense builds at and just past their guards,
and of the mesh writer.

The bounds leave headroom over the measured peaks (about 28 MiB for
build2d(12), 116 MiB for build3d(9) and 50 MiB for discrepancy(12)), of
which the packed results are 23 MiB, 115 MiB and twice 23 MiB.  The obj
writer at level 6 peaks at 34 MiB; its bound is the 41 MiB that the
per-face dictionary encoder it replaced used.
"""

import io
import tracemalloc

import pytest

from pelljeru import build2d, build3d, discrepancy
from pelljeru.export import write3d

MIB = 1 << 20


@pytest.mark.parametrize("call, bound_mib", [
    (lambda: build2d(12), 64),
    (lambda: build3d(9, max_build=9), 256),
    (lambda: discrepancy(12), 64),
    (lambda: write3d(build3d(6), "obj_mesh", io.BytesIO()), 41),
], ids=["build2d(12)", "build3d(9)", "discrepancy(12)", "obj_mesh(6)"])
def test_traced_peak_within_bound(call, bound_mib):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * MIB, f"traced peak {peak / MIB:.1f} MiB over {bound_mib} MiB"
