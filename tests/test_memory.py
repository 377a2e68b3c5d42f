"""Traced memory peaks of the dense builds and the raster at and just past
their guards, of the mesh writer and of unpacking a level-12 grid.

The bounds leave headroom over the measured peaks (about 28 MiB for
build2d(12), 116 MiB for build3d(9), 29 MiB for the depth-11 raster at
13860 and 52 MiB for discrepancy(12)), of which the packed results are
23 MiB, 115 MiB, 23 MiB and twice 23 MiB.  The obj writer at level 6 peaks
at 34 MiB; its bound is the 41 MiB that the per-face dictionary encoder it
replaced used.  Unpacking build2d(12) peaks at its 183 MiB boolean result;
a copy of the unpacked bytes into a new bool array would double that.
"""

import io
import tracemalloc

import pytest

from pelljeru import ExactModel, build2d, build3d, discrepancy, rasterize_exact
from pelljeru.export import write3d

MIB = 1 << 20


@pytest.mark.parametrize("call, bound_mib", [
    (lambda: build2d(12), 64),
    (lambda: build3d(9, max_build=9), 256),
    (lambda: rasterize_exact(ExactModel(11), 13860), 40),
    (lambda: discrepancy(12), 64),
    (lambda: write3d(build3d(6), "obj_mesh", io.BytesIO()), 41),
], ids=["build2d(12)", "build3d(9)", "raster(13860)", "discrepancy(12)", "obj_mesh(6)"])
def test_traced_peak_within_bound(call, bound_mib):
    assert_peak_within(call, bound_mib)


def test_to_bool_array_peaks_at_its_result():
    assert_peak_within(build2d(12).to_bool_array, 200)


def assert_peak_within(call, bound_mib):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * MIB, f"traced peak {peak / MIB:.1f} MiB over {bound_mib} MiB"
