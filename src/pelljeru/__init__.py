"""Integer Jerusalem-square and Jerusalem-cube grids built on Pell numbers.

The construction tiles a square of side ``pell(n)`` with four corner blocks of
side ``pell(n-1)``, four edge blocks of side ``pell(n-2)`` flush against the
outer boundary, and a removed central cross; the 3D analog uses 8 corner and
12 edge blocks.  Because consecutive Pell ratios converge to the silver ratio
1 + sqrt(2), these integer grids approximate the irrational-ratio Jerusalem
fractal, and this package measures how well.
"""

import importlib

from .pell import (
    N_MAX,
    SILVER_RATIO,
    INVERSE_SILVER,
    PellIndexError,
    RatioDiagnostic,
    pell,
    ratio_diagnostic,
    verify_recurrence,
)
from .metrics import (
    DimensionEstimate,
    MetricsReport,
    count2d_recurrence,
    count3d_recurrence,
    dim_analytic,
    dim_estimate,
    report,
)

# Names whose modules import numpy: each module loads on first use of one of
# its names.  Resolved names are not cached in this namespace, so a name
# rebound in its module (a tracing wrapper, say) is seen here, and so is
# its removal.
_LAZY_NAMES = {
    "grid2d": ("MAX_BUILD_2D", "BuildLimitError", "CoordinateError", "Grid2D", "build2d",
               "contains2d", "corner_subgrid", "subgrid"),
    "grid3d": ("MAX_BUILD_3D", "Grid3D", "build3d", "contains3d", "subgrid3"),
    "exact": ("ExactModel", "UnitPoint", "discrepancy", "exact_contains", "rasterize_exact"),
    "export": (),
}
_LAZY = {name: module for module, names in _LAZY_NAMES.items() for name in (module, *names)}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = importlib.import_module(f".{module}", __name__)
    return found if name == module else getattr(found, name)


__version__ = "0.1.0"

__all__ = [
    "N_MAX",
    "SILVER_RATIO",
    "INVERSE_SILVER",
    "PellIndexError",
    "RatioDiagnostic",
    "pell",
    "ratio_diagnostic",
    "verify_recurrence",
    "DimensionEstimate",
    "MetricsReport",
    "count2d_recurrence",
    "count3d_recurrence",
    "dim_analytic",
    "dim_estimate",
    "report",
    "export",
    *(name for names in _LAZY_NAMES.values() for name in names),
]
