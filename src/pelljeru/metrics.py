"""Counting, ratio, and dimension measurements for the Pell grids.

Filled-cell counts follow second-order recurrences, so they are computed
without materializing any grid.  Box-counting estimates and two independent
analytic routes to the fractal dimension live here as well.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .pell import N_MAX, INVERSE_SILVER, PellIndexError, RatioDiagnostic, pell, ratio_diagnostic


def count2d_recurrence(n: int) -> int:
    """Filled cells of the level-n square: 4 corner copies + 4 edge copies."""
    if n < 1 or n > N_MAX:
        raise PellIndexError(f"level {n} outside [1, {N_MAX}]")
    a, b = 1, 4  # levels 1 and 2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 4 * b + 4 * a
    return b


def count3d_recurrence(n: int) -> int:
    """Filled voxels of the level-n cube: 8 corner copies + 12 edge copies."""
    if n < 1 or n > N_MAX:
        raise PellIndexError(f"level {n} outside [1, {N_MAX}]")
    a, b = 1, 8
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 8 * b + 12 * a
    return b


class DimensionEstimate(NamedTuple):
    """Box-counting dimension read two ways from (side, filled) data."""

    endpoint: float   # log(filled) / log(side) at the largest side
    slope: float      # least-squares slope of log(filled) vs log(side)


def dim_estimate(entries: Sequence[tuple[int, int]] | Iterable[tuple[int, int]]) -> DimensionEstimate:
    """Estimate dimension from (side, filled_count) pairs.

    Needs at least two entries with strictly increasing sides and positive
    counts; the endpoint read uses only the last pair, the slope read fits
    all of them.  The slope is the centred closed form
    sum((x - mean x)(y - mean y)) / sum((x - mean x)^2) over the math.log
    values, every sum a math.fsum; it lies within 2 ulp of the exact
    least-squares slope of those logs.
    """
    pairs = [(int(s), int(f)) for s, f in entries]
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 entries, got {len(pairs)}")
    sides = [s for s, _ in pairs]
    counts = [f for _, f in pairs]
    if any(s < 1 for s in sides) or any(x >= y for x, y in zip(sides, sides[1:])):
        raise ValueError("sides must be positive and strictly increasing")
    if any(f < 1 for f in counts):
        raise ValueError("filled counts must be positive")
    log_s = [math.log(s) for s in sides]
    log_f = [math.log(f) for f in counts]
    mean_s = math.fsum(log_s) / len(log_s)
    mean_f = math.fsum(log_f) / len(log_f)
    dx = [x - mean_s for x in log_s]
    slope = math.fsum(d * (y - mean_f) for d, y in zip(dx, log_f)) / math.fsum(d * d for d in dx)
    return DimensionEstimate(endpoint=log_f[-1] / log_s[-1], slope=slope)


def dim_analytic(kind: str = "square", method: str = "log") -> float:
    """Exact fractal dimension of the infinite construction.

    kind "square" or "cube"; method "log" evaluates the closed form
    log(growth) / log(1 + sqrt(2)) from the count recurrence's dominant
    root, method "root" solves the copy-scaling equation
    (copies_corner) k^d + (copies_edge) k^(2d) = 1, a quadratic in
    x = k^d, by the quadratic formula and returns log(x) / log(k).  The
    two routes are independent, agree to within 5e-16, and exist to
    cross-check each other.
    """
    if kind not in ("square", "cube"):
        raise ValueError(f"kind must be 'square' or 'cube', got {kind!r}")
    if method not in ("log", "root"):
        raise ValueError(f"method must be 'log' or 'root', got {method!r}")
    if method == "log":
        # dominant roots of x^2 = 4x + 4 and x^2 = 8x + 12
        growth = 2 + 2 * math.sqrt(2) if kind == "square" else 4 + 2 * math.sqrt(7)
        return math.log(growth) / math.log(1 + math.sqrt(2))
    # a x^2 + b x - 1 = 0: 4 edge and 4 corner copies, or 12 and 8
    a, b = (4, 4) if kind == "square" else (12, 8)
    x = (-b + math.sqrt(b * b + 4 * a)) / (2 * a)
    return math.log(x) / math.log(INVERSE_SILVER)


class MetricsReport(NamedTuple):
    n: int
    side: int
    filled_2d: int
    fill_fraction: float
    dim_estimate_2d: DimensionEstimate
    ratio_diag: RatioDiagnostic
    filled_3d: int | None = None
    dim_estimate_3d: DimensionEstimate | None = None
    discrepancy: float | None = None

    _FIELDS = (
        "n", "side", "filled_2d", "fill_fraction",
        "dim2d_endpoint", "dim2d_slope",
        "pell_ratio", "ratio_error_silver", "ratio_error_k",
        "filled_3d", "dim3d_endpoint", "dim3d_slope", "discrepancy",
    )

    def _values(self):
        d3 = self.dim_estimate_3d
        return (
            self.n, self.side, self.filled_2d, self.fill_fraction,
            self.dim_estimate_2d.endpoint, self.dim_estimate_2d.slope,
            self.ratio_diag.ratio, self.ratio_diag.error_to_silver,
            self.ratio_diag.error_to_k,
            self.filled_3d,
            d3.endpoint if d3 else None,
            d3.slope if d3 else None,
            self.discrepancy,
        )

    def to_text(self) -> str:
        lines = []
        for name, value in zip(self._FIELDS, self._values()):
            if value is None:
                continue
            lines.append(f"{name}={value!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls._FIELDS)

    def to_csv_row(self) -> str:
        return ",".join("" if v is None else repr(v) for v in self._values())


def report(n: int, include_3d: bool = False, include_discrepancy: bool = False,
           max_build: int | None = None) -> MetricsReport:
    """Measurements at level n; counts come from recurrences, not builds.

    include_discrepancy is the only expensive flag: it builds the level-n
    grid and rasterizes the continuous model at the same resolution, so it
    is subject to the dense-build guard (override with max_build).
    """
    if n < 2:
        raise ValueError(f"report needs level >= 2, got {n}")
    side = pell(n)
    filled = count2d_recurrence(n)
    est2 = dim_estimate([(pell(m), count2d_recurrence(m)) for m in range(1, n + 1)])
    est3 = None
    filled3 = None
    if include_3d:
        filled3 = count3d_recurrence(n)
        est3 = dim_estimate([(pell(m), count3d_recurrence(m)) for m in range(1, n + 1)])
    disc = None
    if include_discrepancy:
        from .exact import discrepancy  # imports numpy, so only when asked for
        disc = discrepancy(n, max_build=max_build)
    return MetricsReport(
        n=n,
        side=side,
        filled_2d=filled,
        fill_fraction=filled / side**2,
        dim_estimate_2d=est2,
        ratio_diag=ratio_diagnostic(n),
        filled_3d=filled3,
        dim_estimate_3d=est3,
        discrepancy=disc,
    )
