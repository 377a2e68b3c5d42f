"""Exact Pell-number arithmetic and silver-ratio convergence diagnostics.

The Pell numbers (0, 1, 2, 5, 12, 29, ..., OEIS A000129) satisfy
``p_n = 2*p_{n-1} + p_{n-2}`` and their consecutive ratios converge to the
silver ratio 1 + sqrt(2).  Everything else in this package keys its grid
sizes and band splits off these values, so they are computed exactly.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

# Guard for pell(): indices above this are refused so a fixed-width caller
# (128-bit integers) can mirror this module without silent overflow.
N_MAX = 88

SILVER_RATIO = 1.0 + math.sqrt(2.0)
# 1/(1+sqrt(2)) = sqrt(2)-1, the side ratio of consecutive Jerusalem squares.
INVERSE_SILVER = math.sqrt(2.0) - 1.0

# sqrt(2) to 480 fractional bits: _ROOT2 / _ONE is within 2^-480 of it.
_ONE = 1 << 480
_ROOT2 = math.isqrt(2 * _ONE * _ONE)


class PellIndexError(ValueError):
    """Raised for Pell indices outside the supported range."""


_cache = [0, 1]


def pell(n: int) -> int:
    """Return the n-th Pell number exactly (p_0 = 0, p_1 = 1).

    Raises PellIndexError for n < 0 or n > N_MAX.
    """
    n = operator.index(n)
    if not 0 <= n <= N_MAX:
        raise PellIndexError(f"Pell index {n} outside supported range [0, {N_MAX}]")
    while len(_cache) <= n:
        _cache.append(2 * _cache[-1] + _cache[-2])
    return _cache[n]


class RatioDiagnostic(NamedTuple):
    """Convergence of the consecutive Pell ratio at index n.

    ratio            p_n / p_{n-1}
    error_to_silver  |ratio - (1 + sqrt(2))|
    error_to_k       |p_{n-1}/p_n - (sqrt(2) - 1)|
    """

    n: int
    ratio: float
    error_to_silver: float
    error_to_k: float


def ratio_diagnostic(n: int) -> RatioDiagnostic:
    """Ratio and error terms at index n (requires n >= 2, so p_{n-1} > 0).

    The errors shrink roughly by a factor (sqrt(2)-1)^2 ~ 0.17 per index and
    drop below double-precision resolution of the ratio near n = 22, so each
    is one exact integer quotient (int / int rounds correctly) with sqrt(2)
    taken to 480 bits.  The smallest term, about 2^-222 at n = 88, then
    carries a relative error below 2^-258, some 200 bits past the 53 a
    float keeps; the floats match a 150-digit reference for every n.
    """
    if n < 2:
        raise PellIndexError(f"ratio diagnostic needs n >= 2, got {n}")
    num, den = pell(n), pell(n - 1)
    error_to_silver = abs(num * _ONE - den * (_ONE + _ROOT2)) / (den * _ONE)
    error_to_k = abs(den * _ONE - num * (_ROOT2 - _ONE)) / (num * _ONE)
    return RatioDiagnostic(n, num / den, error_to_silver, error_to_k)


def verify_recurrence(up_to: int) -> bool:
    """Check p_n = 2*p_{n-1} + p_{n-2} and an independent closed form.

    Returns True iff every index 0 <= n <= up_to satisfies the recurrence and
    matches ((1+sqrt(2))^n - (1-sqrt(2))^n) / (2*sqrt(2)), evaluated exactly
    in Z[sqrt(2)]: with (1+sqrt(2))^n = a + b*sqrt(2), conjugation gives
    (1-sqrt(2))^n = a - b*sqrt(2), so the closed form is exactly b.
    """
    if not 0 <= up_to <= N_MAX:
        raise PellIndexError(f"index {up_to} outside supported range [0, {N_MAX}]")
    for n in range(2, up_to + 1):
        if pell(n) != 2 * pell(n - 1) + pell(n - 2):
            return False
    a, b = 1, 0  # (1+sqrt(2))^0
    for n in range(up_to + 1):
        if b != pell(n):
            return False
        a, b = a + 2 * b, a + b
    return True
