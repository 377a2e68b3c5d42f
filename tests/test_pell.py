import math
from decimal import Decimal, localcontext

import pytest

from pelljeru import (
    N_MAX,
    INVERSE_SILVER,
    SILVER_RATIO,
    PellIndexError,
    pell,
    ratio_diagnostic,
    verify_recurrence,
)

SEQ = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378]


def test_known_prefix():
    assert [pell(i) for i in range(11)] == SEQ


def test_extended_values():
    assert pell(11) == 5741
    assert pell(12) == 13860


def test_recurrence_full_range():
    for n in range(2, N_MAX + 1):
        assert pell(n) == 2 * pell(n - 1) + pell(n - 2)


def test_strictly_increasing():
    for n in range(1, N_MAX):
        assert pell(n + 1) > pell(n)


def test_pure_repeat_calls():
    assert pell(40) == pell(40)
    a = pell(7)
    pell(30)
    assert pell(7) == a == 169


def test_index_guards():
    with pytest.raises(PellIndexError):
        pell(-1)
    with pytest.raises(PellIndexError):
        pell(N_MAX + 1)
    with pytest.raises(TypeError):
        pell(3.0)


def test_constants():
    assert SILVER_RATIO == 1 + math.sqrt(2)
    assert INVERSE_SILVER == math.sqrt(2) - 1
    assert abs(SILVER_RATIO * INVERSE_SILVER - 1.0) < 1e-15


def test_ratio_diagnostic_small():
    d = ratio_diagnostic(2)
    assert d.ratio == 2.0
    assert abs(d.error_to_silver - 0.4142135623730951) < 1e-12

    d = ratio_diagnostic(10)
    assert abs(d.ratio - 2378 / 985) < 1e-15
    assert abs(d.ratio - 2.414213) < 1e-6

    # |2/5 - (sqrt(2) - 1)|
    assert abs(ratio_diagnostic(3).error_to_k - 0.014213562373095049) < 1e-12


def test_ratio_diagnostic_matches_decimal_reference():
    # 150 significant digits, then one rounding to float; every field must
    # be bit-identical, down to errors near 1e-67 at n = N_MAX
    with localcontext() as ctx:
        ctx.prec = 150
        silver = 1 + Decimal(2).sqrt()
        for n in range(2, N_MAX + 1):
            num, den = Decimal(pell(n)), Decimal(pell(n - 1))
            d = ratio_diagnostic(n)
            assert d.ratio == float(num / den), n
            assert d.error_to_silver == float(abs(num / den - silver)), n
            assert d.error_to_k == float(abs(den / num - (silver - 2))), n


def test_ratio_diagnostic_guards():
    for bad in (0, 1):
        with pytest.raises(ValueError):
            ratio_diagnostic(bad)
    with pytest.raises(PellIndexError):
        ratio_diagnostic(N_MAX + 1)


def test_errors_strictly_decrease_to_n_max():
    # geometric convergence keeps every step well separated, even at
    # magnitudes near 1e-66 where plain double subtraction would flatline
    diags = [ratio_diagnostic(n) for n in range(2, N_MAX + 1)]
    for a, b in zip(diags, diags[1:]):
        assert a.error_to_silver > b.error_to_silver > 0.0
        assert a.error_to_k > b.error_to_k > 0.0


def test_error_below_threshold_by_20():
    assert ratio_diagnostic(20).error_to_silver < 1e-12


def test_verify_recurrence():
    assert verify_recurrence(2)
    assert verify_recurrence(10)
    assert verify_recurrence(N_MAX)


def test_diagnostic_is_frozen():
    d = ratio_diagnostic(4)
    with pytest.raises(AttributeError):
        d.ratio = 0.0
