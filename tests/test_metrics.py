import math
from fractions import Fraction

import pytest

from pelljeru import (
    DimensionEstimate,
    MetricsReport,
    PellIndexError,
    RatioDiagnostic,
    build2d,
    build3d,
    count2d_recurrence,
    count3d_recurrence,
    dim_analytic,
    dim_estimate,
    pell,
    report,
)

SILVER = 1 + math.sqrt(2)


def test_count2d_values():
    assert count2d_recurrence(1) == 1
    assert count2d_recurrence(2) == 4
    assert count2d_recurrence(3) == 20
    assert count2d_recurrence(4) == 96


def test_count3d_values():
    assert count3d_recurrence(1) == 1
    assert count3d_recurrence(2) == 8
    assert count3d_recurrence(3) == 76
    assert count3d_recurrence(5) == 8 * count3d_recurrence(4) + 12 * 76 == 6544


def test_counts_match_brute_force():
    for n in range(1, 7):
        assert count2d_recurrence(n) == build2d(n).filled_count(), n
    for n in range(1, 5):
        assert count3d_recurrence(n) == build3d(n).filled_count(), n


def test_count_guards():
    for fn in (count2d_recurrence, count3d_recurrence):
        with pytest.raises(PellIndexError):
            fn(0)
        with pytest.raises(PellIndexError):
            fn(89)


def test_dim_estimate_degenerate_square():
    est = dim_estimate([(1, 1), (2, 4)])
    assert est.slope == pytest.approx(2.0)
    assert est.endpoint == pytest.approx(2.0)


def test_dim_estimate_validation():
    with pytest.raises(ValueError):
        dim_estimate([(2, 4)])
    with pytest.raises(ValueError):
        dim_estimate([(2, 4), (2, 16)])
    with pytest.raises(ValueError):
        dim_estimate([(5, 4), (2, 16)])
    with pytest.raises(ValueError):
        dim_estimate([(1, 0), (2, 4)])


def test_dim_estimate_2d_converges():
    target = dim_analytic("square")
    est = dim_estimate([(pell(m), count2d_recurrence(m)) for m in range(2, 11)])
    assert abs(est.endpoint - target) < 0.02
    est20 = dim_estimate([(pell(m), count2d_recurrence(m)) for m in range(2, 21)])
    assert abs(est20.endpoint - target) < abs(est.endpoint - target)


def test_dim_estimate_3d_converges():
    target = dim_analytic("cube")
    est = dim_estimate([(pell(m), count3d_recurrence(m)) for m in range(2, 7)])
    # the endpoint read is still 0.064 off at this size; the fitted slope
    # is already inside 0.05
    assert abs(est.slope - target) < 0.05
    est20 = dim_estimate([(pell(m), count3d_recurrence(m)) for m in range(2, 21)])
    assert abs(est20.endpoint - target) < 0.05


@pytest.mark.parametrize("count", [count2d_recurrence, count3d_recurrence])
def test_dim_estimate_slope_within_2_ulp(count):
    for n in range(2, 89):
        est = dim_estimate([(pell(m), count(m)) for m in range(1, n + 1)])
        xs = [Fraction(math.log(pell(m))) for m in range(1, n + 1)]
        ys = [Fraction(math.log(count(m))) for m in range(1, n + 1)]
        sx, sy = sum(xs), sum(ys)
        exact = ((n * sum(x * y for x, y in zip(xs, ys)) - sx * sy)
                 / (n * sum(x * x for x in xs) - sx * sx))
        assert abs(Fraction(est.slope) - exact) <= 2 * Fraction(math.ulp(float(exact))), n
        assert est.endpoint == math.log(count(n)) / math.log(pell(n)), n


def test_dim_analytic_values():
    sq = dim_analytic("square")
    cu = dim_analytic("cube")
    assert sq == pytest.approx(math.log(2 + 2 * math.sqrt(2)) / math.log(SILVER), abs=1e-15)
    assert cu == pytest.approx(math.log(4 + 2 * math.sqrt(7)) / math.log(SILVER), abs=1e-15)
    assert sq == pytest.approx(1.7864397013573952, abs=1e-12)
    assert cu == pytest.approx(2.5291208163802255, abs=1e-12)


def test_dim_analytic_routes_agree():
    for kind in ("square", "cube"):
        assert abs(dim_analytic(kind, "log") - dim_analytic(kind, "root")) < 1e-12


def test_dim_analytic_validation():
    with pytest.raises(ValueError):
        dim_analytic("triangle")
    with pytest.raises(ValueError):
        dim_analytic("square", "guess")


def test_count_ratio_converges_to_growth_root():
    lam = 2 + 2 * math.sqrt(2)
    errs = []
    for n in range(4, 21):
        errs.append(abs(count2d_recurrence(n) / count2d_recurrence(n - 1) - lam))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_fill_fraction_strictly_decreasing():
    fracs = [count2d_recurrence(n) / pell(n) ** 2 for n in range(2, 26)]
    assert fracs[0] == 1.0
    assert all(a > b > 0 for a, b in zip(fracs, fracs[1:]))


def test_report_basic():
    rep = report(2)
    assert rep.filled_2d == 4 and rep.fill_fraction == 1.0
    assert rep.filled_3d is None and rep.discrepancy is None

    rep3 = report(3, include_3d=True)
    assert rep3.side == 5 and rep3.filled_2d == 20 and rep3.filled_3d == 76
    assert isinstance(rep3.dim_estimate_3d, DimensionEstimate)
    assert rep3.ratio_diag.ratio == 2.5


def test_report_discrepancy_trend():
    lo = report(4, include_discrepancy=True)
    hi = report(10, include_discrepancy=True)
    assert 0.0 < hi.discrepancy < lo.discrepancy


def test_report_guards():
    with pytest.raises(ValueError):
        report(1)
    with pytest.raises(ValueError):
        report(13, include_discrepancy=True)
    assert report(13).discrepancy is None  # cheap fields have no build guard


def test_report_serialization():
    rep = report(3, include_3d=True)
    text = rep.to_text()
    assert "filled_2d=20" in text and "filled_3d=76" in text
    assert text.endswith("\n")
    assert "discrepancy" not in text  # omitted when not measured

    header = MetricsReport.csv_header()
    row = rep.to_csv_row()
    assert header.startswith("n,side,filled_2d,")
    assert len(header.split(",")) == len(row.split(","))
    assert row.split(",")[0] == "3"
    assert row.split(",")[-1] == ""  # empty cell for unmeasured discrepancy


def test_report_is_frozen():
    rep = report(2)
    with pytest.raises(AttributeError):
        rep.n = 5


# report(30, include_3d=True) as the dataclass records printed it; the named
# tuples must keep every byte
REPORT_30_TEXT = """\
n=30
side=107578520350
filled_2d=57755778331915059200
fill_fraction=0.0049905028462310505
dim2d_endpoint=1.7913421904416018
dim2d_slope=1.787202740463217
pell_ratio=2.414213562373095
ratio_error_silver=1.780554387698298e-22
ratio_error_k=3.0549483584318394e-23
filled_3d=10422444770333199196749824000
dim3d_endpoint=2.5397631071568267
dim3d_slope=2.530750207937126
"""
REPORT_30_CSV_ROW = (
    "30,107578520350,57755778331915059200,0.0049905028462310505,1.7913421904416018,"
    "1.787202740463217,2.414213562373095,1.780554387698298e-22,3.0549483584318394e-23,"
    "10422444770333199196749824000,2.5397631071568267,2.530750207937126,"
)


def test_records_keep_fields_defaults_and_bytes():
    diag = RatioDiagnostic(n=4, ratio=2.4, error_to_silver=0.1, error_to_k=0.2)
    est = DimensionEstimate(endpoint=1.5, slope=1.25)
    assert diag._fields == ("n", "ratio", "error_to_silver", "error_to_k")
    assert est._fields == ("endpoint", "slope")
    assert MetricsReport._fields == (
        "n", "side", "filled_2d", "fill_fraction", "dim_estimate_2d", "ratio_diag",
        "filled_3d", "dim_estimate_3d", "discrepancy",
    )
    assert MetricsReport._field_defaults == {"filled_3d": None, "dim_estimate_3d": None, "discrepancy": None}
    rep = MetricsReport(n=4, side=12, filled_2d=96, fill_fraction=96 / 144,
                        dim_estimate_2d=est, ratio_diag=diag)
    assert (rep.filled_3d, rep.dim_estimate_3d, rep.discrepancy) == (None, None, None)
    assert rep.ratio_diag.error_to_k == 0.2 and rep.dim_estimate_2d.slope == 1.25
    for record, name in ((diag, "ratio"), (est, "slope"), (rep, "side"), (rep, "not_a_field")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)

    rep30 = report(30, include_3d=True)
    assert rep30.to_text() == REPORT_30_TEXT
    assert rep30.to_csv_row() == REPORT_30_CSV_ROW
    assert MetricsReport.csv_header() == ",".join(MetricsReport._FIELDS) == (
        "n,side,filled_2d,fill_fraction,dim2d_endpoint,dim2d_slope,pell_ratio,"
        "ratio_error_silver,ratio_error_k,filled_3d,dim3d_endpoint,dim3d_slope,discrepancy"
    )
