import numpy as np
import pytest

from pelljeru import (
    ExactModel,
    UnitPoint,
    build2d,
    discrepancy,
    exact_contains,
    rasterize_exact,
)
from pelljeru.exact import MAX_RASTER

# disagreement cell counts between build2d(n) and the depth-(n-1) raster,
# frozen from an oracle run (two independent implementations agreed)
FROZEN_MISMATCHES = {
    2: 0, 3: 4, 4: 16, 5: 144, 6: 704, 7: 4176, 8: 21232,
    9: 112656, 10: 571264, 11: 2914656, 12: 14641904,
}


def centers(res):
    return [(i + 0.5) / res for i in range(res)]


def test_model_validation():
    m = ExactModel(depth=3)
    assert abs(2 * m.k + m.k**2 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ExactModel(depth=-1)
    with pytest.raises(ValueError):
        ExactModel(depth=2, k=0.4)


def test_point_validation():
    UnitPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        UnitPoint(-0.1, 0.5)
    with pytest.raises(ValueError):
        UnitPoint(0.5, 1.5)


def test_contains_basics():
    assert exact_contains(ExactModel(depth=0), UnitPoint(0.123, 0.987)) is True
    assert exact_contains(ExactModel(depth=1), UnitPoint(0.5, 0.5)) is False
    # (high, low) corner block survives one iteration
    assert exact_contains(ExactModel(depth=1), UnitPoint(0.9, 0.05)) is True


def test_contains_nesting():
    # survivor sets shrink as depth grows
    pts = [UnitPoint(u, v) for u in centers(17) for v in centers(17)]
    prev = None
    for depth in range(7):
        m = ExactModel(depth=depth)
        alive = {i for i, p in enumerate(pts) if exact_contains(m, p)}
        if prev is not None:
            assert alive <= prev, depth
        prev = alive


def test_contains_symmetry():
    m = ExactModel(depth=4)
    for u in centers(29):
        for v in centers(29):
            a = exact_contains(m, UnitPoint(u, v))
            assert a == exact_contains(m, UnitPoint(v, u))
            assert a == exact_contains(m, UnitPoint(1 - u, v))
            assert a == exact_contains(m, UnitPoint(u, 1 - v))


def test_raster_small():
    assert rasterize_exact(ExactModel(depth=0), 5).filled_count() == 25
    r = rasterize_exact(ExactModel(depth=1), 5)
    assert r.cell(2, 2) is False
    # at this depth/resolution the raster reproduces the level-3 grid
    assert r == build2d(3)
    assert rasterize_exact(ExactModel(depth=1), 2).filled_count() == 4


def test_raster_matches_scalar():
    for depth, res in ((0, 7), (2, 12), (3, 29), (5, 29), (7, 70), (9, 100), (20, 41), (0, 1)):
        m = ExactModel(depth=depth)
        r = rasterize_exact(m, res)
        cs = centers(res)
        ref = np.array([[exact_contains(m, UnitPoint(u, v)) for u in cs] for v in cs])
        assert np.array_equal(r.to_bool_array(), ref), (depth, res)


def test_raster_guards():
    with pytest.raises(ValueError):
        rasterize_exact(ExactModel(depth=1), 0)
    with pytest.raises(ValueError):
        rasterize_exact(ExactModel(depth=1), MAX_RASTER + 1)
    assert rasterize_exact(ExactModel(depth=1), 3, max_raster=3).side == 3


def test_discrepancy_frozen_values():
    for n, mism in FROZEN_MISMATCHES.items():
        d = discrepancy(n)
        side = build2d(n).side
        assert d == mism / side**2, n
        assert 0.0 <= d <= 0.2, n


def test_discrepancy_exact_small_cases():
    assert discrepancy(2) == 0.0
    assert discrepancy(3) == 4 / 25


def test_discrepancy_guards():
    with pytest.raises(ValueError):
        discrepancy(1)
    with pytest.raises(ValueError):
        discrepancy(13)  # default dense-build guard


def test_model_is_frozen():
    m = ExactModel(depth=1)
    with pytest.raises(AttributeError):
        m.depth = 5
