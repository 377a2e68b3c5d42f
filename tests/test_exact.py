import hashlib

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

# sha256 of the packed raster rows, frozen from the explicit-stack descent the
# per-depth descent replaced: (pell(n), n - 1) for n = 2..12, (408, d) for
# d = 0..8, and three rasters deep past the resolution
FROZEN_RASTER_SHA256 = {
    (2, 1): "924d46482608156796c55cf9f59843a261c720c001d9859321523ca9c794151e",
    (5, 2): "cf71a2f31fd3aae1552f0bb47217ef0bbde42f5bd2e307f3005cd53446ed2971",
    (12, 3): "a190bd0653a166f04fbd0c8d20a3722c9b39abf1a1c73ff0ff234ed12ad25e85",
    (29, 4): "6c49128807ce84980022228b9004ac1e5a388d9642f4aa13bf466632d9fe274b",
    (70, 5): "2cbbf6b8909d3ed63e186ee0c2f467719c23c54ad6b275381932dee61af24806",
    (169, 6): "01170a67f8fe19857610ba60403164d391815465df88bba2990535f95765a432",
    (408, 7): "a29c599ba8e6916d3635fcefe04e78301814201b8422bd9d22568102957ed31a",
    (985, 8): "2e202353d0629135afb342286e157b03054240b1e2fafefcf916260981ae4e45",
    (2378, 9): "9516ec13680a5d14a923c67f0f6965a33c166df52489a421a18ee3edf9ed1afa",
    (5741, 10): "496b510be0632734fcd701efd0557bc9bc5cdc24848ae04411e4ab262f0141cc",
    (13860, 11): "b479d8604a98e6b9edb437228a92de0edd4b7246e6be2dde1502c5fcab7b061d",
    (408, 0): "4023ddedab1c3a221607e08e7f5920e9656d132dc34b3a7d9c30359032c5cf6b",
    (408, 1): "e083c2cd8ce157890333ef5448befdcc19442900e6383745fe8c26df59db5437",
    (408, 2): "1b2d85a9de5146eb36ba335342ae8d9d234398dc7937db895a8ea12606769a1e",
    (408, 3): "6556e36a643e48d99fdca9d5d1369e561d886f0c053fb0ac6d0d2aa6672ba111",
    (408, 4): "59d7c310599ffb7af967a4ad44f4e61cd1003570e0bd4028c863fdbe16983e36",
    (408, 5): "7d70a9589641383a18e6dc90f95050e70fd4273f43d3a518159f19e8a6fad0d1",
    (408, 6): "03944d429008a3bedae642912858e7209d1d69d7efbc2a9c4af2d67d90523309",
    (408, 8): "cb1e475cd12b4c9c64ab2e2ea4002fe80ea0ae07a0ed699356fecf18a213d608",
    (985, 40): "7e4ae1e8203b49947ab5b0daf06038e29baabc319fd3f8b7ea5bd6c324d4fd6c",
    (100, 200): "2555bb5583cd7eecea012833776c74683ce3479d1c1553733366905bc820ea83",
    (29, 1000): "5b517952cbe9c4c147bc3f3434f9d82409e76d09ea58905aefe7fb5415912d9a",
}


def centers(res):
    return [(i + 0.5) / res for i in range(res)]


def test_model_validation():
    ExactModel(depth=3)
    with pytest.raises(ValueError):
        ExactModel(depth=-1)


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


def test_raster_frozen_digests():
    for (res, depth), digest in FROZEN_RASTER_SHA256.items():
        rows = rasterize_exact(ExactModel(depth=depth), res).packed_rows()
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest, (res, depth)


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
