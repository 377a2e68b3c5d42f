import hashlib
import itertools

import numpy as np
import pytest

from pelljeru import (
    MAX_BUILD_3D,
    BuildLimitError,
    CoordinateError,
    Grid3D,
    N_MAX,
    build2d,
    build3d,
    contains3d,
    count3d_recurrence,
    PellIndexError,
    pell,
    subgrid3,
)

# Level-3 voxel set as hand-listed in an unrelated published rendering
# script for the same solid (5x5x5 subdivision, 76 cubes kept); serves as
# an implementation-independent oracle.
LEVEL3_VOXELS = {
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (0, 1, 0), (1, 1, 0), (3, 1, 0), (4, 1, 0), (0, 2, 0),
    (4, 2, 0), (0, 3, 0), (1, 3, 0), (3, 3, 0), (4, 3, 0), (0, 4, 0), (1, 4, 0), (2, 4, 0), (3, 4, 0), (4, 4, 0),
    (0, 0, 1), (1, 0, 1), (3, 0, 1), (4, 0, 1), (0, 1, 1), (1, 1, 1), (3, 1, 1), (4, 1, 1), (0, 3, 1), (1, 3, 1),
    (3, 3, 1), (4, 3, 1), (0, 4, 1), (1, 4, 1), (3, 4, 1), (4, 4, 1), (0, 0, 2), (4, 0, 2), (0, 4, 2), (4, 4, 2),
    (0, 0, 3), (1, 0, 3), (3, 0, 3), (4, 0, 3), (0, 1, 3), (1, 1, 3), (3, 1, 3), (4, 1, 3), (0, 3, 3), (1, 3, 3),
    (3, 3, 3), (4, 3, 3), (0, 4, 3), (1, 4, 3), (3, 4, 3), (4, 4, 3), (0, 0, 4), (1, 0, 4), (2, 0, 4), (3, 0, 4),
    (4, 0, 4), (0, 1, 4), (1, 1, 4), (3, 1, 4), (4, 1, 4), (0, 2, 4), (4, 2, 4), (0, 3, 4), (1, 3, 4), (3, 3, 4),
    (4, 3, 4), (0, 4, 4), (1, 4, 4), (2, 4, 4), (3, 4, 4), (4, 4, 4),
}

# Frozen sha256 of build3d(n, max_build=9).packed_planes() for n = 1..9, one
# level past the guard; every byte is pinned, padding included.
FROZEN_SHA256 = {
    1: "76be8b528d0075f7aae98d6fa57a6d3c83ae480a8469e668d7b0af968995ac71",
    2: "9de1ee39e1f56d88108b62c11f5fddf01d87615258f8318898311ebf65f03941",
    3: "c48f9d9e5223309d1ec3059c10cb600b7d739426e9a69a478b2805dc86e36edb",
    4: "5a985bed74b06db84d97a9b32666e02e5439544bd055013555aad3e91ac38fcc",
    5: "c6fee6cec01a76202ff5beb3decf34ec992fb351011e6ac057de3a7212465e69",
    6: "1f502fc4bd443c95b918ff4a30a9d0ee7aecddcba8bb5b6615aaf127d513d2e4",
    7: "a7f5a74fbc5b809b55be21fd101b3fe83d7d49aec19b1dcee8612c9ac2eacf12",
    8: "973a3200e80887487525092a89100456689d8d0e42af78780db985a866377138",
    9: "96367a102a9d59db8c42d9bd4299b1eac96a766a09d950901d8d777718f9d149",
}


def test_contains_basics():
    assert contains3d(1, 0, 0, 0) is True
    assert contains3d(3, 2, 2, 2) is False  # body center, three mid axes
    assert contains3d(3, 2, 2, 0) is False  # two mid axes
    assert contains3d(3, 2, 0, 0) is True   # one mid axis, flush edge block


def test_contains_guards():
    with pytest.raises(ValueError):
        contains3d(0, 0, 0, 0)
    with pytest.raises(CoordinateError):
        contains3d(3, 0, 0, 5)
    with pytest.raises(CoordinateError):
        contains3d(3, -1, 0, 0)


def test_build_small():
    assert build3d(1).filled_count() == 1
    g2 = build3d(2)
    assert g2.side == 2 and g2.filled_count() == 8
    assert build3d(3).filled_count() == 76


def test_level3_matches_external_listing():
    occ = build3d(3).to_bool_array()
    got = {(int(x), int(y), int(z)) for z, y, x in np.argwhere(occ)}
    assert got == LEVEL3_VOXELS


def test_build_matches_classifier():
    for n in range(1, 5):
        g = build3d(n)
        s = g.side
        ref = np.array([[[contains3d(n, x, y, z) for x in range(s)]
                         for y in range(s)] for z in range(s)])
        assert np.array_equal(g.to_bool_array(), ref), n


def test_octahedral_symmetry():
    for n in range(2, 6):
        occ = build3d(n).to_bool_array()
        for perm in itertools.permutations(range(3)):
            t = np.transpose(occ, perm)
            for fz, fy, fx in itertools.product((1, -1), repeat=3):
                assert np.array_equal(occ, t[::fz, ::fy, ::fx]), (n, perm, fz, fy, fx)


def test_self_similarity():
    for n in range(3, 8):
        g = build3d(n)
        s = g.side
        sub1, sub2 = build3d(n - 1), build3d(n - 2)
        low_w, mid_w = pell(n - 1), pell(n - 2)
        hi1 = s - low_w
        for x0, y0, z0 in itertools.product((0, hi1), repeat=3):
            assert subgrid3(g, x0, y0, z0, low_w) == sub1, (n, x0, y0, z0)
        flush = (0, s - mid_w)
        origins = [(low_w, fy, fz) for fy in flush for fz in flush]
        origins += [(fx, low_w, fz) for fx in flush for fz in flush]
        origins += [(fx, fy, low_w) for fx in flush for fy in flush]
        assert len(origins) == 12
        for x0, y0, z0 in origins:
            assert subgrid3(g, x0, y0, z0, mid_w) == sub2, (n, x0, y0, z0)


def test_counts_recurrence():
    counts = {n: build3d(n, max_build=9).filled_count() for n in range(1, 10)}
    assert counts[1] == 1 and counts[2] == 8
    for n in range(3, 10):
        assert counts[n] == 8 * counts[n - 1] + 12 * counts[n - 2]
    assert counts == {n: count3d_recurrence(n) for n in counts}
    assert counts[9] == 48771328


def test_build_digests_frozen():
    for n, digest in FROZEN_SHA256.items():
        planes = build3d(n, max_build=9).packed_planes()
        assert hashlib.sha256(planes.tobytes()).hexdigest() == digest, n


def test_build_matches_classifier_sample_past_guard():
    g = build3d(9, max_build=9)
    x, y, z = np.random.default_rng(9).integers(0, g.side, size=(3, 20000))
    got = (g.packed_planes()[z, y, x >> 3] >> (7 - (x & 7))) & 1
    ref = [contains3d(9, int(a), int(b), int(c)) for a, b, c in zip(x, y, z)]
    assert got.astype(bool).tolist() == ref
    assert 0 < sum(ref) < len(ref)


def test_boundary_faces_equal_2d():
    for n in range(2, 5):
        occ = build3d(n).to_bool_array()
        flat = build2d(n).to_bool_array()
        for face in (occ[0], occ[-1], occ[:, 0], occ[:, -1], occ[:, :, 0], occ[:, :, -1]):
            assert np.array_equal(face, flat), n


def test_layer_accessor():
    g = build3d(3)
    assert g.layer(0) == build2d(3)
    assert g.layer(2).filled_count() == 4
    with pytest.raises(CoordinateError):
        g.layer(5)


def test_voxel_accessor():
    g = build3d(3)
    assert g.voxel(2, 0, 0) is True
    assert g.voxel(2, 2, 2) is False
    with pytest.raises(CoordinateError):
        g.voxel(0, 0, 5)


def test_build_guards():
    with pytest.raises(ValueError):
        build3d(0)
    with pytest.raises(BuildLimitError):
        build3d(MAX_BUILD_3D + 1)
    with pytest.raises(BuildLimitError):
        build3d(4, max_build=3)
    assert build3d(4, max_build=4).side == 12


def test_build_above_pell_cap_is_an_index_error():
    # no max_build can lift a build past the Pell index cap
    for limit in (None, N_MAX + 12):
        with pytest.raises(PellIndexError, match=rf"outside \[1, {N_MAX}\]"):
            build3d(N_MAX + 1, max_build=limit)


def test_nonzero_padding_bits_rejected():
    # side 3 leaves five padding bits per x-row; 0xFF would count 72 voxels
    with pytest.raises(ValueError, match="padding"):
        Grid3D(3, np.full((3, 3, 1), 0xFF, dtype=np.uint8))
    full = Grid3D(3, np.full((3, 3, 1), 0xE0, dtype=np.uint8))
    assert full == Grid3D.from_bool_array(np.ones((3, 3, 3), dtype=bool))
    assert full.filled_count() == 27


def test_constructor_leaves_caller_array_writeable():
    a = np.full((3, 3, 1), 0xE0, dtype=np.uint8)
    g = Grid3D(3, a)
    a[0, 0, 0] = 0  # the grid holds its own copy
    assert a.flags.writeable
    assert g.filled_count() == 27
    frozen = build3d(4).packed_planes()
    assert Grid3D(12, frozen).packed_planes() is frozen  # read-only input is not copied


def test_subgrid3_guards():
    g = build3d(3)
    with pytest.raises(CoordinateError):
        subgrid3(g, 3, 0, 0, 3)
    with pytest.raises(CoordinateError):
        subgrid3(g, 0, 0, 0, 0)
