import numpy as np
import pytest

from hadhaar.indexing import (LevelPartition, build_levels, flatten_cartesian,
                              index_to_pair, pair_to_index)


def test_index_to_pair_examples():
    assert index_to_pair(5, 4, 4) == (1, 2)
    assert index_to_pair(1, 7, 9) == (1, 1)
    assert index_to_pair(16, 4, 4) == (4, 4)


def test_pair_round_trip_exhaustive():
    for n1, n2 in [(1, 1), (2, 3), (4, 4), (8, 8), (64, 1), (1, 64), (16, 4)]:
        for l in range(1, n1 * n2 + 1):
            l1, l2 = index_to_pair(l, n1, n2)
            assert 1 <= l1 <= n1 and 1 <= l2 <= n2
            assert l == l1 + n1 * (l2 - 1)
            assert pair_to_index(l1, l2, n1, n2) == l


def test_index_to_pair_vectorised():
    l1, l2 = index_to_pair(np.arange(1, 17), 4, 4)
    assert np.array_equal(l1, np.tile(np.arange(1, 5), 4))
    assert np.array_equal(l2, np.repeat(np.arange(1, 5), 4))
    assert np.array_equal(pair_to_index(l1, l2, 4, 4), np.arange(1, 17))


def test_index_range_errors():
    with pytest.raises(ValueError):
        index_to_pair(0, 4, 4)
    with pytest.raises(ValueError):
        index_to_pair(17, 4, 4)
    with pytest.raises(ValueError):
        pair_to_index(5, 1, 4, 4)
    with pytest.raises(ValueError, match="grid sides must be positive"):
        index_to_pair(1, 0, 4)
    with pytest.raises(ValueError, match="grid sides must be positive"):
        pair_to_index(1, 1, 4, 0)
    with pytest.raises(ValueError):
        flatten_cartesian([1, 3], [1], 2, 2)


def test_flatten_cartesian_examples():
    assert list(flatten_cartesian({1, 2}, {1}, 2, 2)) == [1, 2]
    assert list(flatten_cartesian({2}, {2}, 2, 2)) == [4]
    assert list(flatten_cartesian({1, 2}, {1, 2}, 2, 2)) == [1, 2, 3, 4]


def test_flatten_cartesian_is_column_major():
    # second coordinate varies slowest: (j, k) -> j + n1 (k - 1)
    out = flatten_cartesian([2, 4], [1, 3], 4, 4)
    assert list(out) == [2, 4, 10, 12]


def test_dyadic_levels_r3():
    part = build_levels("dyadic1d", 3)
    assert [list(lev) for lev in part.levels] == [[1], [2], [3, 4], [5, 6, 7, 8]]


def test_iso_levels_r1_subband_order():
    # level 1 concatenates the (01), (11), (10) blocks: rows-wavelet/cols-window,
    # both-wavelet, rows-window/cols-wavelet, i.e. flat indices 2, 4, 3
    part = build_levels("iso2d", 1)
    assert [list(lev) for lev in part.levels] == [[1], [2, 4, 3]]


def test_iso_levels_r2_blocks():
    part = build_levels("iso2d", 2)
    assert list(part.sizes) == [1, 3, 12]
    lev2 = part.levels[2]
    # (01): first coordinate in {3,4}, second in {1,2}
    assert list(lev2[:4]) == [3, 4, 7, 8]
    # (11): both coordinates in {3,4}
    assert list(lev2[4:8]) == [11, 12, 15, 16]
    # (10): first in {1,2}, second in {3,4}
    assert list(lev2[8:]) == [9, 10, 13, 14]


def test_aniso_levels_r1():
    part = build_levels("aniso2d", 1)
    assert [list(lev) for lev in part.levels] == [[1], [2], [3], [4]]


def test_aniso_levels_r2_cardinalities():
    part = build_levels("aniso2d", 2)
    assert part.n_levels == 9
    one_d = [1, 1, 2]
    for t in range(1, 10):
        p1, p2 = index_to_pair(t, 3, 3)
        assert part.levels[t - 1].size == one_d[p1 - 1] * one_d[p2 - 1]
    # pair (2, 3): first 1-D level {2}, second {3, 4}
    t = pair_to_index(2, 3, 3, 3)
    assert list(part.levels[t - 1]) == list(flatten_cartesian([2], [3, 4], 4, 4))


@pytest.mark.parametrize("kind,rmax", [("dyadic1d", 6), ("iso2d", 6), ("aniso2d", 6)])
def test_partition_covers_everything(kind, rmax):
    for r in range(rmax + 1):
        part = build_levels(kind, r)
        n = 4 ** r if kind != "dyadic1d" else 2 ** r
        assert part.n_total == n
        merged = np.concatenate([lev for lev in part.levels])
        assert np.array_equal(np.sort(merged), np.arange(1, n + 1))


def test_cardinality_formulas():
    for r in range(1, 7):
        dyadic = build_levels("dyadic1d", r)
        assert list(dyadic.sizes) == [1] + [2 ** (l - 1) for l in range(1, r + 1)]
        iso = build_levels("iso2d", r)
        assert list(iso.sizes) == [1] + [3 * 4 ** (l - 1) for l in range(1, r + 1)]


def test_level_of_index_round_trip():
    part = build_levels("iso2d", 3)
    level_of = part.level_of_index()
    for pos, lev in enumerate(part.levels):
        assert np.all(level_of[lev - 1] == pos)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        build_levels("triadic", 2)
    with pytest.raises(ValueError):
        build_levels("dyadic1d", -1)


def test_partition_is_frozen():
    part = build_levels("dyadic1d", 2)
    assert isinstance(part, LevelPartition)
    with pytest.raises(AttributeError):
        part.r = 5
