"""Tiled exact k-NN search against a full-matrix stable-argsort reference."""

import numpy as np
import pytest

from samplerank import _dist
from samplerank._dist import nearest, sq_dist_matrix


def _reference(a, b, k, exclude_self=False):
    full = sq_dist_matrix(a, b)
    if exclude_self:
        np.fill_diagonal(full, np.inf)
    idx = np.argsort(full, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(full, idx, axis=1)


def _grid_points(seed, n, dims=2, span=3):
    """Integer points on a tiny grid: many duplicates and many equal distances."""
    return np.random.default_rng(seed).integers(0, span, size=(n, dims)).astype(float)


@pytest.fixture(params=[None, 3], ids=["one-tile", "ragged-tiles"])
def tile_rows(request, monkeypatch):
    """Optionally shrink the tile budget to 3 query rows, so most queries span several tiles."""

    def set_budget(b_size):
        if request.param is not None:
            monkeypatch.setattr(_dist, "_CHUNK_BUDGET", request.param * b_size)

    return set_budget


@pytest.mark.parametrize("k", [1, 5, 20])
class TestMatchesStableArgsort:
    def test_tie_heavy_grid(self, k, tile_rows):
        a, b = _grid_points(0, 58), _grid_points(1, 43)
        tile_rows(b.size)
        idx, d2 = nearest(a, b, k)
        ref_idx, ref_d2 = _reference(a, b, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(d2, ref_d2)

    def test_exclude_self_on_duplicate_points(self, k, tile_rows):
        pts = _grid_points(2, 50, dims=3, span=2)  # 8 distinct points, ~6 copies each
        tile_rows(pts.size)
        idx, d2 = nearest(pts, pts, k, exclude_self=True)
        ref_idx, ref_d2 = _reference(pts, pts, k, exclude_self=True)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(d2, ref_d2)
        assert not np.any(idx == np.arange(len(pts))[:, None])

    def test_continuous_data(self, k, tile_rows):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(61, 5)), rng.normal(size=(40, 5))
        tile_rows(b.size)
        idx, d2 = nearest(a, b, k)
        ref_idx, ref_d2 = _reference(a, b, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(d2, ref_d2)


def test_small_budget_really_tiles(monkeypatch):
    calls = []
    original = _dist.sq_dist_matrix

    def counting(a, b):
        calls.append(a.shape[0])
        return original(a, b)

    b = _grid_points(4, 10)
    monkeypatch.setattr(_dist, "sq_dist_matrix", counting)
    monkeypatch.setattr(_dist, "_CHUNK_BUDGET", 3 * b.size)
    nearest(_grid_points(5, 11), b, 2)
    assert calls == [3, 3, 3, 2]


def test_identical_point_is_at_distance_zero():
    pts = np.random.default_rng(6).normal(size=(9, 4))
    idx, d2 = nearest(pts, pts)
    np.testing.assert_array_equal(idx[:, 0], np.arange(9))
    np.testing.assert_array_equal(d2[:, 0], 0.0)


def test_empty_query_gives_empty_result():
    idx, d2 = nearest(np.empty((0, 2)), np.ones((4, 2)), 3)
    assert idx.shape == d2.shape == (0, 3)
