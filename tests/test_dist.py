"""Tiled exact k-NN search against a full-matrix stable-argsort reference."""

import gc
import tracemalloc

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

    def counting(a, b, *rest):
        calls.append(a.shape[0])
        return original(a, b, *rest)

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


def _broadcast(a, b):
    """The literal broadcast formula whose float64 bits the kernel must reproduce."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


@pytest.mark.parametrize("d", [*range(1, 41), 63, 64, 65, 127, 128, 129, 130, 257, 512])
def test_kernel_bits_equal_broadcast_sum(d):
    """Same terms, same pairwise order: a changed numpy summation order fails here first."""
    rng = np.random.default_rng(d)
    scale = np.logspace(-3, 3, d)
    a, b = rng.normal(size=(7, d)) * scale, rng.normal(size=(9, d)) * scale
    f32a, f32b = (x.astype(np.float32).astype(np.float64) for x in (a, b))
    b[4] = a[2]  # a duplicated row must give exactly 0.0
    for x, y in ((a, b), (f32a, f32b)):
        assert sq_dist_matrix(x, y).tobytes() == _broadcast(x, y).tobytes()
    assert sq_dist_matrix(a, b)[2, 4] == 0.0


@pytest.mark.parametrize("shape_a, shape_b", [((0, 5), (4, 5)), ((3, 5), (0, 5)), ((3, 0), (4, 0))])
def test_kernel_empty_inputs(shape_a, shape_b):
    a, b = np.ones(shape_a), np.zeros(shape_b)
    got = sq_dist_matrix(a, b)
    assert got.shape == (shape_a[0], shape_b[0])
    assert got.tobytes() == _broadcast(a, b).tobytes()


def test_loop_shaped_search_memory_is_bounded():
    """LoOP's shape, 8,800 x 8 points and k=20: the peak is set by the tile.

    A (tile, n, d) difference block at the former 8,000,000-float tile budget
    alone took ~61 MiB. An eighth of the query rows keeps the test fast and
    the tiles the same.
    """
    x = np.random.default_rng(7).normal(size=(8800, 8))
    tracemalloc.start()
    try:
        nearest(x[:1100], x, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_repeated_searches_release_their_buffers():
    """k-means' shape, 2,000 x 8 points against 16 centres, searched 30 times.

    With the collector off, only reference counting frees memory: a term
    buffer held by a reference cycle (a self-calling closure, say) would
    stay alive, about 1 MiB per call here.
    """
    rng = np.random.default_rng(8)
    x, centres = rng.normal(size=(2000, 8)), rng.normal(size=(16, 8))
    nearest(x, centres)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(30):
            nearest(x, centres)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 2**20


@pytest.mark.parametrize("k", [2, 5, 20])
def test_one_tile_mixing_tied_and_untied_rows(k):
    """Grid rows tie across the k-th place; jittered rows have distinct distances."""
    rng = np.random.default_rng(k)
    grid = rng.integers(0, 3, size=(60, 2)).astype(float)
    a = np.vstack([grid[:20], rng.normal(size=(20, 2)) * 3])
    b = np.vstack([grid, rng.normal(size=(30, 2)) * 3])
    full = _broadcast(a, b)
    kth = np.sort(full, axis=1)[:, k - 1 : k]
    straddles = np.count_nonzero(full <= kth, axis=1) > k
    assert straddles.any() and not straddles.all()
    assert len(a) <= _dist._CHUNK_BUDGET // b.size  # one tile
    idx, d2 = nearest(a, b, k)
    ref = np.argsort(full, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(idx, ref)
    assert d2.tobytes() == np.take_along_axis(full, ref, axis=1).tobytes()
