"""Tiled exact k-NN search against a full-matrix stable-argsort reference."""

import gc
import tracemalloc

import numpy as np
import pytest

from samplerank import _dist
from samplerank._dist import nearest


def _reference(a, b, k, exclude_self=False):
    full = _in_order(a, b)
    if exclude_self:
        np.fill_diagonal(full, np.inf)
    idx = np.argsort(full, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(full, idx, axis=1)


def _grid_points(seed, n, dims=2, span=3):
    """Integer points on a tiny grid: many duplicates and many equal distances."""
    return np.random.default_rng(seed).integers(0, span, size=(n, dims)).astype(float)


@pytest.fixture(params=[None, 3], ids=["one-tile", "ragged-tiles"])
def tile_rows(request, monkeypatch):
    """Optionally shrink the tile to 3 query rows, so most queries span several tiles."""

    def set_tile(n_b):
        if request.param is not None:
            monkeypatch.setattr(_dist, "_TILE", request.param * n_b)

    return set_tile


@pytest.mark.parametrize("k", [1, 5, 20])
class TestMatchesStableArgsort:
    def test_tie_heavy_grid(self, k, tile_rows):
        a, b = _grid_points(0, 58), _grid_points(1, 43)
        tile_rows(len(b))
        idx, d2 = nearest(a, b, k)
        ref_idx, ref_d2 = _reference(a, b, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(d2, ref_d2)

    def test_exclude_self_on_duplicate_points(self, k, tile_rows):
        pts = _grid_points(2, 50, dims=3, span=2)  # 8 distinct points, ~6 copies each
        tile_rows(len(pts))
        idx, d2 = nearest(pts, pts, k, exclude_self=True)
        ref_idx, ref_d2 = _reference(pts, pts, k, exclude_self=True)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(d2, ref_d2)
        assert not np.any(idx == np.arange(len(pts))[:, None])

    def test_continuous_data(self, k, tile_rows):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(61, 5)), rng.normal(size=(40, 5))
        tile_rows(len(b))
        idx, d2 = nearest(a, b, k)
        ref_idx, ref_d2 = _reference(a, b, k)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(d2, ref_d2)


def _counting_screens(monkeypatch):
    """Record the (rows, columns) of every screen product ``nearest`` makes, one per tile."""
    calls, matmul = [], np.matmul

    def counting(*args, out):
        calls.append(out.shape)
        return matmul(*args, out=out)

    monkeypatch.setattr(np, "matmul", counting)
    return calls


def test_small_budget_really_tiles(monkeypatch):
    a, b = _grid_points(5, 11), _grid_points(4, 10)
    monkeypatch.setattr(_dist, "_TILE", 3 * len(b))
    calls = _counting_screens(monkeypatch)
    idx, d2 = nearest(a, b, 2)
    assert calls == [(3, 10), (3, 10), (3, 10), (2, 10)]
    ref_idx, ref_d2 = _reference(a, b, 2)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(d2, ref_d2)


def _adversarial_points(kind, rng, n, d):
    if kind == "near-duplicates":  # half the rows a few ulps from another row
        x = rng.normal(size=(n, d))
        return np.vstack([x, x * (1 + 1e-15 * rng.normal(size=(n, d)))])
    if kind == "scales":  # coordinates from 1e-30 to 1e30
        return rng.normal(size=(2 * n, d)) * np.logspace(-30, 30, d)
    if kind == "float32-offset":
        return rng.normal(size=(2 * n, d)).astype(np.float32).astype(np.float64) + 1e3
    return rng.integers(0, 3, size=(2 * n, d)).astype(float)  # a 3-value grid: ties everywhere


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("kind", ["near-duplicates", "scales", "float32-offset", "grid"])
def test_screen_never_changes_the_result(kind, seed, monkeypatch):
    """Inputs that put the screen's rounding at its worst still give the reference's bits."""
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 34)), int(rng.integers(1, 26))
    b = _adversarial_points(kind, rng, int(rng.integers(k + 1, 40)), d)
    a = np.vstack([b[rng.permutation(len(b))[: len(b) // 2]], _adversarial_points(kind, rng, 5, d)])
    monkeypatch.setattr(_dist, "_TILE", int(rng.integers(1, 8)) * len(b))  # rows span tiles
    for x, exclude_self in ((a, False), (b, True)):
        idx, d2 = nearest(x, b, k, exclude_self)
        ref_idx, ref_d2 = _reference(x, b, k, exclude_self)
        assert idx.tobytes() == ref_idx.tobytes()
        assert d2.tobytes() == ref_d2.tobytes()


def _block_case(case, rng):
    """(a, b, k, exclude_self) for one of the block bound's edge cases; b spans several rounds."""
    d = int(rng.integers(1, 9))
    if case == "exclude-self-k=m-1":
        b = rng.normal(size=(int(rng.integers(2, 40)), d))
        return b, b, len(b) - 1, True
    k = 1 if case == "k=1" else int(rng.integers(2, 7))
    nb = _dist._BLOCKS_PER_K * (k - 1) + 1
    m = nb * int(rng.integers(3, 50 if k == 1 else 7)) + (int(rng.integers(1, nb)) if case == "ragged" else 0)
    if case == "all-equal":  # every column ties, so every one is a candidate
        b = np.full((m, d), 0.5)
        return b, b, k, True
    b = rng.normal(size=(m, d)) * 10
    if case == "one-stride-class":  # every near neighbour sits in one block
        r = int(rng.integers(nb))
        b[r::nb] = 1 + 1e-3 * rng.normal(size=b[r::nb].shape)
        return 1 + 1e-3 * rng.normal(size=(9, d)), b, k, False
    return b, b, k, True


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "case",
    ["one-stride-class", "all-equal", "exclude-self-k=m-1", "k=1", "ragged", "small-tile"],
)
def test_block_bound_never_changes_the_result(case, seed, monkeypatch):
    """Columns outnumber the blocks (but at k = m - 1), so each cut comes from block minima."""
    rng = np.random.default_rng(seed)
    a, b, k, exclude_self = _block_case(case, rng)
    nb = min(len(b), _dist._BLOCKS_PER_K * (k - 1) + 1)
    assert case == "exclude-self-k=m-1" or len(b) >= 3 * nb
    assert (len(b) % nb != 0) == (case == "ragged")
    if case == "small-tile":  # rows span tiles
        monkeypatch.setattr(_dist, "_TILE", int(rng.integers(1, 4)) * len(b))
    idx, d2 = nearest(a, b, k, exclude_self)
    ref_idx, ref_d2 = _reference(a, b, k, exclude_self)
    assert idx.tobytes() == ref_idx.tobytes()
    assert d2.tobytes() == ref_d2.tobytes()


def test_identical_point_is_at_distance_zero():
    pts = np.random.default_rng(6).normal(size=(9, 4))
    idx, d2 = nearest(pts, pts)
    np.testing.assert_array_equal(idx[:, 0], np.arange(9))
    np.testing.assert_array_equal(d2[:, 0], 0.0)


def test_empty_query_gives_empty_result():
    idx, d2 = nearest(np.empty((0, 2)), np.ones((4, 2)), 3)
    assert idx.shape == d2.shape == (0, 3)


def _broadcast(a, b):
    """The literal broadcast formula; numpy adds fewer than 8 terms in order, as the kernel does."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def _in_order(a, b):
    """The squared coordinate differences added in coordinate order, as the kernel adds them."""
    return sum((a[:, None, j] - b[None, :, j]) ** 2 for j in range(a.shape[1]))


@pytest.mark.parametrize("d", [*range(1, 41), 63, 64, 65, 127, 128, 129, 130, 257, 512])
def test_kernel_bits_equal_broadcast_sum(d):
    """Same terms, added in coordinate order, whatever order numpy's own sum would use."""
    rng = np.random.default_rng(d)
    scale = np.logspace(-3, 3, d)
    a, b = rng.normal(size=(7, d)) * scale, rng.normal(size=(9, d)) * scale
    f32a, f32b = (x.astype(np.float32).astype(np.float64) for x in (a, b))
    b[4] = a[2]  # a duplicated row must give exactly 0.0
    for x, y in ((a, b), (f32a, f32b)):
        assert _dist._in_order(x[:, None], y[None]).tobytes() == _in_order(x, y).tobytes()
    assert _dist._in_order(a[:, None], b[None])[2, 4] == 0.0


@pytest.mark.parametrize("shape_a, shape_b", [((0, 5), (4, 5)), ((3, 5), (0, 5)), ((3, 0), (4, 0))])
def test_kernel_empty_inputs(shape_a, shape_b):
    a, b = np.ones(shape_a), np.zeros(shape_b)
    got = _dist._in_order(a[:, None], b[None])
    assert got.shape == (shape_a[0], shape_b[0])
    assert got.tobytes() == _broadcast(a, b).tobytes()


def _peak_bytes(search):
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loop_shaped_search_memory_is_bounded():
    """LoOP's shape, 8,800 x 8 points and k=20: the peak is set by the tile.

    A (tile, n, d) difference block at the former 8,000,000-float tile budget
    alone took ~61 MiB. The full self search holds its 2.7 MiB result, the
    0.5 MiB screen buffer, the (d + 1, n) folded product operand (0.6 MiB)
    and its row norms. When every point is equal, every screen entry is a
    candidate: ~10 entry-long index and distance arrays per tile (5 MiB)
    beside the kernel's copies of both points, taken 2^16 / d candidates at
    a time (1 MiB), so 64-D ties copy no more than 8-D ones.
    """
    x = np.random.default_rng(7).normal(size=(8800, 8))
    assert _peak_bytes(lambda: nearest(x[:1100], x, 20)) < 16 * 2**20
    assert _peak_bytes(lambda: nearest(x, x, 20, exclude_self=True)) < 4.5 * 2**20
    ties = np.ones_like(x)
    assert _peak_bytes(lambda: nearest(ties[:300], ties, 20, exclude_self=True)) < 16 * 2**20
    wide_ties = np.ones((8800, 64))
    assert _peak_bytes(lambda: nearest(wide_ties[:300], wide_ties, 20, exclude_self=True)) < 16 * 2**20


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
    assert len(a) <= _dist._TILE // len(b)  # one tile
    idx, d2 = nearest(a, b, k)
    ref = np.argsort(full, axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(idx, ref)
    assert d2.tobytes() == np.take_along_axis(full, ref, axis=1).tobytes()


@pytest.mark.parametrize("n_b", [1, 2, 5])
def test_k1_against_short_b_matches_stable_argsort(n_b, monkeypatch):
    """k=1 with len(b) below the tile's row count: (tile, len(b)) screens, the last one ragged."""
    a, b = _grid_points(9, 47), _grid_points(10, n_b)
    monkeypatch.setattr(_dist, "_TILE", 10 * len(b))  # tiles of 10 query rows
    calls = _counting_screens(monkeypatch)
    idx, d2 = nearest(a, b)
    assert calls == [(10, n_b)] * 4 + [(7, n_b)]
    full = _broadcast(a, b)
    ref = np.argsort(full, axis=1, kind="stable")[:, :1]
    np.testing.assert_array_equal(idx, ref)
    assert d2.tobytes() == np.take_along_axis(full, ref, axis=1).tobytes()


def test_ufunc_buffer_size_is_restored():
    """The search leaves numpy's ufunc buffer size as the caller set it, also when it fails."""
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=(30, 4)), rng.normal(size=(3, 4))
    old = np.setbufsize(4096)
    try:
        _dist._in_order(a[:, None], b[None])
        nearest(a, b)
        nearest(a, a, 3, exclude_self=True)
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError):  # k above len(b) fails mid-search
            nearest(a, b, 4)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("k", [1, 3])
def test_dimension_mismatch_raises_either_way(k):
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(30, 4)), rng.normal(size=(3, 4))
    for x, y in ((a, b[:, :2]), (a[:, :2], b)):
        with pytest.raises(ValueError, match="dimension"):
            nearest(x, y, k)
