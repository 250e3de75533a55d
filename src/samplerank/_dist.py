"""Exact squared Euclidean distances and the one nearest-neighbour search.

Distances come from explicit coordinate differences, not the norm-expansion
trick: identical points must give exactly zero (the IoU predictor's
zero-distance rule and the coverage oracle's self-matching rely on it), and
every caller must see the same bits for the same pair of points. The kernel
squares one difference per coordinate and adds the squares in coordinate
order, so its bits equal ``sum((a[:, None, j] - b[None, :, j]) ** 2 for j in
range(d))`` (``tests/test_dist.py`` checks them) and depend on no numpy
internals.

``nearest`` takes two stages per tile of query rows.
- Screen: one BLAS product of the tile, given a ones column, with
  ``[-2 b^T; |b|^2]`` (built once per search) gives ``g_ij = |b_j|^2 -
  2 a_i.b_j`` against all of *b*; a row's own ``|a_i|^2`` shifts the whole
  row, so it is never added. Both operands are contiguous: a 7 x 8,800
  tile took 61 us, against 115 for ``(-2 q) @ b.T`` and ``+= |b|^2``.
  Column j joins block ``j % nb``, nb = min(len(b), 8 (k - 1) + 1), and
  ``np.partition`` of the (rows, nb) block minima gives t_i. The minima are
  values of nb distinct columns, so t_i is at least the row's k-th value
  (at k = 1 it is that value, the row minimum). The blocks are strided
  because the IoU search's *b*, the reference corpus, can come mode by mode
  (``generate_synthetic`` writes it so): contiguous blocks would put a
  query's neighbours in few blocks and loosen t_i. The candidates are
  ``np.flatnonzero(g_ij <= t_i + s_i)``. On 7 x 8,800, 32 x 2,000 and
  655 x 100 tiles the block bound took 0.5-1.0 ns per entry, where
  partitioning a copy of g took 1.5-2.7 (2-vCPU VM, one BLAS thread). On
  rows of 16 columns it is the slower one, 4.3 against 3.3.
- Confirmation: the kernel gives the candidates' distances, sorted by
  (distance, index) per row.

The slack ``s_i = 16 (d + 2) eps (|a_i|^2 + max_j |b_j|^2)`` is over three
times a bound on twice the gap between ``g_ij + |a_i|^2`` and the kernel,
so the result is exact. With u = eps / 2 and gamma_n = n u / (1 - n u)
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, §3.1), and
S = |a_i|^2 + |b_j|^2:
- the product's d + 1 terms err by at most gamma_(d+1) (sum_k |2 a_k b_k|
  + |b|^2) <= 2 gamma_(d+1) S in any summation order, and ``|b|^2`` itself
  by gamma_d |b|^2: (1.5 d + 1) eps S to first order;
- the kernel's d rounded squares, added in order, err by at most
  gamma_(d+2) times their sum, which is at most 2 S: (d + 2) eps S.
At least k columns have ``g_ij <= t_i``, and their kernel values are at most
one gap above ``t_i + |a_i|^2``, so the k-th kernel value is too, and any
column at or below it has ``g_ij <= t_i + 2 gap``. The bound is absolute:
it holds while no sum of squares overflows (|x| far below 1e154) and
products underflow only far below the slack (unless every point lies
within 1e-145 of the origin). The inputs are float32 embeddings
(|x| < 3.4e38), their PCA projections and centroids.

A tile holds ``_TILE`` screen entries in one float64 buffer reused from
tile to tile; the candidates' inf-padded rows are allocated per tile, and
the kernel takes the points of at most ``_TILE // d`` candidates at a time.
A search holds O(len(a) + d len(b) + _TILE) memory besides its result.
"""

from __future__ import annotations

import numpy as np

_TILE = 2**16  # screen entries per tile: query rows = _TILE // len(b)
_BLOCKS_PER_K = 8  # strided column blocks per neighbour sought, past the first


def _in_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum((x[..., j] - y[..., j]) ** 2), x and y broadcast, added in coordinate order."""
    s = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    for j in range(x.shape[-1]):
        t = x[..., j] - y[..., j]
        s += np.multiply(t, t, out=t)
    return s


def nearest(
    a: np.ndarray, b: np.ndarray, k: int = 1, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Indices into *b* of the k nearest rows to each row of *a*, and their squared distances.

    Both are (len(a), k), nearest first, ties toward the lower index: exactly
    ``argsort(_in_order(a[:, None], b[None]), kind="stable")[:, :k]``, the
    kernel's full matrix sorted, without holding it. ``exclude_self`` treats
    *a* and *b* as one point set, skipping each row's own index. Inputs must be finite.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"points of dimension {a.shape[1]} against {b.shape[1]}")
    m, d = b.shape
    idx = np.empty((len(a), k), dtype=np.intp)
    d2 = np.empty((len(a), k))
    b_sq = np.einsum("ij,ij->i", b, b)
    slack = 16 * (d + 2) * np.finfo(float).eps * (np.einsum("ij,ij->i", a, a) + b_sq.max(initial=0))
    right = np.vstack([b.T * -2, b_sq])  # (d + 1, m): q @ right[:d] + right[d] = g
    nb = max(1, min(m, _BLOCKS_PER_K * (k - 1) + 1))
    main = m - m % nb  # columns in whole rounds of the nb strided blocks
    tile = max(1, min(len(a), _TILE // max(1, m)))
    screen, left = np.empty(tile * m), np.ones((tile, d + 1))
    step = max(1, _TILE // max(1, d))  # candidates per kernel call
    for start in range(0, len(a), tile):
        q = a[start : start + tile]
        n = len(q)
        left[:n, :d] = q
        g = screen[: n * m].reshape(n, m)
        np.matmul(left[:n], right, out=g)
        if exclude_self:
            g[np.arange(n), np.arange(start, start + n)] = np.inf
        low = g[:, :main].reshape(n, -1, nb).min(axis=1)
        np.minimum(low[:, : m - main], g[:, main:], out=low[:, : m - main])
        low.partition(k - 1, axis=1)
        cut = low[:, k - 1 : k] + slack[start : start + n, None]
        rows, cols = np.divmod(np.flatnonzero(g <= cut), m)
        exact = np.concatenate([  # in chunks: on tied data every screen entry is a candidate
            _in_order(q.take(rows[s : s + step], axis=0), b.take(cols[s : s + step], axis=0))
            for s in range(0, len(rows), step)
        ])
        counts = np.bincount(rows, minlength=n)
        first = np.cumsum(counts) - counts  # each row's candidates, in index order
        pad = np.full((n, counts.max()), np.inf)
        pad[rows, np.arange(len(rows)) - first[rows]] = exact
        best = pad.argsort(axis=1, kind="stable")[:, :k]
        idx[start : start + n] = cols[first[:, None] + best]
        d2[start : start + n] = np.take_along_axis(pad, best, axis=1)
    return idx, d2
