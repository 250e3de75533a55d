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
- Screen: one BLAS product gives ``g_ij = |b_j|^2 - 2 a_i.b_j`` for the
  tile against all of *b*; a row's own ``|a_i|^2`` shifts the whole row, so
  it is never added. ``np.partition`` of a reused copy gives each row's k-th
  value t_i, and ``np.flatnonzero`` of the mask ``g_ij <= t_i + s_i`` the
  candidates. On 7 x 8,800, 32 x 2,000 and 655 x 100 tiles these took
  2.1-3.6 and 0.3-0.4 ns per entry, where ``argpartition`` and a 2-D
  ``nonzero`` took 3.1-8.4 and 3.3-3.8 (2-vCPU VM).
- Confirmation: the kernel gives the candidates' distances, sorted by
  (distance, index) per row.

The slack ``s_i = 16 (d + 2) eps (|a_i|^2 + max_j |b_j|^2)`` is four times a
bound on twice the gap between ``g_ij + |a_i|^2`` and the kernel, so the
result is exact. With u = eps / 2 and gamma_n = n u / (1 - n u) (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, §3.1), and
S = |a_i|^2 + |b_j|^2:
- the product errs by at most gamma_d sum_k |2 a_k b_k| <= gamma_d S in any
  summation order, ``|b|^2`` by gamma_d |b|^2 and the last addition by
  u |g| <= 2 u S: (d + 1) eps S to first order;
- the kernel's d rounded squares, added in order, err by at most
  gamma_(d+2) times their sum, which is at most 2 S: (d + 2) eps S.
The k columns with ``g_ij <= t_i`` have kernel values within one gap of
``t_i + |a_i|^2``, so the k-th kernel value is too, and any column at or
below it has ``g_ij <= t_i + 2 gap``. The bound is absolute: it holds while
no sum of squares overflows (|x| far below 1e154) and products underflow
only far below the slack (unless every point lies within 1e-145 of the
origin). The inputs are float32 embeddings (|x| < 3.4e38), their PCA
projections and centroids.

A tile holds ``_TILE`` screen entries in two float64 buffers reused from
tile to tile (the second also orders the candidates), so a search holds
O(len(a) + len(b) + _TILE) memory besides its result.
"""

from __future__ import annotations

import numpy as np

_TILE = 2**16  # screen entries per tile: query rows = _TILE // len(b)


def _checked(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"points of dimension {a.shape[1]} against {b.shape[1]}")
    return a, b


def _in_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum((x[..., j] - y[..., j]) ** 2), x and y broadcast, added in coordinate order."""
    s = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    for j in range(x.shape[-1]):
        t = x[..., j] - y[..., j]
        s += np.multiply(t, t, out=t)
    return s


def sq_dist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of squared distances between row vectors."""
    a, b = _checked(a, b)
    return _in_order(a[:, None], b[None])


def nearest(
    a: np.ndarray, b: np.ndarray, k: int = 1, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Indices into *b* of the k nearest rows to each row of *a*, and their squared distances.

    Both are (len(a), k), nearest first, ties toward the lower index: exactly
    ``argsort(sq_dist_matrix(a, b), kind="stable")[:, :k]``, without holding
    that matrix. ``exclude_self`` treats *a* and *b* as one point set and
    skips each row's own index. Inputs must be finite.
    """
    a, b = _checked(a, b)
    m, d = b.shape
    idx = np.empty((len(a), k), dtype=np.intp)
    d2 = np.empty((len(a), k))
    b_sq = np.einsum("ij,ij->i", b, b)
    slack = 16 * (d + 2) * np.finfo(float).eps * (np.einsum("ij,ij->i", a, a) + b_sq.max(initial=0))
    tile = max(1, min(len(a), _TILE // max(1, m)))
    screen, part = np.empty(tile * m), np.empty(tile * m)
    for start in range(0, len(a), tile):
        q = a[start : start + tile]
        g = screen[: len(q) * m].reshape(len(q), m)
        np.matmul(q * -2, b.T, out=g)
        g += b_sq
        if exclude_self:
            g[np.arange(len(q)), np.arange(start, start + len(q))] = np.inf
        t = part[: g.size].reshape(g.shape)
        np.copyto(t, g)
        t.partition(k - 1, axis=1)
        cut = t[:, k - 1 : k] + slack[start : start + len(q), None]
        rows, cols = np.divmod(np.flatnonzero(g <= cut), m)
        exact = _in_order(q.take(rows, axis=0), b.take(cols, axis=0))
        if exclude_self:
            exact[cols == rows + start] = np.inf
        counts = np.bincount(rows, minlength=len(q))
        first = np.cumsum(counts) - counts  # each row's candidates, in index order
        pad = part[: len(q) * counts.max()].reshape(len(q), -1)
        pad.fill(np.inf)
        pad[rows, np.arange(len(rows)) - first[rows]] = exact
        best = pad.argsort(axis=1, kind="stable")[:, :k]
        idx[start : start + len(q)] = cols[first[:, None] + best]
        d2[start : start + len(q)] = np.take_along_axis(pad, best, axis=1)
    return idx, d2
