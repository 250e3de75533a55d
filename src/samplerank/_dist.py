"""Exact squared Euclidean distances and the one nearest-neighbour search.

Distances come from explicit coordinate differences rather than the
norm-expansion trick: identical points must give exactly zero (the IoU
predictor's zero-distance rule and the coverage oracle's self-matching
both rely on it), and every caller must see bit-identical values for the
same pair of points.
"""

from __future__ import annotations

import numpy as np

_CHUNK_BUDGET = 8_000_000  # floats per difference block


def sq_dist_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of squared distances between row vectors."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def nearest(
    a: np.ndarray, b: np.ndarray, k: int = 1, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Indices into *b* of the k nearest rows to each row of *a*, and their squared distances.

    Both are (len(a), k), nearest first, ties toward the lower index: exactly
    ``argsort(sq_dist_matrix(a, b), kind="stable")[:, :k]``. The scan is exact
    and never holds that matrix, only one tile of query rows against all of
    *b* (O(tile * len(b)) memory). ``exclude_self`` treats *a* and *b* as one
    point set and skips each row's own index. Inputs must be finite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    idx = np.empty((len(a), k), dtype=np.intp)
    d2 = np.empty((len(a), k))
    tile = max(1, _CHUNK_BUDGET // max(1, b.size))
    for start in range(0, len(a), tile):
        d = sq_dist_matrix(a[start : start + tile], b)
        if exclude_self:
            rows = np.arange(len(d))
            d[rows, start + rows] = np.inf
        if k == 1:
            best = d.argmin(axis=1)[:, None]  # argmin takes the lowest index on ties
        else:
            # keep all values below the k-th plus the lowest-index ones tied with it
            kth = np.partition(d, k - 1, axis=1)[:, k - 1, None]
            below, tied = d < kth, d == kth
            room = k - below.sum(axis=1, keepdims=True)
            best = np.nonzero(below | (tied & (np.cumsum(tied, axis=1) <= room)))[1].reshape(-1, k)
            order = np.argsort(np.take_along_axis(d, best, axis=1), axis=1, kind="stable")
            best = np.take_along_axis(best, order, axis=1)
        idx[start : start + tile] = best
        d2[start : start + tile] = np.take_along_axis(d, best, axis=1)
    return idx, d2
