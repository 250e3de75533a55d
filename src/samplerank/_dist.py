"""Exact squared Euclidean distances and the one nearest-neighbour search.

Distances come from explicit coordinate differences, not the norm-expansion
trick: identical points must give exactly zero (the IoU predictor's
zero-distance rule and the coverage oracle's self-matching rely on it), and
every caller must see the same bits for the same pair of points. The kernel
never forms the (len(a), len(b), d) difference block: it squares one
(len(a), len(b)) buffer per coordinate and adds the buffers in coordinate
order, in O(len(a) * len(b)) memory. Its bits depend on no numpy internals:
they equal ``sum((a[:, None, j] - b[None, :, j]) ** 2 for j in range(d))``
(``tests/test_dist.py`` checks them). In-order summation's error bound,
(d - 1) * eps, is as immaterial at the kernel's d (a PCA rank of at most 32,
plus an IoU coordinate) as pairwise summation's ceil(log2 d) * eps (Higham,
SIAM J. Sci. Comput. 14, 1993).

The terms run with numpy's ufunc buffer no longer than a row: ``len(b)``
rounded down to a multiple of 16, within [16, 8192], and the caller's size
restored after (``np.setbufsize`` in ``try/finally``; ``np.errstate``
restores it only on numpy 2). With a longer buffer numpy 2.4 copies the
stride-0 operands of ``np.subtract.outer`` into it: 1.0-1.6 ns per element
against 0.23-0.35 (2-vCPU VM), half the kernel's time on 28 x 2,200 LoOP
tiles. So k=1 against a *b* shorter than a tile runs as (len(b), tile)
blocks, the tile in column order, and an argmin down each column: the bits
and ties are the same, as ``(b - a) ** 2`` equals ``(a - b) ** 2`` exactly.

``nearest`` lends the kernel one list of spare term buffers per call and
reuses them for every tile (``out=``): fresh buffers land on fresh pages
when the C heap was just trimmed (a first LoOP-sized scan took 2.9 s, 1.7 s
warm; 2-vCPU VM). No reference cycle holds the list, so it is freed on return.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

_CHUNK_BUDGET = 500_000  # query rows per tile = this // b.size


def sq_dist_matrix(a: np.ndarray, b: np.ndarray, spare: list | None = None) -> np.ndarray:
    """(len(a), len(b)) matrix of squared distances between row vectors.

    Term buffers come from *spare*, flat float64 arrays of at least
    ``len(a) * len(b)`` entries, and go back to it once added. The result
    is a view of one such array, its ``.base``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"points of dimension {a.shape[1]} against {b.shape[1]}")
    size = len(a) * len(b)
    if a.shape[1] == 0:
        return np.zeros(size).reshape(len(a), len(b))
    spare = [] if spare is None else spare
    old = np.setbufsize(min(8192, max(16, len(b) - len(b) % 16)))  # no longer than a row

    def term(j):  # squared differences in coordinate j, in a buffer of its own
        t = (spare.pop() if spare else np.empty(size))[:size].reshape(len(a), len(b))
        np.subtract.outer(a[:, j], b[:, j], out=t)
        return np.multiply(t, t, out=t)

    def add(s, t):
        s += t
        spare.append(t.base)
        return s

    try:
        return reduce(add, map(term, range(a.shape[1])))
    finally:
        np.setbufsize(old)


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
    b = np.asfortranarray(b, dtype=np.float64)  # contiguous columns for the kernel
    idx = np.empty((len(a), k), dtype=np.intp)
    d2 = np.empty((len(a), k))
    tile = max(1, _CHUNK_BUDGET // max(1, b.size))
    flip = k == 1 and not exclude_self and len(b) < tile  # long kernel rows: (len(b), tile)
    spare = []  # term buffers reused from tile to tile, freed on return
    for start in range(0, len(a), tile):
        q = np.asfortranarray(a[start : start + tile]) if flip else a[start : start + tile]
        d = sq_dist_matrix(b, q, spare).T if flip else sq_dist_matrix(q, b, spare)
        if exclude_self:
            d[np.arange(len(d)), np.arange(start, start + len(d))] = np.inf
        if k == 1:
            best = d.argmin(axis=1)[:, None]  # argmin takes the lowest index on ties
        else:
            best = np.argpartition(d, k - 1, axis=1)[:, :k]
            kth = np.take_along_axis(d, best[:, k - 1 :], axis=1)
            # rows where values equal to the k-th straddle the cut keep those below
            # it plus the lowest-index ones tied with it
            fix = np.flatnonzero(np.count_nonzero(d <= kth, axis=1) > k)
            sub, cut = d[fix], kth[fix]
            tied = sub == cut
            room = k - np.count_nonzero(sub < cut, axis=1, keepdims=True)
            keep = (sub < cut) | (tied & (np.cumsum(tied, axis=1) <= room))
            best[fix] = np.nonzero(keep)[1].reshape(-1, k)
            best.sort(axis=1)
            order = np.argsort(np.take_along_axis(d, best, axis=1), axis=1, kind="stable")
            best = np.take_along_axis(best, order, axis=1)
        idx[start : start + tile] = best
        d2[start : start + tile] = np.take_along_axis(d, best, axis=1)
        spare.append(d.base)
    return idx, d2
