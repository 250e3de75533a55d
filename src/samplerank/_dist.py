"""Exact squared Euclidean distances and the one nearest-neighbour search.

Distances come from explicit coordinate differences rather than the
norm-expansion trick: identical points must give exactly zero (the IoU
predictor's zero-distance rule and the coverage oracle's self-matching
both rely on it), and every caller must see bit-identical values for the
same pair of points.

The kernel never forms the (len(a), len(b), d) difference block. It builds
one (len(a), len(b)) buffer of squared differences per coordinate and adds
the buffers in the order numpy's ``pairwise_sum`` adds the d terms of each
row of ``((a[:, None] - b[None]) ** 2).sum(axis=2)``: in sequence below 8
terms, with eight strided accumulators up to 128, split in halves above.
The same terms added in the same order give the same float64 bits, in
O(len(a) * len(b)) memory with no d factor (``tests/test_dist.py`` checks
the bits against the broadcast formula).

``nearest`` lends the kernel one list of spare term buffers per call and
reuses them for every tile (``out=``): fresh buffers land on fresh pages
whenever the C heap was just trimmed, which made a first LoOP-sized scan
2.9 s against 1.7 s warm (2-vCPU VM). No reference cycle holds the list,
so the buffers are freed when ``nearest`` returns, not at a collection.
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
    size = len(a) * len(b)
    if a.shape[1] == 0:
        return np.zeros(size).reshape(len(a), len(b))
    spare = [] if spare is None else spare

    def term(j):  # squared differences in coordinate j, in a buffer of its own
        t = (spare.pop() if spare else np.empty(size))[:size].reshape(len(a), len(b))
        np.subtract.outer(a[:, j], b[:, j], out=t)
        return np.multiply(t, t, out=t)

    def add(s, t):
        s += t
        spare.append(t.base)
        return s

    return _pairwise(term, add, 0, a.shape[1])


def _run(term, add, lo, hi, step=1):  # terms lo, lo + step, ... below hi, in sequence
    return reduce(add, map(term, range(lo, hi, step)))


def _pairwise(term, add, lo, n):
    """Terms lo .. lo + n - 1 in pairwise_sum order (not a closure: one calling itself is a cycle)."""
    if n < 8:
        return _run(term, add, lo, lo + n)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return add(_pairwise(term, add, lo, half), _pairwise(term, add, lo + half, n - half))
    end = lo + n - n % 8

    def r(j):  # accumulator r[j]: terms j, j + 8, ...
        return _run(term, add, lo + j, end, 8)

    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), each accumulator built before the next
    tree = add(add(add(r(0), r(1)), add(r(2), r(3))), add(add(r(4), r(5)), add(r(6), r(7))))
    return reduce(add, map(term, range(end, lo + n)), tree)  # then the n % 8 rest


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
    spare = []  # term buffers reused from tile to tile, freed on return
    for start in range(0, len(a), tile):
        d = sq_dist_matrix(a[start : start + tile], b, spare)
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
