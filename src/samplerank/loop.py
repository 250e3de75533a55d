"""Local Outlier Probability scoring.

Each point o gets a probabilistic set distance from its k-nearest-neighbour
context S(o):

    sigma(o) = sqrt( sum_{s in S(o)} d(o,s)^2 / |S(o)| )
    pdist(o) = lambda * sigma(o)
    PLOF(o)  = pdist(o) / mean_{s in S(o)} pdist(s) - 1
    nPLOF    = lambda * sqrt( mean_o PLOF(o)^2 )
    score(o) = max(0, erf( PLOF(o) / (nPLOF * sqrt(2)) ))

Scores live in [0,1] and are invariant under translation and uniform
scaling of the point set. The context set excludes the point itself;
neighbours are found by exact linear scan, which is adequate at the
corpus sizes this engine targets (thousands of points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dist import sq_dist_matrix

DEFAULT_LOOP_K = 20
DEFAULT_LOOP_LAMBDA = 3.0

_EPS = 1e-12


@dataclass(frozen=True)
class LoopModel:
    points: np.ndarray   # (n, R)
    k_nn: int
    lam: float
    nplof: float
    pdist: np.ndarray    # (n,)
    plof: np.ndarray     # (n,)
    scores: np.ndarray   # (n,)

    def __post_init__(self) -> None:
        for name in ("points", "pdist", "plof", "scores"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _neighbour_indices(points: np.ndarray, k_nn: int) -> np.ndarray:
    """Indices of the k nearest neighbours of every point, excluding itself.

    Ties are resolved toward the lower point index. argpartition narrows the
    field cheaply but splits values tied at the k-th distance arbitrarily,
    so rows with such boundary ties are re-selected exactly.
    """
    d2 = sq_dist_matrix(points, points)
    np.fill_diagonal(d2, np.inf)
    part = np.argpartition(d2, k_nn - 1, axis=1)[:, :k_nn]
    part_d = np.take_along_axis(d2, part, axis=1)
    order = np.lexsort((part, part_d), axis=1)
    idx = np.take_along_axis(part, order, axis=1)

    kth = np.take_along_axis(part_d, order[:, -1:], axis=1)
    tied_rows = np.flatnonzero((d2 == kth).sum(axis=1) > (part_d == kth).sum(axis=1))
    for i in tied_rows:
        candidates = np.flatnonzero(d2[i] <= kth[i, 0])
        refined = candidates[np.lexsort((candidates, d2[i, candidates]))]
        idx[i] = refined[:k_nn]
    return idx


def fit_loop(
    points: np.ndarray, k_nn: int = DEFAULT_LOOP_K, lam: float = DEFAULT_LOOP_LAMBDA
) -> LoopModel:
    """Score every fitted point; degenerate (all-identical) input scores 0 everywhere."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, R) array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite values")
    n = points.shape[0]
    if not 1 <= k_nn < n:
        raise ValueError(f"k_nn={k_nn} requires at least k_nn+1={k_nn + 1} points, got {n}")
    if lam <= 0.0:
        raise ValueError("lambda must be positive")

    if np.all(points == points[0]):
        zeros = np.zeros(n)
        return LoopModel(points=points, k_nn=k_nn, lam=lam, nplof=0.0,
                         pdist=zeros, plof=zeros.copy(), scores=zeros.copy())

    neighbours = _neighbour_indices(points, k_nn)
    diffs = points[:, None, :] - points[neighbours]
    sigma = np.sqrt((diffs**2).sum(axis=2).mean(axis=1))
    pdist = lam * sigma
    expected = pdist[neighbours].mean(axis=1)
    plof = np.where(
        expected > 0.0,
        pdist / np.maximum(expected, _EPS) - 1.0,
        np.where(pdist > 0.0, pdist / _EPS - 1.0, 0.0),
    )
    nplof = lam * math.sqrt(float((plof**2).mean()))
    if nplof == 0.0:
        scores = np.zeros(n)
    else:
        erf = np.vectorize(math.erf)
        scores = np.maximum(0.0, erf(plof / (nplof * math.sqrt(2.0))))
    return LoopModel(points=points, k_nn=k_nn, lam=lam, nplof=nplof,
                     pdist=pdist, plof=plof, scores=scores)
