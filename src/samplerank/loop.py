"""Local Outlier Probability scoring.

Each point o gets a probabilistic set distance from its k-nearest-neighbour
context S(o):

    sigma(o) = sqrt( sum_{s in S(o)} d(o,s)^2 / |S(o)| )
    pdist(o) = lambda * sigma(o)
    PLOF(o)  = pdist(o) / mean_{s in S(o)} pdist(s) - 1
    nPLOF    = lambda * sqrt( mean_o PLOF(o)^2 )
    score(o) = max(0, erf( PLOF(o) / (nPLOF * sqrt(2)) ))

The set scored is the set fitted. Scores live in [0,1] and are invariant
under translation and uniform scaling of it (Kriegel et al., CIKM 2009).
S(o) is the k nearest other points, ties going to the lower index; the
scores need nothing else from the neighbourhood. The sets come from the
exact tiled search in ``_dist``, which holds O(tile * n) memory at a time
and never the n x n distance matrix.
"""

from __future__ import annotations

import math

import numpy as np

from ._dist import nearest

DEFAULT_LOOP_K = 20
DEFAULT_LOOP_LAMBDA = 3.0

_EPS = 1e-12


def fit_loop(
    points: np.ndarray, k_nn: int = DEFAULT_LOOP_K, lam: float = DEFAULT_LOOP_LAMBDA
) -> np.ndarray:
    """The (n,) outlier probability of every point; all-identical input scores 0 everywhere."""
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

    neighbours, d2 = nearest(points, points, k_nn, exclude_self=True)
    sigma = np.sqrt(d2.mean(axis=1))
    pdist = lam * sigma
    expected = pdist[neighbours].mean(axis=1)
    plof = np.where((expected > 0.0) | (pdist > 0.0), pdist / np.maximum(expected, _EPS) - 1.0, 0.0)
    nplof = lam * math.sqrt(float((plof**2).mean()))
    if nplof == 0.0:
        return np.zeros(n)
    erf = np.vectorize(math.erf)
    return np.maximum(0.0, erf(plof / (nplof * math.sqrt(2.0))))
