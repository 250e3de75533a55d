"""Two-phase clustering of the latent space.

Phase one fits k-means over the labelled reference samples in an augmented
space: reduced coordinates standardised to unit variance per dimension,
plus one extra coordinate carrying the (weighted) IoU value. Phase two
classifies unlabelled samples into those clusters by nearest centroid.

On top of that sit two derived structures:

* error clusters — a second k-means over only the references whose IoU is
  below 0.5, marking regions the model handles poorly;
* orphan clusters — clusters found among the unlabelled samples whose
  centroid falls outside the 95th-percentile radius of every reference
  cluster, i.e. content with no counterpart in the reference corpus.

Everything is deterministic under a fixed seed: k-means++ seeding from a
seeded generator, at most 300 Lloyd iterations with relative inertia
tolerance 1e-4, empty clusters re-seeded from the farthest point, and
nearest-centroid ties resolved toward the lowest cluster index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._dist import _in_order, nearest
from .data import read_binary_file, read_only, write_binary_file

ERROR_IOU_THRESHOLD = 0.5

# header: cluster count k, reduced dimension r; payload: IoU weight, feature mean and scale, centroids,
# p95 radii, member counts, error flags
_CLU_LAYOUT = b"CLU1", "<II", lambda k, r: [
    ("<f4", ()), ("<f4", (r,)), ("<f4", (r,)), ("<f4", (k, r + 1)), ("<f4", (k,)), ("<u4", (k,)), ("?", (k,))]

_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-4


def default_cluster_count(n_samples: int, lo: int = 2, hi: int = 16) -> int:
    """sqrt(N/2) rule of thumb, clamped to [lo, hi] and to the sample count."""
    k = int(round(math.sqrt(n_samples / 2.0)))
    return max(min(max(lo, k), hi, n_samples), 1)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centres = np.empty((k, points.shape[1]))
    centres[0] = points[rng.integers(n)]
    d2 = _in_order(points, centres[0])
    for j in range(1, k):
        total = d2.sum()  # 0 once every point sits on a centre: then draw uniformly
        centres[j] = points[rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)]
        np.minimum(d2, _in_order(points, centres[j]), out=d2)
    return centres


def _cluster_sums(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    # per-label sums, each point added in index order: the bits of np.add.at
    return np.array([np.bincount(labels, column, k) for column in points.T]).reshape(-1, k).T


def kmeans(
    points: np.ndarray, k: int, seed: int | np.random.SeedSequence = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding; returns (centroids, labels, squared distances to them)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (N, dim) array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite values")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")

    rng = np.random.default_rng(seed)
    centres = _kmeans_pp_init(points, k, rng)
    prev_inertia = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        labels, m = map(np.ravel, nearest(points, centres))

        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # re-seed each empty cluster from the farthest remaining point
            centres[empties] = points[np.argsort(-m, kind="stable")[: empties.size]]
            labels, m = map(np.ravel, nearest(points, centres))
            counts = np.bincount(labels, minlength=k)

        inertia = m.sum()
        sums = _cluster_sums(points, labels, k)
        keep = counts > 0
        centres[keep] = sums[keep] / counts[keep, None]

        if np.isfinite(prev_inertia) and prev_inertia - inertia <= _KMEANS_REL_TOL * max(
            prev_inertia, 1e-300
        ):
            break
        prev_inertia = inertia

    return (centres, *map(np.ravel, nearest(points, centres)))


@dataclass(frozen=True)
class ClusterModel:
    """Centroids in standardised-reduced + weighted-IoU space.

    Error clusters, when fitted, are appended to the centroid list with
    their ``is_error`` flag set; classification of unlabelled samples only
    ever targets the non-error (core) centroids.
    """

    centroids: np.ndarray      # (K, R+1)
    iou_weight: float
    feature_mean: np.ndarray   # (R,) standardisation offset
    feature_scale: np.ndarray  # (R,) standardisation divisor
    member_count: np.ndarray   # (K,)
    p95_radius: np.ndarray     # (K,)
    is_error: np.ndarray       # (K,) bool

    def __post_init__(self) -> None:
        f64 = np.float64
        for name, dtype in (("centroids", f64), ("feature_mean", f64), ("feature_scale", f64),
                            ("p95_radius", f64), ("member_count", np.int64), ("is_error", bool)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))
        counts, flags = self.member_count, self.is_error
        k = self.centroids.shape[0]
        if k < 1 or self.centroids.ndim != 2:
            raise ValueError("need at least one centroid")
        if self.iou_weight <= 0.0:
            raise ValueError("iou_weight must be positive")
        if not (counts.shape == flags.shape == self.p95_radius.shape == (k,)):
            raise ValueError("per-cluster arrays must match centroid count")
        if np.any(self.p95_radius < 0.0):
            raise ValueError("radii must be nonnegative")
        if flags.all():
            raise ValueError("need at least one core (non-error) centroid")
        if flags.any() and counts[flags].max() == 0:
            raise ValueError("error clusters have no members")

    @property
    def reduced_dim(self) -> int:
        return self.centroids.shape[1] - 1

    @property
    def core_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_error)

    @property
    def error_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_error)

    def augment(self, reduced: np.ndarray, ious: np.ndarray) -> np.ndarray:
        """Map (reduced vectors, IoU values) into the model's clustering space."""
        reduced = np.atleast_2d(np.asarray(reduced, dtype=np.float64))
        ious = np.atleast_1d(np.asarray(ious, dtype=np.float64))
        if reduced.shape[1] != self.reduced_dim:
            raise ValueError(
                f"reduced dimension {reduced.shape[1]} does not match model ({self.reduced_dim})"
            )
        z = (reduced - self.feature_mean) / self.feature_scale
        return np.hstack([z, (self.iou_weight * ious)[:, None]])


@dataclass(frozen=True)
class OrphanReport:
    """Member counts of the orphan clusters plus per-sample orphan/error membership weights."""

    orphan_clusters: tuple[int, ...]
    orph_weight: np.ndarray  # (n_ft,) in [0,1]
    err_weight: np.ndarray   # (n_ft,) in [0,1]


def _fit(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means over *points*: (centroids, member counts, 95th-percentile member distances)."""
    centres, labels, d2 = kmeans(points, k, seed)
    counts = np.bincount(labels, minlength=k)
    dists = np.sqrt(d2)
    radii = [np.percentile(dists[labels == j], 95) if counts[j] else 0.0 for j in range(k)]
    return centres, counts, np.array(radii)


def _holding(model: ClusterModel, points: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """Per point, the nearest of *clusters* whose 95th-percentile radius holds it, else -1."""
    held, best = np.full(len(points), -1), np.full(len(points), np.inf)
    for c in clusters:
        d = np.sqrt(_in_order(points, model.centroids[c]))
        take = (d <= model.p95_radius[c]) & (d < best)  # strict: of tied clusters the first stays
        held[take], best[take] = c, d[take]
    return held


def fit_core_clusters(
    core_reduced: np.ndarray,
    core_ious: np.ndarray,
    k: int | None = None,
    iou_weight: float = 1.0,
    seed: int | np.random.SeedSequence = 0,
) -> ClusterModel:
    """K-means over reference samples in augmented (reduced + IoU) space."""
    core_reduced = np.asarray(core_reduced, dtype=np.float64)
    core_ious = np.asarray(core_ious, dtype=np.float64)
    if core_reduced.ndim != 2 or core_reduced.shape[0] == 0:
        raise ValueError("core_reduced must be a non-empty (N, R) array")
    if core_ious.shape != (core_reduced.shape[0],):
        raise ValueError("need one IoU per core sample")
    if k is None:
        k = default_cluster_count(core_reduced.shape[0])
    mean = core_reduced.mean(axis=0)
    scale = core_reduced.std(axis=0)
    scale[scale == 0.0] = 1.0
    augmented = np.hstack([(core_reduced - mean) / scale, (iou_weight * core_ious)[:, None]])
    centres, counts, radii = _fit(augmented, k, seed)
    return ClusterModel(
        centroids=centres, iou_weight=iou_weight, feature_mean=mean, feature_scale=scale,
        member_count=counts, p95_radius=radii, is_error=np.zeros(k, dtype=bool),
    )


def classify_batch(model: ClusterModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest non-error centroid of every ``model.augment`` output row: (cluster ids, raw distances)."""
    core = model.core_indices
    best, d2 = map(np.ravel, nearest(points, model.centroids[core]))
    return core[best], np.sqrt(d2)


def normalize_distances(raw_dist: np.ndarray) -> np.ndarray:
    """Scale raw distances by the batch maximum into [0,1]; an all-zero batch stays zero."""
    raw_dist = np.asarray(raw_dist, dtype=np.float64)
    if raw_dist.size == 0:
        raise ValueError("cannot normalise an empty batch")
    top = raw_dist.max()
    return np.zeros_like(raw_dist) if top == 0.0 else raw_dist / top


def fit_error_clusters(
    model: ClusterModel,
    core_reduced: np.ndarray,
    core_ious: np.ndarray,
    k_err: int | None = None,
    seed: int | np.random.SeedSequence = 1,
) -> ClusterModel:
    """Cluster the below-threshold-IoU references and fold them in as error clusters.

    Returns the model unchanged when no reference falls below the threshold.
    """
    core_reduced = np.asarray(core_reduced, dtype=np.float64)
    core_ious = np.asarray(core_ious, dtype=np.float64)
    low = core_ious < ERROR_IOU_THRESHOLD
    m = int(low.sum())
    if m == 0:
        return model
    if k_err is None:
        k_err = default_cluster_count(m, lo=1, hi=8)
    if not 1 <= k_err <= m:
        raise ValueError(f"k_err={k_err} exceeds low-IoU subpopulation size {m}")

    centres, counts, radii = _fit(model.augment(core_reduced[low], core_ious[low]), k_err, seed)
    return replace(
        model,
        centroids=np.vstack([model.centroids, centres]),
        member_count=np.concatenate([model.member_count, counts]),
        p95_radius=np.concatenate([model.p95_radius, radii]),
        is_error=np.concatenate([model.is_error, np.ones(k_err, dtype=bool)]),
    )


def error_membership(model: ClusterModel, ft_points: np.ndarray) -> np.ndarray:
    """Per-sample error-cluster weight: |cluster| / max error-cluster size.

    A sample belongs to an error cluster only when its IoU coordinate is
    below the error threshold AND it lies within that cluster's
    95th-percentile radius; otherwise its weight is 0.
    """
    weights = np.zeros(ft_points.shape[0])
    err = model.error_indices
    candidates = np.flatnonzero(ft_points[:, -1] / model.iou_weight < ERROR_IOU_THRESHOLD)
    if err.size == 0 or candidates.size == 0:  # nothing can be held: skip the walk over the error clusters
        return weights
    held = _holding(model, ft_points[candidates], err)
    hit = held >= 0
    weights[candidates[hit]] = model.member_count[held[hit]] / model.member_count[err].max()
    return weights


def detect_orphans(
    model: ClusterModel,
    ft_points: np.ndarray,
    k_ft: int | None = None,
    seed: int | np.random.SeedSequence = 2,
) -> OrphanReport:
    """Cluster the unlabelled pool and flag clusters foreign to the references.

    A fine-tuning cluster is orphaned iff its centroid lies farther from
    every core centroid than that cluster's 95th-percentile radius. Member
    weights are the cluster size divided by the largest same-kind cluster
    size, mirroring the error-cluster rule.
    """
    ft_points = np.asarray(ft_points, dtype=np.float64)
    if k_ft is None:
        k_ft = default_cluster_count(len(ft_points))
    centres, labels, _ = kmeans(ft_points, k_ft, seed)  # checks the points and k_ft
    orphaned = _holding(model, centres, model.core_indices) < 0

    sizes = np.bincount(labels, minlength=k_ft)
    biggest = sizes[orphaned].max(initial=1)
    return OrphanReport(
        orphan_clusters=tuple(sizes[orphaned].tolist()),
        orph_weight=np.where(orphaned[labels], sizes[labels] / biggest, 0.0),
        err_weight=error_membership(model, ft_points),
    )


def save_clusters(model: ClusterModel, path) -> bytes | None:
    arrays = [model.iou_weight, model.feature_mean, model.feature_scale, model.centroids,
              model.p95_radius, model.member_count, model.is_error]
    return write_binary_file(path, _CLU_LAYOUT, (model.centroids.shape[0], model.reduced_dim), arrays)


def load_clusters(path, blob: bytes | None = None) -> ClusterModel:
    with read_binary_file(path, "a cluster model", _CLU_LAYOUT, blob) as (_, arrays):
        iou_weight, mean, scale, centroids, radii, counts, flags = arrays
        return ClusterModel(centroids, float(iou_weight), mean, scale, counts, radii, flags)
