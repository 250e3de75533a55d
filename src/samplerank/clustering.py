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
import struct
from dataclasses import dataclass

import numpy as np

from ._dist import nearest, sq_dist_matrix
from .data import read_f32, read_model_file

ERROR_IOU_THRESHOLD = 0.5

_CLU_MAGIC = b"CLU1"

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
    d2 = ((points - centres[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centres[j] = points[rng.integers(n)]
            continue
        centres[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centres[j]) ** 2).sum(axis=1))
    return centres


def kmeans(
    points: np.ndarray, k: int, seed: int | np.random.SeedSequence = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding; returns (centroids, labels)."""
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
        sums = np.zeros_like(centres)
        np.add.at(sums, labels, points)
        keep = counts > 0
        centres[keep] = sums[keep] / counts[keep, None]

        if np.isfinite(prev_inertia) and prev_inertia - inertia <= _KMEANS_REL_TOL * max(
            prev_inertia, 1e-300
        ):
            break
        prev_inertia = inertia

    return centres, nearest(points, centres)[0].ravel()


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
        for name in ("centroids", "feature_mean", "feature_scale", "p95_radius"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        counts = np.asarray(self.member_count, dtype=np.int64)
        flags = np.asarray(self.is_error, dtype=bool)
        counts.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "member_count", counts)
        object.__setattr__(self, "is_error", flags)
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
class OrphanCluster:
    centroid: np.ndarray
    member_indices: np.ndarray


@dataclass(frozen=True)
class OrphanReport:
    """Orphan clusters plus per-sample orphan/error membership weights."""

    orphan_clusters: tuple[OrphanCluster, ...]
    orph_weight: np.ndarray  # (n_ft,) in [0,1]
    err_weight: np.ndarray   # (n_ft,) in [0,1]


def _standardise_stats(reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = reduced.mean(axis=0)
    scale = reduced.std(axis=0)
    scale[scale == 0.0] = 1.0
    return mean, scale


def _percentile_radii(
    points: np.ndarray, centres: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    radii = np.zeros(k)
    dists = np.sqrt(((points - centres[labels]) ** 2).sum(axis=1))
    for j in range(k):
        member = dists[labels == j]
        if member.size:
            radii[j] = np.percentile(member, 95)
    return radii


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
    if iou_weight <= 0.0:
        raise ValueError("iou_weight must be positive")
    n = core_reduced.shape[0]
    if k is None:
        k = default_cluster_count(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")

    mean, scale = _standardise_stats(core_reduced)
    augmented = np.hstack(
        [(core_reduced - mean) / scale, (iou_weight * core_ious)[:, None]]
    )
    centres, labels = kmeans(augmented, k, seed)
    counts = np.bincount(labels, minlength=k)
    radii = _percentile_radii(augmented, centres, labels, k)
    return ClusterModel(
        centroids=centres,
        iou_weight=iou_weight,
        feature_mean=mean,
        feature_scale=scale,
        member_count=counts,
        p95_radius=radii,
        is_error=np.zeros(k, dtype=bool),
    )


def classify_batch(
    model: ClusterModel, reduced: np.ndarray, ious: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest non-error centroid of every sample: (cluster ids, raw distances)."""
    points = model.augment(reduced, ious)
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

    augmented = model.augment(core_reduced[low], core_ious[low])
    centres, labels = kmeans(augmented, k_err, seed)
    counts = np.bincount(labels, minlength=k_err)
    radii = _percentile_radii(augmented, centres, labels, k_err)
    return ClusterModel(
        centroids=np.vstack([model.centroids, centres]),
        iou_weight=model.iou_weight,
        feature_mean=model.feature_mean,
        feature_scale=model.feature_scale,
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
    if err.size == 0:
        return weights
    ious = ft_points[:, -1] / model.iou_weight
    candidates = np.flatnonzero(ious < ERROR_IOU_THRESHOLD)
    d = np.sqrt(sq_dist_matrix(ft_points[candidates], model.centroids[err]))
    inside = d <= model.p95_radius[err][None, :]
    closest = np.where(inside, d, np.inf).argmin(axis=1)
    hit = inside.any(axis=1)
    weights[candidates[hit]] = model.member_count[err[closest[hit]]] / model.member_count[err].max()
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
    if ft_points.ndim != 2 or ft_points.shape[0] == 0:
        raise ValueError("ft_points must be a non-empty (N, R+1) array")
    if ft_points.shape[1] != model.centroids.shape[1]:
        raise ValueError("ft_points dimension does not match model centroids")
    n = ft_points.shape[0]
    if k_ft is None:
        k_ft = default_cluster_count(n)
    if not 1 <= k_ft <= n:
        raise ValueError(f"k_ft={k_ft} out of range [1, {n}]")

    centres, labels = kmeans(ft_points, k_ft, seed)
    core = model.core_indices
    gap = np.sqrt(sq_dist_matrix(centres, model.centroids[core]))
    orphaned = np.flatnonzero((gap > model.p95_radius[core][None, :]).all(axis=1))

    orph_weight = np.zeros(n)
    clusters: list[OrphanCluster] = []
    if orphaned.size:
        sizes = np.bincount(labels, minlength=k_ft)[orphaned]
        biggest = sizes.max()
        for j, size in zip(orphaned, sizes):
            members = np.flatnonzero(labels == j)
            clusters.append(OrphanCluster(centroid=centres[j].copy(), member_indices=members))
            orph_weight[members] = size / biggest

    return OrphanReport(
        orphan_clusters=tuple(clusters),
        orph_weight=orph_weight,
        err_weight=error_membership(model, ft_points),
    )


def save_clusters(model: ClusterModel, path) -> None:
    k = model.centroids.shape[0]
    with open(path, "wb") as fh:
        fh.write(_CLU_MAGIC)
        fh.write(struct.pack("<II", k, model.reduced_dim))
        fh.write(np.float32(model.iou_weight).tobytes())
        fh.write(model.feature_mean.astype("<f4").tobytes())
        fh.write(model.feature_scale.astype("<f4").tobytes())
        fh.write(model.centroids.astype("<f4").tobytes())
        fh.write(model.p95_radius.astype("<f4").tobytes())
        fh.write(model.member_count.astype("<u4").tobytes())
        fh.write(model.is_error.astype("<u1").tobytes())


def load_clusters(path) -> ClusterModel:
    with read_model_file(
        path, _CLU_MAGIC, "a cluster model", "<II",
        lambda k, r: 12 + 4 * (1 + 2 * r + k * (r + 1) + 2 * k) + k,
    ) as (blob, (k, r)):
        centroids_end = 1 + 2 * r + k * (r + 1)
        floats = read_f32(blob, 12, centroids_end + k)
        off = 12 + 4 * floats.size
        counts = np.frombuffer(blob, dtype="<u4", count=k, offset=off).astype(np.int64)
        flags = np.frombuffer(blob, dtype="<u1", count=k, offset=off + 4 * k).astype(bool)
        return ClusterModel(
            centroids=floats[1 + 2 * r : centroids_end].reshape(k, r + 1),
            iou_weight=float(floats[0]),
            feature_mean=floats[1 : 1 + r],
            feature_scale=floats[1 + r : 1 + 2 * r],
            member_count=counts,
            p95_radius=floats[centroids_end:],
            is_error=flags,
        )
