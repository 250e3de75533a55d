"""Seeded synthetic latent-space generator for the benchmark harness.

The generator shapes the same regimes the ranking engine is built for: a
reference corpus drawn from a handful of Gaussian modes (two dominant,
mirroring the bipolar undeveloped-vs-urbanised structure of segmentation
latents) with per-mode IoU levels, and a fine-tuning pool consisting of

* a base population drawn from the reference modes under a separate mix
  (a new region rarely matches the training distribution),
* novel clusters planted far outside every reference mode, and
* a small fraction of isolated outliers scattered across a huge box.

Hidden bookkeeping (mode of origin, novelty, outlierness) is returned
separately from the corpora so the scoring pipeline can never see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Corpus, read_only

OUTLIER_HIDDEN_ID = -1

_NOVEL_CLEARANCE_SIGMAS = 10.0
_NOVEL_DISTANCE = 13.0  # the first novel center's distance from the origin
_NOVEL_SEPARATION = 3.0  # each further novel center's step from the one before
_OUTLIER_BOX_SPANS = 20.0
_TRUNCATE_SIGMA = 4.5  # every drawn offset lies within this many standard deviations
_MIN_ACCEPTANCE = 1e-2  # share of draws within _TRUNCATE_SIGMA (dims <= 37); at 40 the redraws take over a second


@dataclass(frozen=True)
class CoreClusterSpec:
    """One reference mode: location, spread, IoU regime, and sampling shares."""

    center: tuple[float, ...]
    stddev: float = 1.0
    iou_mean: float = 0.75
    iou_stddev: float = 0.05
    weight: float = 0.25           # share of the reference corpus
    finetune_weight: float = 0.0   # share of the fine-tuning base pool


@dataclass(frozen=True)
class NovelClusterSpec:
    size: int
    stddev: float = 3.0


@dataclass(frozen=True)
class SyntheticSpec:
    dims: int = 8
    core_clusters: tuple[CoreClusterSpec, ...] = ()
    novel_clusters: tuple[NovelClusterSpec, ...] = ()
    outlier_fraction: float = 0.02
    core_n: int = 2000
    ft_n: int = 2200
    seed: int = 42

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if (kept := _within_radius(self.dims, _TRUNCATE_SIGMA)) < _MIN_ACCEPTANCE:
            raise ValueError(f"dims = {self.dims} keeps only {kept:.1e} of draws within "
                             f"{_TRUNCATE_SIGMA} sigma, below {_MIN_ACCEPTANCE:g}")
        for name in ("core_n", "ft_n"):  # _largest_remainder is exact in float64 to 2**53
            if not 1 <= getattr(self, name) <= 2**53:
                raise ValueError(f"{name} must lie in [1, 2**53]")
        if not 0.0 <= self.outlier_fraction <= 0.2:
            raise ValueError("outlier_fraction must lie in [0, 0.2]")
        if not self.core_clusters:
            raise ValueError("need at least one core cluster")
        for c in self.core_clusters:
            if len(c.center) != self.dims:
                raise ValueError("core cluster center dimension does not match dims")
            if c.stddev <= 0 or c.iou_stddev < 0 or c.weight < 0 or c.finetune_weight < 0:
                raise ValueError("invalid core cluster parameters")
            if not 0.0 <= c.iou_mean <= 1.0:
                raise ValueError("iou_mean must lie in [0,1]")
        for nv in self.novel_clusters:
            if nv.size < 1 or nv.stddev <= 0:
                raise ValueError("invalid novel cluster parameters")
        if sum(c.weight for c in self.core_clusters) <= 0:
            raise ValueError("core cluster weights must not all be zero")
        if self.ft_base_n < 0:
            raise ValueError(
                f"infeasible spec: novel sizes ({self.novel_total}) plus outliers "
                f"({self.n_outliers}) exceed ft_n ({self.ft_n})"
            )
        if self.ft_base_n > 0 and sum(c.finetune_weight for c in self.core_clusters) <= 0:
            raise ValueError("infeasible spec: fine-tuning base pool needs a positive mode weight")

    @property
    def n_outliers(self) -> int:
        return int(round(self.outlier_fraction * self.ft_n))

    @property
    def novel_total(self) -> int:
        return sum(nv.size for nv in self.novel_clusters)

    @property
    def ft_base_n(self) -> int:
        return self.ft_n - self.novel_total - self.n_outliers


def default_spec(seed: int = 42, dims: int = 8) -> SyntheticSpec:
    """The desk-scale benchmark: bipolar reference corpus, regime-shifted pool.

    The fine-tuning base pool is drawn from the high-IoU dominant mode only;
    the undeveloped (low-IoU) mode supplies the error-cluster population on
    the reference side. Novel clusters sit off the mode axes, diffuse enough
    that sparse random labelling covers them poorly.
    """
    if dims < 2:
        raise ValueError("default geometry needs dims >= 2")

    def axis(i: int, value: float) -> tuple[float, ...]:
        center = [0.0] * dims
        center[i] = value
        return tuple(center)

    return SyntheticSpec(
        dims=dims,
        core_clusters=(
            CoreClusterSpec(center=axis(0, 4.0), stddev=1.0, iou_mean=0.80,
                            iou_stddev=0.04, weight=0.40, finetune_weight=1.0),
            CoreClusterSpec(center=axis(0, -4.0), stddev=1.0, iou_mean=0.55,
                            iou_stddev=0.06, weight=0.40),
            CoreClusterSpec(center=axis(1, 4.0), stddev=1.0, iou_mean=0.72,
                            iou_stddev=0.04, weight=0.10),
            CoreClusterSpec(center=axis(1, -4.0), stddev=1.0, iou_mean=0.68,
                            iou_stddev=0.04, weight=0.10),
        ),
        novel_clusters=(NovelClusterSpec(size=60), NovelClusterSpec(size=140)),
        seed=seed,
    )


@dataclass(frozen=True)
class GroundTruth:
    """Generator bookkeeping for the fine-tuning pool, hidden from the pipeline."""

    hidden_cluster_id: np.ndarray  # (ft_n,) int; OUTLIER_HIDDEN_ID for outliers
    is_novel: np.ndarray           # (ft_n,) bool
    is_outlier: np.ndarray         # (ft_n,) bool

    def __post_init__(self) -> None:
        for name, dtype in (("hidden_cluster_id", np.int64), ("is_novel", bool), ("is_outlier", bool)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation proportional to weights, exact and deterministic."""
    weights = weights / weights.sum()
    raw = weights * total
    counts = np.floor(raw).astype(int)
    order = np.lexsort((np.arange(weights.size), -(raw - counts)))
    counts[order[: total - counts.sum()]] += 1  # the largest remainders take what flooring left over
    return counts


def _within_radius(dims: int, limit: float) -> float:
    """P(|z| <= limit) for standard normal z in *dims* dimensions: the regularized lower gamma
    P(dims / 2, limit**2 / 2) as a sum of Poisson terms. Past n = x + 100 the terms shrink by a
    factor below x / (x + 100) each; where they would still count, the sum is near 1 anyway."""
    a, x = dims / 2, limit**2 / 2
    terms = (math.exp((a + n) * math.log(x) - x - math.lgamma(a + n + 1)) for n in range(int(x) + 100))
    return sum(terms) if x else 0.0


def _truncated_gaussian(rng: np.random.Generator, n: int, dims: int, limit: float) -> np.ndarray:
    """Standard normal rows re-drawn until their radius is within *limit*."""
    out = rng.standard_normal((n, dims))
    while True:
        bad = np.flatnonzero((out**2).sum(axis=1) > limit**2)
        if bad.size == 0:
            return out
        out[bad] = rng.standard_normal((bad.size, dims))


def _place_novel_centers(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Novel centers near one seeded anchor direction, clear of every core mode.

    The clusters form one novel neighbourhood (separated by
    ``_NOVEL_SEPARATION`` around an anchor at ``_NOVEL_DISTANCE``), the way
    genuinely new content tends to occupy its own region of latent space
    rather than scatter; every center keeps the required clearance from
    every core mode.
    """
    core_centers = np.array([c.center for c in spec.core_clusters])
    clearance = np.array([_NOVEL_CLEARANCE_SIGMAS * c.stddev for c in spec.core_clusters])

    def clear_of_core(candidate: np.ndarray) -> bool:
        gaps = np.sqrt(((core_centers - candidate) ** 2).sum(axis=1))
        return bool(np.all(gaps >= clearance))

    def unit(v: np.ndarray) -> np.ndarray:
        return v / np.sqrt((v**2).sum())

    centers: list[np.ndarray] = []
    for j, _ in enumerate(spec.novel_clusters):
        for _attempt in range(1000):
            if j == 0:
                candidate = _NOVEL_DISTANCE * unit(rng.standard_normal(spec.dims))
            else:
                candidate = centers[j - 1] + _NOVEL_SEPARATION * unit(rng.standard_normal(spec.dims))
            if clear_of_core(candidate):
                centers.append(candidate)
                break
        else:
            raise ValueError(
                "could not place novel clusters clear of core modes; "
                "move or narrow the core modes, or plant fewer novel clusters"
            )
    return np.array(centers) if centers else np.zeros((0, spec.dims))


def generate_synthetic(spec: SyntheticSpec) -> tuple[Corpus, Corpus, GroundTruth]:
    """Draw (reference corpus, fine-tuning corpus, hidden truth) from one seed."""
    rng = np.random.default_rng(spec.seed)
    modes = spec.core_clusters

    def draw(center, stddev: float, n: int) -> np.ndarray:
        return np.asarray(center) + stddev * _truncated_gaussian(rng, n, spec.dims, _TRUNCATE_SIGMA)

    # reference corpus
    core_vectors, core_ious = [], []
    for mode, count in zip(modes, _largest_remainder(np.array([m.weight for m in modes]), spec.core_n)):
        core_vectors.append(draw(mode.center, mode.stddev, count))
        core_ious.append(np.clip(rng.normal(mode.iou_mean, mode.iou_stddev, count), 0.0, 1.0))
    core_matrix, core_ious = np.vstack(core_vectors), np.concatenate(core_ious)

    # fine-tuning pool, one component per hidden id: the reference modes under
    # their own mix, then the novel clusters, clear of every reference mode
    base_counts = np.zeros(len(modes), dtype=int)
    if spec.ft_base_n > 0:  # all-zero weights have no proportional split
        base_counts = _largest_remainder(np.array([m.finetune_weight for m in modes]), spec.ft_base_n)
    pool = [draw(m.center, m.stddev, n) for m, n in zip(modes, base_counts)]
    novel_centers = _place_novel_centers(spec, rng)
    pool += [draw(c, nv.stddev, nv.size) for c, nv in zip(novel_centers, spec.novel_clusters)]

    # isolated outliers, scattered over a box far wider than everything drawn so far
    drawn = np.vstack([core_matrix] + pool)
    lo, hi = drawn.min(axis=0), drawn.max(axis=0)
    mid, half_width = (hi + lo) / 2.0, (_OUTLIER_BOX_SPANS / 2.0) * (hi - lo).max()
    outliers = rng.uniform(mid - half_width, mid + half_width, (spec.n_outliers, spec.dims))

    order = rng.permutation(spec.ft_n)
    ft_matrix = np.vstack(pool + [outliers])[order]
    ids = np.append(np.arange(len(pool)), OUTLIER_HIDDEN_ID)
    hidden = np.repeat(ids, [len(c) for c in pool] + [spec.n_outliers])[order]
    truth = GroundTruth(hidden_cluster_id=hidden, is_novel=hidden >= len(modes),
                        is_outlier=hidden == OUTLIER_HIDDEN_ID)

    core = Corpus(columns=(np.arange(spec.core_n), core_matrix, core_ious, np.zeros(spec.core_n, np.uint8)))
    ft_ids = np.arange(spec.core_n, spec.core_n + spec.ft_n)
    ft = Corpus(columns=(ft_ids, ft_matrix, np.full(spec.ft_n, np.nan), np.ones(spec.ft_n, np.uint8)))
    return core, ft, truth
