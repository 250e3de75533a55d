"""End-to-end feature computation: reduce, predict, cluster, score.

The same staging serves the file-based CLI workflow and the synthetic
benchmark: fit the reduction on the reference corpus plus the pool, and the
predictor and clustering on the reference corpus, then derive per-sample
features (normalised cluster distance, predicted IoU, outlier probability
over the pool alone, orphan/error membership) for the unlabelled pool and
evaluate both priority formulas.

``fit_models`` returns each model decoded from the bytes of its file in
``MODEL_FILES``, so ``compute_scores``, the budget sweep and CLI ``rank``
score one model and write one queue, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering, loop, metrics, pca
from .config import Config, config_key
from .data import Corpus
from .scoring import Scores, score_all


@dataclass(frozen=True)
class FittedModels:
    reduction: pca.PcaModel
    predictor: metrics.IouPredictor
    clusters: clustering.ClusterModel


# each FittedModels field's file in fit's output directory, with that file's writer and reader
MODEL_FILES = {
    "reduction": ("pca.bin", pca.save_pca, pca.load_pca),
    "predictor": ("iou_refs.bin", metrics.save_predictor, metrics.load_predictor),
    "clusters": ("clusters.bin", clustering.save_clusters, clustering.load_clusters),
}


def _count(params: Config, name: str, bound: int, of: str) -> int | None:
    """Count setting *name*, None for 0 (the stage's rule); above a positive *bound* it names its key."""
    value = getattr(params, name)
    if 0 < bound < value:
        raise ValueError(f"{config_key(name)} = {value} exceeds {bound}, the {of}")
    return value or None


def fit_models(core: Corpus, finetune: Corpus | None, params: Config = Config()) -> FittedModels:
    """Fit reduction + IoU predictor + clusters (core and error) on the reference corpus.

    The reduction is fitted on the core and the pool together, or on the
    core alone when *finetune* is None.
    A count of 0 in *params* (PCA rank, cluster counts) selects the stage's
    default rule. The models come back as their files store them.
    """
    parts = (core,) if finetune is None else (core, finetune)
    n = sum(map(len, parts))
    r = _count(params, "pca_components", min(n, core.dimension), "smaller of the fit's vector count and dimension")
    reduction = pca.fit_pca(*(part.vectors() for part in parts), r=r, variance_threshold=params.pca_variance_threshold)

    core_reduced = pca.transform_batch(reduction, core.vectors())
    core_ious = core.measured_ious()
    predictor = metrics.IouPredictor(core_reduced, core_ious, k=min(params.knn_k, len(core)))

    seed_core, seed_err = np.random.SeedSequence(params.seed).spawn(2)
    k = _count(params, "cluster_k", len(core), "reference sample count")
    clusters = clustering.fit_core_clusters(
        core_reduced, core_ious, k=k, iou_weight=params.cluster_iou_weight, seed=seed_core
    )
    low = int((core_ious < clustering.ERROR_IOU_THRESHOLD).sum())
    k_err = _count(params, "cluster_k_err", low, "count of references below the error IoU threshold")
    clusters = clustering.fit_error_clusters(clusters, core_reduced, core_ious, k_err=k_err, seed=seed_err)
    fitted = {"reduction": reduction, "predictor": predictor, "clusters": clusters}
    # as stored: each model through its file's codec, whose reader refuses what the file cannot hold
    stored = {key: load(name, save(fitted[key], None)) for key, (name, save, load) in MODEL_FILES.items()}
    return FittedModels(**stored)


def score_finetune(models: FittedModels, finetune: Corpus, params: Config = Config()) -> Scores:
    """Compute every feature for the unlabelled pool and both priority scores."""
    if len(finetune) == 0:
        return score_all(*[np.empty(0)] * 6, params=params)
    ft_reduced = pca.transform_batch(models.reduction, finetune.vectors())
    pred_ious = metrics.predict_iou_batch(models.predictor, ft_reduced)

    ft_points = models.clusters.augment(ft_reduced, pred_ious)
    _, raw_dist = clustering.classify_batch(models.clusters, ft_points)
    seed_ft = np.random.SeedSequence(params.seed).spawn(3)[2]  # fit_models spawns the first two
    k_ft = _count(params, "cluster_k_ft", len(finetune), "fine-tuning sample count")
    report = clustering.detect_orphans(models.clusters, ft_points, k_ft=k_ft, seed=seed_ft)

    # outlier probabilities over the pool itself
    k_nn = min(params.loop_k_nn, len(finetune) - 1)  # 0 for a single sample, which scores 0
    outlier_scores = loop.fit_loop(ft_reduced, k_nn, params.loop_lambda) if k_nn else np.zeros(len(finetune))

    return score_all(
        ids=finetune.ids,
        dist=clustering.normalize_distances(raw_dist),
        pred_iou=pred_ious,
        loop=outlier_scores,
        orph=report.orph_weight,
        err=report.err_weight,
        params=params,
    )


def compute_scores(core: Corpus, finetune: Corpus, params: Config = Config()) -> Scores:
    """Full run over in-memory corpora; ``params.seed``, the master seed, fixes every stage."""
    return score_finetune(fit_models(core, finetune, params), finetune, params)
