"""End-to-end feature computation: reduce, predict, cluster, score.

The same staging serves the file-based CLI workflow and the synthetic
benchmark: fit the reduction and clustering on the reference corpus, then
derive per-sample features (normalised cluster distance, predicted IoU,
outlier probability, orphan/error membership) for the unlabelled pool and
evaluate both priority formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering, loop, metrics, pca
from .config import PCA_FIT_POOLED, Config
from .data import Corpus
from .scoring import Scores, score_all


@dataclass(frozen=True)
class FittedModels:
    reduction: pca.PcaModel
    predictor: metrics.IouPredictor
    clusters: clustering.ClusterModel


def _subseeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def fit_models(core: Corpus, finetune: Corpus | None, params: Config = Config(), seed: int = 0) -> FittedModels:
    """Fit reduction + IoU predictor + clusters (core and error) on the reference corpus.

    The reduction is fitted on pooled core and fine-tuning vectors by
    default; ``params.pca_fit='core'`` restricts it to the reference corpus.
    A count of 0 in *params* (PCA rank, cluster counts) selects the stage's
    default rule.
    """
    fit_matrix = core.vectors()
    if params.pca_fit == PCA_FIT_POOLED and finetune is not None:
        fit_matrix = np.vstack([fit_matrix, finetune.vectors()])
    core_vectors = fit_matrix[: len(core)]  # a view: one float64 copy of the core rows
    reduction = pca.fit_pca(
        fit_matrix,
        r=params.pca_components or None,
        variance_threshold=params.pca_variance_threshold,
    )

    core_reduced = pca.transform_batch(reduction, core_vectors)
    core_ious = core.measured_ious()
    predictor = metrics.fit_iou_predictor(
        core_reduced, core_ious, k=min(params.knn_k, len(core))
    )

    seed_core, seed_err = _subseeds(seed, 2)
    clusters = clustering.fit_core_clusters(
        core_reduced,
        core_ious,
        k=params.cluster_k or None,
        iou_weight=params.cluster_iou_weight,
        seed=seed_core,
    )
    clusters = clustering.fit_error_clusters(
        clusters, core_reduced, core_ious, k_err=params.cluster_k_err or None, seed=seed_err
    )
    return FittedModels(reduction=reduction, predictor=predictor, clusters=clusters)


def score_finetune(
    models: FittedModels, finetune: Corpus, params: Config = Config(), seed: int = 0
) -> Scores:
    """Compute every feature for the unlabelled pool and both priority scores."""
    if len(finetune) == 0:
        return score_all(*[np.empty(0)] * 6, params=params)
    ft_reduced = pca.transform_batch(models.reduction, finetune.vectors())
    pred_ious = metrics.predict_iou_batch(models.predictor, ft_reduced)

    _, raw_dist = clustering.classify_batch(models.clusters, ft_reduced, pred_ious)

    ft_points = models.clusters.augment(ft_reduced, pred_ious)
    (seed_ft,) = _subseeds(seed, 3)[2:]
    report = clustering.detect_orphans(
        models.clusters, ft_points, k_ft=params.cluster_k_ft or None, seed=seed_ft
    )

    # outlier probabilities over the pool itself; optionally the reference
    # points join the density estimate
    if params.loop_pool_core:
        loop_points = np.vstack([ft_reduced, models.predictor.points])
    else:
        loop_points = ft_reduced
    k_nn = min(params.loop_k_nn, loop_points.shape[0] - 1)
    if k_nn >= 1:
        loop_model = loop.fit_loop(loop_points, k_nn=k_nn, lam=params.loop_lambda)
        outlier_scores = loop_model.scores[: len(finetune)]
    else:
        outlier_scores = np.zeros(len(finetune))

    return score_all(
        ids=finetune.ids,
        dist=clustering.normalize_distances(raw_dist),
        pred_iou=np.clip(pred_ious, 0.0, 1.0),
        loop=outlier_scores,
        orph=report.orph_weight,
        err=report.err_weight,
        params=params,
    )


def compute_scores(
    core: Corpus, finetune: Corpus, params: Config = Config(), seed: int = 0
) -> Scores:
    """Full run over in-memory corpora; one master seed fixes every stage."""
    models = fit_models(core, finetune, params, seed)
    return score_finetune(models, finetune, params, seed)
