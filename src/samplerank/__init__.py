"""Annotation-priority ranking of fine-tuning samples from latent embeddings."""

from .clustering import (
    ClusterModel,
    OrphanReport,
    classify_batch,
    detect_orphans,
    fit_core_clusters,
    fit_error_clusters,
    kmeans,
    normalize_distances,
)
from .data import (
    BinaryMask,
    Corpus,
    DataFormatError,
    EmbeddingRecord,
    load_embeddings,
    save_embeddings,
)
from .harness import (
    SweepResult,
    export_scatter,
    report,
    run_budget_sweep,
    surrogate_quality,
)
from .metrics import IouPredictor, iou, predict_iou_batch
from .loop import fit_loop
from .pca import PcaModel, explained_variance_ratio, fit_pca, transform_batch
from .config import Config
from .pipeline import compute_scores, fit_models, score_finetune
from .scoring import Scores, rank, score_all
from .synthetic import (
    CoreClusterSpec,
    GroundTruth,
    NovelClusterSpec,
    SyntheticSpec,
    default_spec,
    generate_synthetic,
)

__version__ = "0.1.0"
