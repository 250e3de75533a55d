"""Command-line front end.

Subcommands wire the pipeline stages for the two workflows:

* file-based — ``fit`` persists the reduction/predictor/cluster models from
  embedding files, ``rank`` turns fine-tuning embeddings into the ranked
  annotation queue;
* synthetic — ``simulate`` runs the budget-sweep benchmark, ``scatter``
  exports the two-component latent view, ``report`` re-summarises an
  existing sweep.

Exit codes: 0 success, 1 usage/config error, 2 data or pipeline error.
Diagnostics go to stderr; machine-readable output goes to files only.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import clustering, harness, metrics, pca, pipeline, scoring
from .config import STRATEGY_BPS, STRATEGY_MPS, Config, ConfigError, dump_config, load_config
from .data import SPLIT_CORE, SPLIT_FINETUNE, DataFormatError, load_embeddings

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_PCA_FILE = "pca.bin"
_CLUSTERS_FILE = "clusters.bin"
_PREDICTOR_FILE = "iou_refs.bin"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    """Each flag that sets a Config field has that field's name as its ``dest``."""
    parser = _Parser(prog="samplerank", description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out-dir", help="output directory override")
    parser.add_argument(
        "--dump-config", metavar="PATH", help="write the effective configuration and continue"
    )
    parser.set_defaults(run=None)
    sub = parser.add_subparsers()

    def command(name, run, help):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(run=run)
        return cmd

    finetune_help = "fine-tuning embeddings file (overrides config)"
    fit = command("fit", cmd_fit, "fit and persist models from core embeddings")
    fit.add_argument("--core", dest="core_embeddings", help="core embeddings file (overrides config)")
    fit.add_argument("--finetune", dest="finetune_embeddings", help=finetune_help)
    rank = command("rank", cmd_rank, "rank fine-tuning samples into a queue CSV")
    rank.add_argument("--finetune", dest="finetune_embeddings", help=finetune_help)
    rank.add_argument("--strategy", choices=[STRATEGY_BPS, STRATEGY_MPS], help="ranking formula")
    command("simulate", cmd_simulate, "run the synthetic budget-sweep benchmark")
    command("scatter", cmd_scatter, "export the 2-component latent scatter of synthetic data")
    report = command("report", cmd_report, "summarise an existing sweep.csv")
    report.add_argument("--sweep", help="sweep CSV path (default: <out-dir>/sweep.csv)")
    return parser


def _effective_config(args) -> Config:
    names = {f.name for f in fields(Config)}
    overrides = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return load_config(args.config, overrides)


def _load_corpus(path: str, what: str, dimension: int | None = None):
    """Load a non-empty corpus of *what* records, of length *dimension* if it is given."""
    if not path:
        raise ConfigError(f"no {what} embeddings path configured")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} embeddings file not found: {path}")
    corpus = load_embeddings(path)
    if len(corpus) == 0:
        raise DataFormatError(f"{path}: no records")
    if dimension is not None and corpus.dimension != dimension:
        raise DataFormatError(f"{path}: dimension {corpus.dimension}, expected {dimension}")
    for index, rec in enumerate(corpus):
        if rec.split != what:
            raise DataFormatError(
                f"{path}: record {index} (id {rec.id}) is a {rec.split} record, expected {what}"
            )
    return corpus


def cmd_fit(config: Config, args) -> int:
    core = _load_corpus(config.core_embeddings, SPLIT_CORE)
    finetune = None
    if config.finetune_embeddings:
        finetune = _load_corpus(config.finetune_embeddings, SPLIT_FINETUNE, core.dimension)
    models = pipeline.fit_models(core, finetune, config, seed=config.seed)

    os.makedirs(config.out_dir, exist_ok=True)
    pca.save_pca(models.reduction, os.path.join(config.out_dir, _PCA_FILE))
    clustering.save_clusters(models.clusters, os.path.join(config.out_dir, _CLUSTERS_FILE))
    metrics.save_predictor(models.predictor, os.path.join(config.out_dir, _PREDICTOR_FILE))

    ratios = pca.explained_variance_ratio(models.reduction)
    print(
        f"reduction: {models.reduction.n_components} components, "
        f"cumulative explained variance {ratios.sum():.4f}",
        file=sys.stderr,
    )
    kept = models.clusters
    print(
        f"clusters: {kept.core_indices.size} core, {kept.error_indices.size} error; "
        f"member counts {kept.member_count[kept.core_indices].tolist()}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_rank(config: Config, args) -> int:
    pca_path, clusters_path, predictor_path = (
        os.path.join(config.out_dir, name) for name in (_PCA_FILE, _CLUSTERS_FILE, _PREDICTOR_FILE)
    )
    models = pipeline.FittedModels(
        reduction=pca.load_pca(pca_path),
        predictor=metrics.load_predictor(predictor_path),
        clusters=clustering.load_clusters(clusters_path),
    )
    pca_rank = models.reduction.n_components
    for path, dim in (
        (clusters_path, models.clusters.reduced_dim),
        (predictor_path, models.predictor.points.shape[1]),
    ):
        if dim != pca_rank:
            raise DataFormatError(
                f"model files from different fits: {pca_path} has rank {pca_rank}, "
                f"{path} has dimension {dim}"
            )
    finetune = _load_corpus(config.finetune_embeddings, SPLIT_FINETUNE, models.reduction.dimension)
    scores = pipeline.score_finetune(models, finetune, config, seed=config.seed)
    queue_path = os.path.join(config.out_dir, "queue.csv")
    scoring.write_queue_csv(scores, config.strategy, queue_path)
    print(f"ranked {len(scores)} samples -> {queue_path}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(config: Config, args) -> int:
    spec = config.synthetic_spec()
    result = harness.run_budget_sweep(
        spec,
        budgets=config.sim_budgets,
        strategies=harness.ALL_STRATEGIES,
        n_seeds=config.sim_n_seeds,
        params=config,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    sweep_path = os.path.join(config.out_dir, "sweep.csv")
    harness.write_sweep_csv(result, sweep_path)
    harness.report(
        result,
        summary_path=os.path.join(config.out_dir, "summary.txt"),
        aggregates_path=os.path.join(config.out_dir, "aggregates.csv"),
    )
    print(f"sweep written to {sweep_path}", file=sys.stderr)
    return EXIT_OK


def cmd_scatter(config: Config, args) -> int:
    from .synthetic import generate_synthetic

    core, finetune, _truth = generate_synthetic(config.synthetic_spec())
    pooled = np.vstack([core.vectors(), finetune.vectors()])
    view = pca.fit_pca(pooled, r=min(2, pooled.shape[1]))
    xy_core = pca.transform_batch(view, core.vectors())
    xy_ft = pca.transform_batch(view, finetune.vectors())

    predictor = metrics.fit_iou_predictor(
        xy_core, core.measured_ious(), k=min(config.knn_k, len(core))
    )
    ft_ious = metrics.predict_iou_batch(predictor, xy_ft)

    os.makedirs(config.out_dir, exist_ok=True)
    scatter_path = os.path.join(config.out_dir, "scatter.csv")
    harness.export_scatter(
        ids=core.ids + finetune.ids,
        xy=np.vstack([xy_core, xy_ft]),
        ious=np.concatenate([core.measured_ious(), ft_ious]),
        splits=["core"] * len(core) + ["finetune"] * len(finetune),
        path=scatter_path,
    )
    print(f"scatter written to {scatter_path}", file=sys.stderr)
    return EXIT_OK


def cmd_report(config: Config, args) -> int:
    path = args.sweep or os.path.join(config.out_dir, "sweep.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"sweep file not found: {path}")
    result = harness.read_sweep_csv(path)
    if not result.rows:
        raise DataFormatError(f"{path}: no records")
    harness.report(
        result,
        summary_path=os.path.join(config.out_dir, "summary.txt"),
        aggregates_path=os.path.join(config.out_dir, "aggregates.csv"),
    )
    print(f"summary written to {os.path.join(config.out_dir, 'summary.txt')}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _effective_config(args)
    except ConfigError as exc:
        print(f"samplerank: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.dump_config:
        try:
            with open(args.dump_config, "w") as fh:
                fh.write(dump_config(config))
        except OSError as exc:
            print(f"samplerank: cannot write config dump: {exc}", file=sys.stderr)
            return EXIT_DATA
        if args.run is None:
            return EXIT_OK
    elif args.run is None:
        parser.print_usage(sys.stderr)
        print("samplerank: error: a subcommand is required", file=sys.stderr)
        return EXIT_USAGE

    try:
        return args.run(config, args)
    except ConfigError as exc:
        print(f"samplerank: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"samplerank: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
