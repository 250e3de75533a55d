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

from . import harness, metrics, pca, pipeline, scoring
from .config import STRATEGY_BPS, STRATEGY_MPS, Config, ConfigError, dump_config, load_config
from .data import SPLIT_CORE, SPLIT_FINETUNE, SPLITS, DataFormatError, load_embeddings

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


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
    if not os.path.isfile(path):  # opening a FIFO blocks until a writer appears; a directory is no file
        raise FileNotFoundError(f"{what} embeddings file not found: {path}")
    corpus = load_embeddings(path)
    if len(corpus) == 0:
        raise DataFormatError(f"{path}: no records")
    if dimension is not None and corpus.dimension != dimension:
        raise DataFormatError(f"{path}: dimension {corpus.dimension}, expected {dimension}")
    wrong = np.flatnonzero(corpus.splits != SPLITS.index(what))
    if wrong.size:
        index = wrong[0]
        found = f"(id {corpus.ids[index]}) is a {SPLITS[corpus.splits[index]]} record"
        raise DataFormatError(f"{path}: record {index} {found}, expected {what}")
    return corpus


def cmd_fit(config: Config, args) -> int:
    # the pool is read first, so the core's bytes are not alive through its parse
    read_pool = config.finetune_embeddings and os.path.isfile(config.core_embeddings)  # else the core's load refuses
    pool = _load_corpus(config.finetune_embeddings, SPLIT_FINETUNE) if read_pool else None
    core = _load_corpus(config.core_embeddings, SPLIT_CORE)
    if pool is not None and pool.dimension != core.dimension:
        raise DataFormatError(f"{config.finetune_embeddings}: dimension {pool.dimension}, expected {core.dimension}")
    try:
        models = pipeline.fit_models(core, pool, config)
    except ValueError as exc:  # name the files the models were fitted on
        fitted = " and ".join(filter(None, (config.core_embeddings, config.finetune_embeddings)))
        raise ValueError(f"{exc} (fitting {fitted})") from None

    os.makedirs(config.out_dir, exist_ok=True)
    for key, (name, save, _) in pipeline.MODEL_FILES.items():
        save(getattr(models, key), os.path.join(config.out_dir, name))

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
    paths = {key: os.path.join(config.out_dir, name) for key, (name, _, _) in pipeline.MODEL_FILES.items()}
    models = pipeline.FittedModels(**{key: load(paths[key]) for key, (_, _, load) in pipeline.MODEL_FILES.items()})
    pca_rank = models.reduction.n_components
    for key, dim in (("clusters", models.clusters.reduced_dim), ("predictor", models.predictor.points.shape[1])):
        if dim != pca_rank:
            raise DataFormatError(
                f"model files from different fits: {paths['reduction']} has rank {pca_rank}, "
                f"{paths[key]} has dimension {dim}"
            )
    finetune = _load_corpus(config.finetune_embeddings, SPLIT_FINETUNE, models.reduction.dimension)
    scores = pipeline.score_finetune(models, finetune, config)
    queue_path = os.path.join(config.out_dir, "queue.csv")
    scoring.write_queue_csv(scores, config.strategy, queue_path)
    print(f"ranked {len(scores)} samples -> {queue_path}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(config: Config, args) -> int:
    spec = config.synthetic_spec()
    if max(config.sim_budgets) > spec.ft_n:
        raise ConfigError(f"sim.budgets must not exceed sim.ft_n={spec.ft_n}")
    result = harness.run_budget_sweep(
        spec,
        budgets=config.sim_budgets,
        n_seeds=config.sim_n_seeds,
        params=config,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    sweep_path = os.path.join(config.out_dir, "sweep.csv")
    harness.write_sweep_csv(result, sweep_path)
    harness.report(result, config.out_dir)
    print(f"sweep written to {sweep_path}", file=sys.stderr)
    return EXIT_OK


def cmd_scatter(config: Config, args) -> int:
    from .synthetic import generate_synthetic

    core, finetune, _truth = generate_synthetic(config.synthetic_spec())
    pooled = np.vstack([core.vectors(), finetune.vectors()])
    view = pca.fit_pca(pooled, r=min(2, pooled.shape[1]))
    xy = pca.transform_batch(view, pooled)

    predictor = metrics.IouPredictor(xy[: len(core)], core.measured_ious(), k=min(config.knn_k, len(core)))
    ft_ious = metrics.predict_iou_batch(predictor, xy[len(core) :])

    os.makedirs(config.out_dir, exist_ok=True)
    scatter_path = os.path.join(config.out_dir, "scatter.csv")
    harness.export_scatter(
        ids=np.concatenate([core.ids, finetune.ids]).tolist(),
        xy=xy,
        ious=np.concatenate([core.measured_ious(), ft_ious]),
        splits=["core"] * len(core) + ["finetune"] * len(finetune),
        path=scatter_path,
    )
    print(f"scatter written to {scatter_path}", file=sys.stderr)
    return EXIT_OK


def cmd_report(config: Config, args) -> int:
    result = harness.read_sweep_csv(args.sweep or os.path.join(config.out_dir, "sweep.csv"))
    os.makedirs(config.out_dir, exist_ok=True)
    harness.report(result, config.out_dir)
    print(f"summary written to {os.path.join(config.out_dir, 'summary.txt')}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _effective_config(args)
        if args.dump_config:
            with open(args.dump_config, "w") as fh:
                fh.write(dump_config(config))
        elif args.run is None:
            parser.print_usage(sys.stderr)
            print("samplerank: error: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        return args.run(config, args) if args.run else EXIT_OK
    except ConfigError as exc:
        print(f"samplerank: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"samplerank: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
