"""Budget-sweep benchmark: priority sampling versus random selection.

Fine-tuning a real segmentation model per budget is replaced by a cheap
coverage oracle: a selection is as good as the fraction of the unlabelled
pool whose nearest selected sample (1-NN label propagation in generator
space) shares its hidden cluster. That preserves the property the sampler
is built to optimise, namely variety of covered content, while keeping a
full sweep under a couple of minutes.

Each seed draws fresh data, runs the whole scoring pipeline, and walks all
strategies along nested selection prefixes: ranked prefixes for the
priority strategies, prefixes of one shuffled permutation for the random
baseline.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from ._dist import nearest
from .data import Corpus, read_utf8
from .config import Config
from .pipeline import compute_scores
from .scoring import STRATEGY_BPS, STRATEGY_MPS, rank
from .synthetic import GroundTruth, SyntheticSpec, generate_synthetic

STRATEGY_PRIORITY_BPS = "priority_bps"
STRATEGY_PRIORITY_MPS = "priority_mps"
STRATEGY_RANDOM = "random"
ALL_STRATEGIES = (STRATEGY_PRIORITY_BPS, STRATEGY_PRIORITY_MPS, STRATEGY_RANDOM)
_PRIORITY_FORMULAS = {STRATEGY_PRIORITY_BPS: STRATEGY_BPS, STRATEGY_PRIORITY_MPS: STRATEGY_MPS}

_RANDOM_STREAM_TAG = 0x5EED
_SWEEP_HEADER = ["strategy", "budget", "seed", "quality"]


def surrogate_quality(labeled_ids, ft_corpus: Corpus, truth: GroundTruth) -> float:
    """Fraction of non-outlier pool samples 1-NN-covered by the selection.

    A sample counts as covered when its nearest selected sample (Euclidean,
    generator space) carries the same hidden cluster id. Selected samples
    cover themselves at distance zero.
    """
    labeled = list(labeled_ids)
    if not labeled:
        raise ValueError("selection must not be empty")
    position = {rec_id: i for i, rec_id in enumerate(ft_corpus.ids.tolist())}
    try:
        labeled_pos = np.array([position[i] for i in labeled])
    except KeyError as exc:
        raise ValueError(f"selected id {exc.args[0]} is not in the fine-tuning pool") from None
    return _coverage(ft_corpus.vectors(), truth, labeled_pos, [labeled_pos.size])[0]


def _coverage(vectors: np.ndarray, truth: GroundTruth, order: np.ndarray, budgets) -> list[float]:
    """Coverage quality of each nested prefix ``order[:budget]``, budgets distinct and ascending.

    Adding points in selection order and updating on strictly smaller
    distance gives every prefix the same nearest selected sample as one
    pass over the whole prefix (argmin keeps the earliest of tied
    neighbours).
    """
    hidden, evaluated = truth.hidden_cluster_id, ~truth.is_outlier
    best_d2 = np.full(vectors.shape[0], np.inf)
    best_hidden = np.full(vectors.shape[0], np.iinfo(np.int64).min, dtype=np.int64)
    qualities, consumed = [], 0
    for budget in budgets:
        step, consumed = order[consumed:budget], budget
        chunk_best, chunk_d2 = map(np.ravel, nearest(vectors, vectors[step]))
        better = chunk_d2 < best_d2
        best_d2[better] = chunk_d2[better]
        best_hidden[better] = hidden[step[chunk_best[better]]]
        del chunk_best, chunk_d2, better  # held into the next search, they would raise its peak
        qualities.append(float((best_hidden == hidden)[evaluated].mean()))
    return qualities


@dataclass(frozen=True)
class SweepRow:
    strategy: str
    budget: int
    seed: int
    quality: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def strategies(self) -> list[str]:
        return list(dict.fromkeys(row.strategy for row in self.rows))

    def budgets(self) -> list[int]:
        return sorted({row.budget for row in self.rows})

    def qualities(self, strategy: str, budget: int) -> np.ndarray:
        values = [r.quality for r in self.rows if r.strategy == strategy and r.budget == budget]
        return np.asarray(values)

    def mean(self, strategy: str, budget: int) -> float:
        return float(self.qualities(strategy, budget).mean())

    def stddev(self, strategy: str, budget: int) -> float:
        values = self.qualities(strategy, budget)
        return float(values.std(ddof=1)) if values.size > 1 else 0.0


def run_budget_sweep(
    spec: SyntheticSpec,
    budgets,
    strategies=ALL_STRATEGIES,
    n_seeds: int = 1,
    params: Config = Config(),
) -> SweepResult:
    """Generate, score, select and evaluate for every (seed, strategy, budget).

    The spec, budgets, strategies and seed count come from the arguments alone: each sweep seed
    replaces ``params.seed``, and no ``sim_*`` field of *params* is read.
    """
    budgets = sorted({int(b) for b in budgets})  # a repeated budget is one budget
    if not budgets:
        raise ValueError("need at least one budget")
    if budgets[0] < 1 or budgets[-1] > spec.ft_n:
        raise ValueError(f"budgets must lie in [1, ft_n={spec.ft_n}]")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    unknown = set(strategies) - set(ALL_STRATEGIES)
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")

    rows: list[SweepRow] = []
    for step in range(n_seeds):
        seed = spec.seed + step
        core, finetune, truth = generate_synthetic(replace(spec, seed=seed))
        scores = compute_scores(core, finetune, replace(params, seed=seed))
        position = {rec_id: i for i, rec_id in enumerate(finetune.ids.tolist())}
        vectors = finetune.vectors().astype(np.float64)  # cast once, not in every coverage step
        for strategy in strategies:
            if strategy == STRATEGY_RANDOM:
                order = np.random.default_rng([_RANDOM_STREAM_TAG, seed]).permutation(spec.ft_n)
            else:
                order = np.array([position[i] for i in rank(scores, _PRIORITY_FORMULAS[strategy])])
            qualities = _coverage(vectors, truth, order, budgets)
            rows += [SweepRow(strategy, budget, seed, q) for budget, q in zip(budgets, qualities)]
    return SweepResult(rows=tuple(rows))


def write_sweep_csv(result: SweepResult, path) -> None:
    rows = [[row.strategy, row.budget, row.seed, repr(float(row.quality))] for row in result.rows]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([_SWEEP_HEADER, *rows])


def read_sweep_csv(path) -> SweepResult:
    """Rows written by ``write_sweep_csv``; ValueError names the file on no records, a bad or repeated row,
    or a strategy lacking a (budget, seed) another strategy ran: every mean must compare the same seeds."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header, *table = list(reader) or [None]
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if header != _SWEEP_HEADER:
        raise ValueError(f"{path}: malformed sweep header {header!r}")
    if not table:
        raise ValueError(f"{path}: no records")
    rows: dict[tuple[str, int, int], SweepRow] = {}
    for index, r in enumerate(table):
        try:
            if len(r) != 4:
                raise ValueError(f"expected 4 fields, got {len(r)}")
            row = SweepRow(strategy=r[0], budget=int(r[1]), seed=int(r[2]), quality=float(r[3]))
            if row.budget < 1:
                raise ValueError(f"budget {row.budget} is not positive")
            if not 0.0 <= row.quality <= 1.0:
                raise ValueError(f"quality {row.quality} outside [0,1]")
            key = (row.strategy, row.budget, row.seed)
            if key in rows:
                raise ValueError("second record for strategy {} at budget {}, seed {}".format(*key))
            rows[key] = row
        except ValueError as exc:
            raise ValueError(f"{path}: record {index}: {exc}") from None
    result = SweepResult(rows=tuple(rows.values()))
    cells = sorted({(budget, seed) for _, budget, seed in rows})  # every (budget, seed) any strategy ran
    for strategy in result.strategies():
        for budget, seed in cells:
            if (strategy, budget, seed) not in rows:
                raise ValueError(f"{path}: strategy {strategy} has no record at budget {budget}, seed {seed}")
    return result


def export_scatter(ids, xy: np.ndarray, ious, splits, path) -> None:
    """Two-component view of the latent space: ``id,x,y,iou,split`` rows."""
    xy = np.asarray(xy, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("scatter export needs a two-component view")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "y", "iou", "split"])
        for rec_id, point, iou_value, split in zip(ids, xy, ious, splits):
            writer.writerow([rec_id, f"{point[0]:.9g}", f"{point[1]:.9g}", f"{iou_value:.9g}", split])


def report(result: SweepResult, out_dir) -> None:
    """Write the per-budget summary table with the priority-vs-random verdict to ``out_dir/summary.txt``,
    and the same figures to ``out_dir/aggregates.csv``."""
    if not result.rows:
        raise ValueError("empty sweep result")
    strategies = result.strategies()
    paired = STRATEGY_PRIORITY_BPS in strategies and STRATEGY_RANDOM in strategies
    header = ["budget"] + [f"{s}(mean+-std)" for s in strategies] + (["bps-random"] if paired else [])
    lines = ["  ".join(f"{h:>24}" for h in header)]
    columns = [name for s in strategies for name in (f"mean_{s}", f"std_{s}")]
    table = [["budget", *columns] + (["diff_bps_minus_random"] if paired else [])]
    last_winning = None
    for budget in result.budgets():
        stats = {s: (result.mean(s, budget), result.stddev(s, budget)) for s in strategies}
        cells = [f"{budget:>24}"] + [f"{mean:>16.4f} +- {std:.4f}" for mean, std in stats.values()]
        values = [f"{value:.9g}" for pair in stats.values() for value in pair]
        if paired:
            diff = stats[STRATEGY_PRIORITY_BPS][0] - stats[STRATEGY_RANDOM][0]
            cells.append(f"{diff:>+24.4f}")
            values.append(f"{diff:.9g}")
            if diff >= 0:
                last_winning = budget
        lines.append("  ".join(cells))
        table.append([budget, *values])
    if paired:
        lines.append("priority_bps never reaches the random baseline" if last_winning is None
                     else f"largest budget with priority_bps >= random: {last_winning}")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "aggregates.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(table)
