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


def surrogate_quality(labeled_ids, ft_corpus: Corpus, truth: GroundTruth) -> float:
    """Fraction of non-outlier pool samples 1-NN-covered by the selection.

    A sample counts as covered when its nearest selected sample (Euclidean,
    generator space) carries the same hidden cluster id. Selected samples
    cover themselves at distance zero.
    """
    labeled = list(labeled_ids)
    if not labeled:
        raise ValueError("selection must not be empty")
    position = {rec_id: i for i, rec_id in enumerate(ft_corpus.ids)}
    try:
        labeled_pos = np.array([position[i] for i in labeled])
    except KeyError as exc:
        raise ValueError(f"selected id {exc.args[0]} is not in the fine-tuning pool") from None
    tracker = _CoverageTracker(ft_corpus.vectors(), truth)
    tracker.add(labeled_pos)
    return tracker.quality()


class _CoverageTracker:
    """Incremental 1-NN coverage along a growing selection.

    Adding points in selection order and updating on strictly smaller
    distance gives every prefix the same nearest selected sample as one
    pass over the whole prefix (argmin keeps the earliest of tied
    neighbours).
    """

    def __init__(self, vectors: np.ndarray, truth: GroundTruth):
        self._x = vectors
        self._hidden = truth.hidden_cluster_id
        self._evaluated = ~truth.is_outlier
        self._best_d2 = np.full(vectors.shape[0], np.inf)
        self._best_hidden = np.full(vectors.shape[0], np.iinfo(np.int64).min, dtype=np.int64)

    def add(self, positions: np.ndarray) -> None:
        if positions.size == 0:
            return
        chunk_best, chunk_d2 = map(np.ravel, nearest(self._x, self._x[positions]))
        better = chunk_d2 < self._best_d2
        self._best_d2[better] = chunk_d2[better]
        self._best_hidden[better] = self._hidden[positions[chunk_best[better]]]

    def quality(self) -> float:
        matches = self._best_hidden == self._hidden
        return float(matches[self._evaluated].mean())


@dataclass(frozen=True)
class SweepRow:
    strategy: str
    budget: int
    seed: int
    quality: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    def strategies(self) -> list[str]:
        seen = dict.fromkeys(row.strategy for row in self.rows)
        return list(seen)

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
    """Generate, score, select and evaluate for every (seed, strategy, budget)."""
    budgets = sorted(int(b) for b in budgets)
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
        scores = compute_scores(core, finetune, params, seed=seed)
        position = {rec_id: i for i, rec_id in enumerate(finetune.ids)}

        trajectories: dict[str, np.ndarray] = {}
        for strategy, formula in _PRIORITY_FORMULAS.items():
            if strategy in strategies:
                trajectories[strategy] = np.array([position[i] for i in rank(scores, formula)])
        if STRATEGY_RANDOM in strategies:
            baseline_rng = np.random.default_rng([_RANDOM_STREAM_TAG, seed])
            trajectories[STRATEGY_RANDOM] = baseline_rng.permutation(spec.ft_n)

        vectors = finetune.vectors()
        for strategy in strategies:
            trajectory = trajectories[strategy]
            tracker = _CoverageTracker(vectors, truth)
            consumed = 0
            for budget in budgets:
                tracker.add(trajectory[consumed:budget])
                consumed = budget
                rows.append(
                    SweepRow(strategy=strategy, budget=budget, seed=seed, quality=tracker.quality())
                )
    return SweepResult(rows=tuple(rows))


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "budget", "seed", "quality"])
        for row in result.rows:
            writer.writerow([row.strategy, row.budget, row.seed, f"{row.quality:.12g}"])


def read_sweep_csv(path) -> SweepResult:
    """Rows written by ``write_sweep_csv``; a malformed row raises ValueError naming the file and record."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header, *table = list(reader) or [None]
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if header != ["strategy", "budget", "seed", "quality"]:
        raise ValueError(f"{path}: malformed sweep header {header!r}")
    rows = []
    for index, r in enumerate(table):
        try:
            if len(r) != 4:
                raise ValueError(f"expected 4 fields, got {len(r)}")
            row = SweepRow(strategy=r[0], budget=int(r[1]), seed=int(r[2]), quality=float(r[3]))
            if row.budget < 1:
                raise ValueError(f"budget {row.budget} is not positive")
            if not 0.0 <= row.quality <= 1.0:
                raise ValueError(f"quality {row.quality} outside [0,1]")
            rows.append(row)
        except ValueError as exc:
            raise ValueError(f"{path}: record {index}: {exc}") from None
    return SweepResult(rows=tuple(rows))


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


def summarize(result: SweepResult) -> str:
    """Per-budget mean-quality table plus the priority-vs-random verdict."""
    if not result.rows:
        raise ValueError("empty sweep result")
    strategies = result.strategies()
    paired = STRATEGY_PRIORITY_BPS in strategies and STRATEGY_RANDOM in strategies
    lines = []
    header = ["budget"] + [f"{s}(mean+-std)" for s in strategies]
    if paired:
        header.append("bps-random")
    lines.append("  ".join(f"{h:>24}" for h in header))
    last_winning = None
    for budget in result.budgets():
        cells = [f"{budget:>24}"]
        for s in strategies:
            cells.append(f"{result.mean(s, budget):>16.4f} +- {result.stddev(s, budget):.4f}")
        if paired:
            diff = result.mean(STRATEGY_PRIORITY_BPS, budget) - result.mean(STRATEGY_RANDOM, budget)
            cells.append(f"{diff:>+24.4f}")
            if diff >= 0:
                last_winning = budget
        lines.append("  ".join(cells))
    if paired:
        if last_winning is None:
            lines.append("priority_bps never reaches the random baseline")
        else:
            lines.append(f"largest budget with priority_bps >= random: {last_winning}")
    return "\n".join(lines) + "\n"


def report(result: SweepResult, summary_path, aggregates_path=None) -> None:
    """Write the plain-text summary and, optionally, the aggregate CSV."""
    text = summarize(result)
    with open(summary_path, "w") as fh:
        fh.write(text)
    if aggregates_path is not None:
        strategies = result.strategies()
        paired = STRATEGY_PRIORITY_BPS in strategies and STRATEGY_RANDOM in strategies
        with open(aggregates_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            columns = ["budget"]
            for s in strategies:
                columns += [f"mean_{s}", f"std_{s}"]
            if paired:
                columns.append("diff_bps_minus_random")
            writer.writerow(columns)
            for budget in result.budgets():
                row: list = [budget]
                for s in strategies:
                    row += [f"{result.mean(s, budget):.9g}", f"{result.stddev(s, budget):.9g}"]
                if paired:
                    diff = result.mean(STRATEGY_PRIORITY_BPS, budget) - result.mean(STRATEGY_RANDOM, budget)
                    row.append(f"{diff:.9g}")
                writer.writerow(row)
