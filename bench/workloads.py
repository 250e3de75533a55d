"""The three workloads: inputs from a seed, one timed operation, its checks.

* ``sweep`` — the paper's operating point (core 2000 / pool 2200, D=8).
  One operation is ``samplerank fit`` + ``rank --strategy bps`` on that
  seed's embedding files, then one seed of ``harness.run_budget_sweep``
  over budgets 250..2150 step 100 plus 2200 and all three strategies.
  Operations cycle through ``SWEEP_SEEDS`` consecutive seeds.
* ``pool-9k`` — ``fit`` + ``rank --strategy bps`` on binary files, core
  2000 / pool 8800, D=8: LoOP's pool x pool search dominates.
* ``wide-ref`` — ``fit`` + ``rank --strategy mps``, core 10000 records in
  binary, pool 2200 in CSV, D=512: PCA and the tall k-NN shape dominate.

On the two queue workloads an operation ends by measuring the queue's
1-NN coverage with ``harness.surrogate_quality`` in the generator's space,
for the bps and the mps order of the written queue. The budget is the
paper's 250 per 2200 pool samples, scaled to the pool (1000 on pool-9k):
at a flat 250, pool-9k's 176 outliers and 200 novel samples fill the whole
budget, and the figure would swing between ~0.02 and ~1 with the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from samplerank import cli, data, harness, synthetic

import checks

COVERAGE_BUDGET = 250
COVERAGE_POOL = 2200
SWEEP_BUDGETS = tuple(range(250, 2151, 100)) + (2200,)
SWEEP_SEEDS = 4
WARMUP_CORE, WARMUP_POOL = 200, 220

LIFT_DIMS = 512
LIFT_NOISE = 0.05
_LIFT_STREAM_TAG = 0x11F7


@dataclass
class Instance:
    """Files written for one (seed, size) plus what the checks need to know."""

    seed: int
    core_path: str
    pool_path: str
    pool_ids: np.ndarray      # (n,) int64, file order
    pool_vectors: np.ndarray  # (n, D) float32 as written
    latent_pool: object       # Corpus in generator space, for the coverage oracle
    truth: object             # GroundTruth of the pool


@dataclass
class Outcome:
    """What one operation measured and produced."""

    seed: int
    times: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    out_dir: str = ""
    sweep: object = None


def _lift(corpus, basis: np.ndarray, rng: np.random.Generator):
    """Embed 8-D latents in 512-D: orthonormal map plus isotropic noise."""
    x = corpus.vectors() @ basis.T + LIFT_NOISE * rng.standard_normal((len(corpus), basis.shape[0]))
    return data.Corpus(
        tuple(
            data.EmbeddingRecord(id=r.id, split=r.split, vector=x[i], measured_iou=r.measured_iou)
            for i, r in enumerate(corpus.records)
        )
    )


def write_instance(directory: str, seed: int, core_n: int, ft_n: int, lift: bool, pool_format: str):
    os.makedirs(directory, exist_ok=True)
    spec = replace(synthetic.default_spec(seed=seed), core_n=core_n, ft_n=ft_n)
    core, pool, truth = synthetic.generate_synthetic(spec)
    latent_pool = pool
    if lift:
        rng = np.random.default_rng([_LIFT_STREAM_TAG, seed])
        basis, _ = np.linalg.qr(rng.standard_normal((LIFT_DIMS, spec.dims)))
        core, pool = _lift(core, basis, rng), _lift(pool, basis, rng)
    core_path = os.path.join(directory, "core.emb")
    pool_path = os.path.join(directory, "pool.csv" if pool_format == "csv" else "pool.emb")
    data.save_embeddings(core, core_path)
    data.save_embeddings(pool, pool_path, format=pool_format)
    return Instance(
        seed=seed,
        core_path=core_path,
        pool_path=pool_path,
        pool_ids=np.array(pool.ids, dtype=np.int64),
        pool_vectors=np.stack([r.vector for r in pool.records]),
        latent_pool=latent_pool,
        truth=truth,
    )


def _cli(argv: list[str], what: str, outcome: Outcome) -> float:
    """Run one CLI command in-process; returns its wall time."""
    log = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(log):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    if code != 0:
        outcome.problems.append(f"{what} exited {code}: {log.getvalue().strip()[-300:]}")
    return elapsed


def fit_and_rank(inst: Instance, out_dir: str, strategy: str, outcome: Outcome) -> None:
    common = ["--out-dir", out_dir, "--seed", str(inst.seed)]
    outcome.out_dir = out_dir
    outcome.times["fit_s"] = _cli(
        common + ["fit", "--core", inst.core_path, "--finetune", inst.pool_path], "fit", outcome
    )
    if outcome.problems:
        return
    outcome.times["rank_s"] = _cli(
        common + ["rank", "--finetune", inst.pool_path, "--strategy", strategy], "rank", outcome
    )


def verify_queue(inst: Instance, outcome: Outcome, strategy: str, book, key: str) -> list[str]:
    """Every check on one written queue; returns the problems found."""
    path = os.path.join(outcome.out_dir, "queue.csv")
    try:
        queue = checks.Queue(path)
    except (OSError, ValueError) as exc:
        return [f"queue unreadable: {exc}"]
    problems = checks.check_queue(queue, inst.pool_ids, strategy)
    problems += checks.check_pred_iou(queue, outcome.out_dir, inst.pool_ids, inst.pool_vectors, inst.seed)
    outcome.digests["queue.csv"] = checks.sha256(path)
    problems += book.check(key, "queue.csv", outcome.digests["queue.csv"])
    return problems


class Workload:
    """One operation: ``fit`` + ``rank`` on one instance's files, then ``finish``."""

    name: str
    strategy: str
    min_ops: int

    def instance(self, inputs, index: int) -> Instance:
        raise NotImplementedError

    def finish(self, inst: Instance, outcome: Outcome) -> None:
        raise NotImplementedError

    def execute(self, inputs, index: int, work: str, unit=contextlib.nullcontext) -> Outcome:
        """Run and time one operation; ``unit`` brackets it for a tracer."""
        inst = self.instance(inputs, index)
        outcome = Outcome(seed=inst.seed)
        out_dir = os.path.join(work, f"out-{inst.seed}")
        try:
            with unit():
                start = time.perf_counter()
                fit_and_rank(inst, out_dir, self.strategy, outcome)
                if not outcome.problems:
                    self.finish(inst, outcome)
                outcome.times["op_s"] = time.perf_counter() - start
        except Exception:
            outcome.problems.append("operation raised: " + traceback.format_exc(limit=3))
        return outcome


class QueueWorkload(Workload):
    """``fit`` + ``rank`` on files, then the queue's coverage at the scaled budget."""

    def __init__(self, name, core_n, ft_n, lift, pool_format, strategy, min_ops):
        self.name = name
        self.core_n, self.ft_n = core_n, ft_n
        self.lift, self.pool_format = lift, pool_format
        self.strategy = strategy
        self.min_ops = min_ops
        self.coverage_budget = COVERAGE_BUDGET * ft_n // COVERAGE_POOL

    def describe(self) -> str:
        dims = LIFT_DIMS if self.lift else 8
        return (f"core {self.core_n} binary / pool {self.ft_n} {self.pool_format}, D={dims}, "
                f"rank --strategy {self.strategy}; coverage at budget {self.coverage_budget}")

    def setup(self, work: str, seed: int) -> Instance:
        inst = write_instance(os.path.join(work, "inputs"), seed, self.core_n, self.ft_n,
                              self.lift, self.pool_format)
        warm = write_instance(os.path.join(work, "warmup"), seed, WARMUP_CORE, WARMUP_POOL,
                              self.lift, self.pool_format)
        fit_and_rank(warm, os.path.join(work, "warmup", "out"), self.strategy, Outcome(seed))
        return inst

    def instance(self, inputs: Instance, index: int) -> Instance:
        return inputs

    def finish(self, inst: Instance, outcome: Outcome) -> None:
        queue = checks.Queue(os.path.join(outcome.out_dir, "queue.csv"))
        for strategy in ("bps", "mps"):
            order = queue.id if strategy == self.strategy else checks.order_by(queue, strategy)
            outcome.coverage[f"cov_{strategy}_{COVERAGE_BUDGET}"] = harness.surrogate_quality(
                order[: self.coverage_budget].tolist(), inst.latent_pool, inst.truth
            )

    def verify(self, inst: Instance, outcome: Outcome, book) -> list[str]:
        return verify_queue(inst, outcome, self.strategy, book, f"{self.name}/seed={inst.seed}")


class SweepWorkload(Workload):
    """CLI ``fit`` + ``rank`` at the default size, then one sweep seed."""

    name = "sweep"
    strategy = "bps"
    min_ops = SWEEP_SEEDS

    def describe(self) -> str:
        return (f"default_spec core 2000 / pool 2200, D=8, {SWEEP_SEEDS} seeds cycled; "
                f"fit + rank --strategy bps, then run_budget_sweep over {len(SWEEP_BUDGETS)} "
                f"budgets x {len(harness.ALL_STRATEGIES)} strategies")

    def setup(self, work: str, seed: int) -> list[Instance]:
        spec = synthetic.default_spec(seed=seed)
        instances = [
            write_instance(os.path.join(work, f"inputs-{k}"), seed + k, spec.core_n, spec.ft_n,
                           False, "binary")
            for k in range(SWEEP_SEEDS)
        ]
        warm = write_instance(os.path.join(work, "warmup"), seed, WARMUP_CORE, WARMUP_POOL,
                              False, "binary")
        fit_and_rank(warm, os.path.join(work, "warmup", "out"), self.strategy, Outcome(seed))
        harness.run_budget_sweep(
            replace(spec, core_n=WARMUP_CORE, ft_n=WARMUP_POOL),
            budgets=[50, WARMUP_POOL], strategies=harness.ALL_STRATEGIES, n_seeds=1,
        )
        return instances

    def instance(self, inputs: list[Instance], index: int) -> Instance:
        return inputs[index % SWEEP_SEEDS]

    def finish(self, inst: Instance, outcome: Outcome) -> None:
        start = time.perf_counter()
        outcome.sweep = harness.run_budget_sweep(
            synthetic.default_spec(seed=inst.seed),
            budgets=list(SWEEP_BUDGETS),
            strategies=harness.ALL_STRATEGIES,
            n_seeds=1,
        )
        outcome.times["sweep_seed_s"] = time.perf_counter() - start
        for strategy in ("bps", "mps"):
            outcome.coverage[f"cov_{strategy}_{COVERAGE_BUDGET}"] = outcome.sweep.mean(
                f"priority_{strategy}", COVERAGE_BUDGET
            )

    def verify(self, instances: list[Instance], outcome: Outcome, book) -> list[str]:
        inst = next(i for i in instances if i.seed == outcome.seed)
        key = f"{self.name}/seed={inst.seed}"
        problems = verify_queue(inst, outcome, self.strategy, book, key)
        problems += checks.check_sweep(outcome.sweep, SWEEP_BUDGETS, harness.ALL_STRATEGIES)
        path = os.path.join(outcome.out_dir, "sweep.csv")
        harness.write_sweep_csv(outcome.sweep, path)
        outcome.digests["sweep.csv"] = checks.sha256(path)
        problems += book.check(key, "sweep.csv", outcome.digests["sweep.csv"])
        return problems


WORKLOADS = {
    "sweep": SweepWorkload(),
    "pool-9k": QueueWorkload("pool-9k", 2000, 8800, lift=False, pool_format="binary",
                             strategy="bps", min_ops=2),
    "wide-ref": QueueWorkload("wide-ref", 10000, 2200, lift=True, pool_format="csv",
                              strategy="mps", min_ops=2),
}
