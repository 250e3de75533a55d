"""End-to-end feature computation over in-memory corpora."""

import hashlib
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from samplerank import clustering, metrics, pca
from samplerank.cli import main
from samplerank.data import Corpus, EmbeddingRecord, save_embeddings
from samplerank.config import Config
from samplerank.harness import run_budget_sweep
from samplerank.pipeline import FittedModels, compute_scores, fit_models, score_finetune
from samplerank.scoring import Scores, write_queue_csv
from samplerank.synthetic import CoreClusterSpec, NovelClusterSpec, SyntheticSpec, default_spec, generate_synthetic


COLUMNS = [f.name for f in fields(Scores)]


@pytest.fixture(scope="module")
def small_data():
    spec = replace(default_spec(seed=21), core_n=300, ft_n=360,
                   novel_clusters=(NovelClusterSpec(size=25), NovelClusterSpec(size=45)))
    return generate_synthetic(spec)


class TestComputeScores:
    def test_deterministic_under_seed(self, small_data):
        core, ft, _ = small_data
        a = compute_scores(core, ft, Config(seed=5))
        b = compute_scores(core, ft, Config(seed=5))
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_config_seed_reaches_every_seeded_stage(self, small_data):
        """``Config.seed`` is the one master seed: another seed reseeds the k-means stages."""
        core, ft, _ = small_data
        a = compute_scores(core, ft, Config(seed=7))
        b = compute_scores(core, ft, Config(seed=8))
        assert not np.array_equal(a.orph, b.orph)
        assert not np.array_equal(a.mps, b.mps)

    def test_sweep_seeds_come_from_the_spec(self):
        """The sweep runs each seed of its spec, whatever seed *params* carries."""
        spec = replace(default_spec(seed=21), core_n=300, ft_n=360)
        assert run_budget_sweep(spec, [50, 200], params=Config(seed=999)) == run_budget_sweep(spec, [50, 200])

    def test_one_score_per_pool_sample(self, small_data):
        core, ft, _ = small_data
        scores = compute_scores(core, ft, Config(seed=5))
        assert len(scores) == len(ft)
        assert scores.ids.tolist() == ft.ids.tolist()

    def test_all_features_in_unit_interval(self, small_data):
        core, ft, _ = small_data
        scores = compute_scores(core, ft, Config(seed=5))
        for name in COLUMNS[1:]:
            values = getattr(scores, name)
            bad = ~((values >= 0.0) & (values <= 1.0))
            assert not bad.any(), f"{name}={values[bad][0]} for id {scores.ids[bad][0]}"

    def test_outliers_get_high_loop_and_max_dist(self, small_data):
        core, ft, truth = small_data
        scores = compute_scores(core, ft, Config(seed=5))
        assert truth.is_outlier.any(), "fixture should contain outliers"
        assert np.mean(scores.loop[truth.is_outlier]) > 0.8
        assert scores.dist.max() == 1.0

    def test_novel_samples_receive_orphan_weight(self, small_data):
        core, ft, truth = small_data
        scores = compute_scores(core, ft, Config(seed=5))
        novel = scores.orph[truth.is_novel]
        base = scores.orph[~truth.is_novel & ~truth.is_outlier]
        assert np.mean(novel) > 0.5
        assert np.mean(base) < 0.05

    def test_core_only_pca_fit_option(self, small_data):
        core, ft, _ = small_data
        pooled = fit_models(core, ft, Config(seed=5))
        core_only = fit_models(core, None, Config(seed=5))
        assert not np.array_equal(pooled.reduction.mean, core_only.reduction.mean)

    def test_empty_pool_gives_empty_scores(self, small_data):
        core, ft, _ = small_data
        models = fit_models(core, None, Config(seed=5))
        no_pool = Corpus(columns=((), np.empty((0, core.dimension), np.float32), (), ()))
        empty = score_finetune(models, no_pool, Config())
        assert len(empty) == 0
        assert all(getattr(empty, name).shape == (0,) for name in COLUMNS)


class TestModelPersistencePath:
    def test_scores_survive_the_save_load_cycle(self, small_data, tmp_path):
        core, ft, _ = small_data
        params = Config(seed=9)
        models = fit_models(core, ft, params)
        direct = score_finetune(models, ft, params)

        pca.save_pca(models.reduction, tmp_path / "pca.bin")
        clustering.save_clusters(models.clusters, tmp_path / "clu.bin")
        metrics.save_predictor(models.predictor, tmp_path / "iou.bin")
        reloaded = FittedModels(
            reduction=pca.load_pca(tmp_path / "pca.bin"),
            predictor=metrics.load_predictor(tmp_path / "iou.bin"),
            clusters=clustering.load_clusters(tmp_path / "clu.bin"),
        )
        loaded = score_finetune(reloaded, ft, params)
        # fit_models returns the models as stored, so a save and load changes no bit of any column
        for name in COLUMNS:
            assert np.array_equal(getattr(direct, name), getattr(loaded, name)), name

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_cli_fit_and_rank_write_the_library_queue(self, seed, tmp_path):
        core, ft, _ = generate_synthetic(default_spec(seed=seed))
        save_embeddings(core, tmp_path / "core.emb")
        save_embeddings(ft, tmp_path / "ft.emb")
        cli = ["--seed", str(seed), "--out-dir", str(tmp_path)]
        assert main([*cli, "fit", "--core", str(tmp_path / "core.emb"), "--finetune", str(tmp_path / "ft.emb")]) == 0
        scores = compute_scores(core, ft, Config(seed=seed))
        for strategy in ("bps", "mps"):
            write_queue_csv(scores, strategy, tmp_path / f"library_{strategy}.csv")
            assert main([*cli, "rank", "--finetune", str(tmp_path / "ft.emb"), "--strategy", strategy]) == 0
            library = (tmp_path / f"library_{strategy}.csv").read_bytes()
            assert (tmp_path / "queue.csv").read_bytes() == library, strategy


class TestErrorFeature:
    """The err feature and its mps weight act end to end, not only in error_membership."""

    @pytest.fixture(scope="class")
    def with_copies(self, small_data):
        core, ft, _ = small_data
        low = [rec for rec in core.records if rec.measured_iou < 0.5]
        first = int(max(core.ids.max(), ft.ids.max())) + 1
        copies = tuple(
            EmbeddingRecord(id=first + i, split="finetune", vector=rec.vector)
            for i, rec in enumerate(low)
        )
        return Corpus(ft.records + copies), len(copies)

    def test_pool_copies_of_low_iou_references_get_err(self, small_data, with_copies):
        core, ft, _ = small_data
        pool, n_copies = with_copies
        assert np.count_nonzero(compute_scores(core, ft, Config(seed=5)).err) == 0
        scores = compute_scores(core, pool, Config(seed=5))
        assert n_copies >= 10
        assert np.count_nonzero(scores.err[len(ft):]) >= 0.75 * n_copies

    def test_mps_follows_its_err_weight(self, small_data, with_copies):
        core, _, _ = small_data
        pool, _ = with_copies
        base = compute_scores(core, pool, Config(seed=5))
        shifted = Config(mps_a=0.25, mps_b=0.5)
        moved = compute_scores(core, pool, replace(shifted, seed=5))
        # moving 0.25 from orph to err raises mps exactly where err > orph and loop < 1
        gains = (base.err > base.orph) & (base.loop < 1.0)
        assert np.count_nonzero(gains) >= 10
        assert np.all(moved.mps[gains] > base.mps[gains])
        untouched = (base.err == 0.0) & (base.orph == 0.0)
        np.testing.assert_array_equal(moved.mps[untouched], base.mps[untouched])

    def test_pool_drawn_from_the_low_iou_mode_gets_err(self):
        """The generator's pool from the low-IoU reference mode only: most of it lands in error clusters.

        On seeds 9-40 the share with err > 0 was 0.835-0.935, the largest
        predicted IoU 0.29-0.35 and the largest err 1.0.
        """
        e0 = np.eye(8)[0]
        spec = SyntheticSpec(
            core_clusters=(CoreClusterSpec(center=tuple(4 * e0), iou_mean=0.8),
                           CoreClusterSpec(center=tuple(-4 * e0), iou_mean=0.25, finetune_weight=1.0)),
            novel_clusters=(), outlier_fraction=0.0, core_n=400, ft_n=200, seed=11,
        )
        core, pool, _ = generate_synthetic(spec)
        scores = compute_scores(core, pool, Config(seed=11))
        assert scores.pred_iou.max() < 0.45
        assert np.mean(scores.err > 0.0) > 0.75
        assert scores.err.max() == 1.0


def test_fit_holds_one_float64_copy_of_the_core_rows():
    """A wide pooled fit peaks below 2.5 float64 copies of the core and pool rows."""
    rng = np.random.default_rng(0)
    n_core, n_pool, d = 3000, 600, 256
    lift = rng.normal(size=(8, d))
    x = rng.normal(size=(n_core + n_pool, 8)) @ lift + 0.01 * rng.normal(size=(n_core + n_pool, d))
    x = x.astype(np.float32)
    core = Corpus(tuple(EmbeddingRecord(i, "core", x[i], float(rng.uniform())) for i in range(n_core)))
    pool = Corpus(tuple(EmbeddingRecord(i, "finetune", x[i]) for i in range(n_core, n_core + n_pool)))
    tracemalloc.start()
    try:
        fit_models(core, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (n_core + n_pool) * d * 8


def test_pool_without_error_candidates_skips_the_error_cluster_walk(monkeypatch):
    """On default_spec(seed=1) no pool sample is predicted below the error IoU threshold.

    ``error_membership`` returns its zero weights without walking the error
    clusters on empty arrays, and every Scores bit is what it was with the walk.
    """
    core, ft, _ = generate_synthetic(default_spec(seed=1))
    holding, sizes = clustering._holding, []

    def counted(model, points, clusters):
        sizes.append(len(points))
        return holding(model, points, clusters)

    monkeypatch.setattr(clustering, "_holding", counted)
    scores = compute_scores(core, ft, Config())
    assert sizes and 0 not in sizes  # the orphan test still runs, on the pool's clusters
    assert not scores.err.any()
    columns = b"".join(np.ascontiguousarray(getattr(scores, name)).tobytes() for name in COLUMNS)
    assert hashlib.sha256(columns).hexdigest() == "feb9ffe9ec76794c1ab2cbeef5f6f0b0be70e7e06c687089c7ab18ccbb3219a4"


def test_wide_fit_holds_no_joint_copy_of_core_and_pool():
    """The reduction is fitted on the core and the pool as they are, never on their concatenation.

    At core 4,000 x 512 and pool 1,000 x 512 the peak was 17.8 MiB with a
    float32 concatenation of both, and is 8.0 MiB without it: one 4 MiB
    centred block, the (D, D) scatter sum and one block's product.
    """
    rng = np.random.default_rng(0)
    n_core, n_pool, d = 4000, 1000, 512
    x = rng.normal(size=(n_core + n_pool, 8)) @ rng.normal(size=(8, d)) + 0.01 * rng.normal(size=(n_core + n_pool, d))
    x = x.astype(np.float32)
    core = Corpus(columns=(np.arange(n_core), x[:n_core], rng.uniform(size=n_core), np.zeros(n_core)))
    pool = Corpus(columns=(np.arange(n_core, n_core + n_pool), x[n_core:], np.full(n_pool, np.nan), np.ones(n_pool)))
    tracemalloc.start()
    try:
        fit_models(core, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes  # 9.8 MiB, the bytes of one float32 concatenation


@pytest.mark.parametrize("size", ["default", "core300-pool320"])
@pytest.mark.parametrize("seed", [100, 101, 102])
def test_power_of_two_scale_changes_no_score_bit(seed, size):
    """Scaling every vector of both corpora by 2 or 2^-10 leaves every Scores column bit-equal."""
    spec = default_spec(seed=seed)
    if size != "default":
        spec = replace(spec, core_n=300, ft_n=320,
                       novel_clusters=(NovelClusterSpec(size=20), NovelClusterSpec(size=40)))
    core, ft, _ = generate_synthetic(spec)

    def scaled(corpus, factor):
        return Corpus(columns=(corpus.ids, corpus.vectors() * np.float32(factor), corpus._ious, corpus.splits))

    base = compute_scores(core, ft, Config(seed=seed))
    for factor in (2.0, 2.0**-10):
        got = compute_scores(scaled(core, factor), scaled(ft, factor), Config(seed=seed))
        for name in COLUMNS:
            assert getattr(got, name).tobytes() == getattr(base, name).tobytes(), (factor, name)
