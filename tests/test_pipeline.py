"""End-to-end feature computation over in-memory corpora."""

from dataclasses import fields, replace

import numpy as np
import pytest

from samplerank import clustering, metrics, pca
from samplerank.data import Corpus, EmbeddingRecord
from samplerank.pipeline import FittedModels, PipelineParams, compute_scores, fit_models, score_finetune
from samplerank.scoring import Coefficients, Scores
from samplerank.synthetic import NovelClusterSpec, default_spec, generate_synthetic


COLUMNS = [f.name for f in fields(Scores)]


@pytest.fixture(scope="module")
def small_data():
    spec = replace(default_spec(seed=21), core_n=300, ft_n=360,
                   novel_clusters=(NovelClusterSpec(size=25), NovelClusterSpec(size=45)))
    return generate_synthetic(spec)


class TestComputeScores:
    def test_deterministic_under_seed(self, small_data):
        core, ft, _ = small_data
        a = compute_scores(core, ft, seed=5)
        b = compute_scores(core, ft, seed=5)
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_one_score_per_pool_sample(self, small_data):
        core, ft, _ = small_data
        scores = compute_scores(core, ft, seed=5)
        assert len(scores) == len(ft)
        assert scores.ids.tolist() == ft.ids

    def test_all_features_in_unit_interval(self, small_data):
        core, ft, _ = small_data
        scores = compute_scores(core, ft, seed=5)
        for name in COLUMNS[1:]:
            values = getattr(scores, name)
            bad = ~((values >= 0.0) & (values <= 1.0))
            assert not bad.any(), f"{name}={values[bad][0]} for id {scores.ids[bad][0]}"

    def test_outliers_get_high_loop_and_max_dist(self, small_data):
        core, ft, truth = small_data
        scores = compute_scores(core, ft, seed=5)
        assert truth.is_outlier.any(), "fixture should contain outliers"
        assert np.mean(scores.loop[truth.is_outlier]) > 0.8
        assert scores.dist.max() == 1.0

    def test_novel_samples_receive_orphan_weight(self, small_data):
        core, ft, truth = small_data
        scores = compute_scores(core, ft, seed=5)
        novel = scores.orph[truth.is_novel]
        base = scores.orph[~truth.is_novel & ~truth.is_outlier]
        assert np.mean(novel) > 0.5
        assert np.mean(base) < 0.05

    def test_core_only_pca_fit_option(self, small_data):
        core, ft, _ = small_data
        pooled = fit_models(core, ft, PipelineParams(), seed=5)
        core_only = fit_models(core, ft, PipelineParams(pca_fit="core"), seed=5)
        assert not np.array_equal(pooled.reduction.mean, core_only.reduction.mean)

    def test_pooled_loop_option_changes_scores_but_keeps_ranges(self, small_data):
        core, ft, truth = small_data
        plain = compute_scores(core, ft, PipelineParams(), seed=5)
        pooled = compute_scores(core, ft, PipelineParams(loop_pool_core=True), seed=5)
        assert np.array_equal(pooled.ids, plain.ids)
        assert np.any(plain.loop != pooled.loop)
        assert np.all((pooled.loop >= 0.0) & (pooled.loop <= 1.0))
        # outliers stay outliers no matter which population anchors the density
        assert np.mean(pooled.loop[truth.is_outlier]) > 0.8

    def test_empty_pool_gives_empty_scores(self, small_data):
        core, ft, _ = small_data
        models = fit_models(core, None, PipelineParams(pca_fit="core"), seed=5)
        empty = score_finetune(models, Corpus((), dimension=core.dimension), PipelineParams())
        assert len(empty) == 0
        assert all(getattr(empty, name).shape == (0,) for name in COLUMNS)


class TestModelPersistencePath:
    def test_scores_survive_the_save_load_cycle(self, small_data, tmp_path):
        core, ft, _ = small_data
        params = PipelineParams()
        models = fit_models(core, ft, params, seed=9)
        direct = score_finetune(models, ft, params, seed=9)

        pca.save_pca(models.reduction, tmp_path / "pca.bin")
        clustering.save_clusters(models.clusters, tmp_path / "clu.bin")
        metrics.save_predictor(models.predictor, tmp_path / "iou.bin")
        reloaded = FittedModels(
            reduction=pca.load_pca(tmp_path / "pca.bin"),
            predictor=metrics.load_predictor(tmp_path / "iou.bin"),
            clusters=clustering.load_clusters(tmp_path / "clu.bin"),
        )
        loaded = score_finetune(reloaded, ft, params, seed=9)
        # float32 storage perturbs features slightly, never structurally
        assert np.array_equal(direct.ids, loaded.ids)
        assert np.abs(direct.bps - loaded.bps).max() < 1e-3
        assert np.abs(direct.mps - loaded.mps).max() < 1e-3


class TestErrorFeature:
    """The err feature and its mps weight act end to end, not only in error_membership."""

    @pytest.fixture(scope="class")
    def with_copies(self, small_data):
        core, ft, _ = small_data
        low = [rec for rec in core if rec.measured_iou < 0.5]
        first = max(core.ids + ft.ids) + 1
        copies = tuple(
            EmbeddingRecord(id=first + i, split="finetune", vector=rec.vector)
            for i, rec in enumerate(low)
        )
        return Corpus(ft.records + copies), len(copies)

    def test_pool_copies_of_low_iou_references_get_err(self, small_data, with_copies):
        core, ft, _ = small_data
        pool, n_copies = with_copies
        assert np.count_nonzero(compute_scores(core, ft, seed=5).err) == 0
        scores = compute_scores(core, pool, seed=5)
        assert n_copies >= 10
        assert np.count_nonzero(scores.err[len(ft):]) >= 0.75 * n_copies

    def test_mps_follows_its_err_weight(self, small_data, with_copies):
        core, _, _ = small_data
        pool, _ = with_copies
        base = compute_scores(core, pool, seed=5)
        shifted = PipelineParams(coefficients=Coefficients(mps_a=0.25, mps_b=0.5))
        moved = compute_scores(core, pool, shifted, seed=5)
        # moving 0.25 from orph to err raises mps exactly where err > orph and loop < 1
        gains = (base.err > base.orph) & (base.loop < 1.0)
        assert np.count_nonzero(gains) >= 10
        assert np.all(moved.mps[gains] > base.mps[gains])
        untouched = (base.err == 0.0) & (base.orph == 0.0)
        np.testing.assert_array_equal(moved.mps[untouched], base.mps[untouched])
