"""Generator determinism, bookkeeping, and geometric guarantees."""

import numpy as np
import pytest

from samplerank.data import SPLIT_CORE, SPLIT_FINETUNE
from samplerank.synthetic import (
    CoreClusterSpec,
    NovelClusterSpec,
    SyntheticSpec,
    _within_radius,
    default_spec,
    generate_synthetic,
)
from dataclasses import replace


def _small_spec(**kwargs):
    base = default_spec(seed=7)
    defaults = dict(core_n=300, ft_n=400)
    defaults.update(kwargs)
    return replace(base, **defaults)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        spec = _small_spec()
        a_core, a_ft, a_truth = generate_synthetic(spec)
        b_core, b_ft, b_truth = generate_synthetic(spec)
        assert np.array_equal(a_core.vectors(), b_core.vectors())
        assert np.array_equal(a_ft.vectors(), b_ft.vectors())
        assert np.array_equal(a_core.measured_ious(), b_core.measured_ious())
        assert np.array_equal(a_truth.hidden_cluster_id, b_truth.hidden_cluster_id)

    def test_different_seed_differs(self):
        a = generate_synthetic(_small_spec())[0]
        b = generate_synthetic(replace(_small_spec(), seed=8))[0]
        assert not np.array_equal(a.vectors(), b.vectors())


class TestBookkeeping:
    def setup_method(self):
        self.spec = _small_spec(novel_clusters=(NovelClusterSpec(size=40), NovelClusterSpec(size=25)))
        self.core, self.ft, self.truth = generate_synthetic(self.spec)

    def test_counts(self):
        assert len(self.core) == 300 and len(self.ft) == 400
        assert int(self.truth.is_outlier.sum()) == self.spec.n_outliers
        assert int(self.truth.is_novel.sum()) == 65

    def test_novel_cluster_of_size_40_marks_exactly_40(self):
        first_novel_id = len(self.spec.core_clusters)
        members = self.truth.hidden_cluster_id == first_novel_id
        assert int(members.sum()) == 40
        assert bool(self.truth.is_novel[members].all())

    def test_splits_and_ids(self):
        assert all(r.split == SPLIT_CORE for r in self.core.records)
        assert all(r.split == SPLIT_FINETUNE for r in self.ft.records)
        assert all(r.measured_iou is not None for r in self.core.records)
        assert all(r.measured_iou is None for r in self.ft.records)
        assert set(self.core.ids).isdisjoint(self.ft.ids)

    def test_truth_hides_nothing_in_the_corpus(self):
        # the pipeline input carries no generator bookkeeping
        assert all(vars(r).keys() == {"id", "split", "vector", "measured_iou"} for r in self.ft.records)

    def test_outlier_ids_are_sentinel(self):
        assert np.all(self.truth.hidden_cluster_id[self.truth.is_outlier] == -1)
        assert np.all(self.truth.hidden_cluster_id[~self.truth.is_outlier] >= 0)


class TestGeometry:
    def test_pure_base_pool_stays_within_five_sigma(self):
        spec = _small_spec(novel_clusters=(), outlier_fraction=0.0)
        _core, ft, truth = generate_synthetic(spec)
        assert not truth.is_novel.any() and not truth.is_outlier.any()
        centers = np.array([c.center for c in spec.core_clusters])
        stddevs = np.array([c.stddev for c in spec.core_clusters])
        x = ft.vectors()
        gaps = np.sqrt(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
        assert np.all(gaps.min(axis=1) <= 5.0 * stddevs.max())

    def test_novel_centers_clear_every_core_mode(self):
        spec = _small_spec()
        _core, ft, truth = generate_synthetic(spec)
        centers = np.array([c.center for c in spec.core_clusters])
        for novel_idx in range(len(spec.novel_clusters)):
            members = ft.vectors()[self.novel_members(truth, spec, novel_idx)]
            centroid = members.mean(axis=0)
            gaps = np.sqrt(((centers - centroid) ** 2).sum(axis=1))
            # empirical centroid sits near the planted center, itself >= 10 sigma out
            assert np.all(gaps >= 10.0 - 1.5)

    @staticmethod
    def novel_members(truth, spec, novel_idx):
        return truth.hidden_cluster_id == len(spec.core_clusters) + novel_idx

    def test_outliers_live_far_outside_the_structured_data(self):
        spec = _small_spec(outlier_fraction=0.1)
        _core, ft, truth = generate_synthetic(spec)
        x = ft.vectors()
        structured = x[~truth.is_outlier]
        span = (structured.max(axis=0) - structured.min(axis=0)).max()
        outliers = x[truth.is_outlier]
        inside = np.abs(outliers - structured.mean(axis=0)).max(axis=1) < 10.5 * span
        assert inside.all()


class TestSpecValidation:
    def test_infeasible_novel_sizes(self):
        with pytest.raises(ValueError, match="infeasible"):
            _small_spec(novel_clusters=(NovelClusterSpec(size=500),))

    def test_outlier_fraction_bounds(self):
        with pytest.raises(ValueError, match="outlier_fraction"):
            _small_spec(outlier_fraction=0.5)

    def test_center_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            SyntheticSpec(
                dims=3,
                core_clusters=(CoreClusterSpec(center=(0.0, 0.0)),),
            )

    def test_base_pool_needs_a_mode(self):
        spec = _small_spec()
        with pytest.raises(ValueError, match="positive mode weight"):
            replace(
                spec,
                core_clusters=tuple(replace(c, finetune_weight=0.0) for c in spec.core_clusters),
            )

    @pytest.mark.parametrize("dims, share", [(8, 0.99057), (32, 0.053217), (37, 0.011444)])
    def test_dims_within_the_acceptance_bound_are_kept(self, dims, share):
        """P(chi2 with *dims* degrees of freedom <= 4.5**2), the share of draws kept."""
        assert _within_radius(dims, 4.5) == pytest.approx(share, rel=1e-4)
        assert default_spec(dims=dims).dims == dims

    @pytest.mark.parametrize("dims", [38, 49, 512])
    def test_dims_whose_draws_the_truncation_mostly_rejects_are_refused(self, dims):
        with pytest.raises(ValueError, match=f"dims = {dims} keeps only"):
            default_spec(dims=dims)

    def test_default_spec_shape(self):
        spec = default_spec()
        assert spec.core_n == 2000 and spec.ft_n == 2200
        assert [c.size for c in spec.novel_clusters] == [60, 140]
        assert spec.outlier_fraction == 0.02
        weights = sorted(c.weight for c in spec.core_clusters)
        assert weights == [0.1, 0.1, 0.4, 0.4]
