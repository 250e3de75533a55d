"""K-means engine, two-phase classification, error clusters, orphans."""

import tracemalloc

import numpy as np
import pytest

from samplerank import _dist
from samplerank.clustering import (
    ClusterModel,
    _cluster_sums,
    _holding,
    classify_batch,
    default_cluster_count,
    detect_orphans,
    error_membership,
    fit_core_clusters,
    fit_error_clusters,
    kmeans,
    load_clusters,
    normalize_distances,
    save_clusters,
)


def _blobs(rng, centers, n_per, stddev=0.5):
    parts = [np.asarray(c) + stddev * rng.normal(size=(n_per, len(c))) for c in centers]
    return np.vstack(parts)


def _partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), frozenset()).union({i})
        groups[int(lab)] = groups[int(lab)] | {i}
    return frozenset(groups.values())


class TestKmeans:
    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(0)
        pts = _blobs(rng, [(0, 0), (10, 10)], 60)
        centres, labels, d2 = kmeans(pts, 2, seed=1)
        np.testing.assert_allclose(d2, ((pts - centres[labels]) ** 2).sum(axis=1), rtol=1e-12)
        for blob in (pts[:60], pts[60:]):
            gaps = np.sqrt(((centres - blob.mean(axis=0)) ** 2).sum(axis=1))
            assert gaps.min() < 0.1
        assert len(set(labels[:60])) == 1 and len(set(labels[60:])) == 1

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(8, 2))
        centres, labels, _ = kmeans(pts, 8, seed=2)
        assert sorted(labels.tolist()) == list(range(8))
        np.testing.assert_allclose(centres[labels], pts, atol=1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(100, 3))
        a = kmeans(pts, 5, seed=7)
        b = kmeans(pts, 5, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            kmeans(np.ones((4, 2)), 5)

    def test_cluster_sums_keep_the_bits_of_add_at(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(500, 9)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
        labels = rng.integers(0, 7, size=500)
        labels[labels == 3] = 5  # clusters 3 and 7 empty, every other label repeated
        ref = np.zeros((8, 9))
        np.add.at(ref, labels, points)
        got = _cluster_sums(points, labels, 8)
        assert got.shape == (8, 9)
        assert np.ascontiguousarray(got).tobytes() == ref.tobytes()

    def test_default_cluster_count_rule(self):
        assert default_cluster_count(2000) == 16  # sqrt(1000) ~ 32, clamped
        assert default_cluster_count(50) == 5
        assert default_cluster_count(3) == 2
        assert default_cluster_count(1) == 1


class TestCoreClusterFit:
    def test_blob_centroids_near_blob_means(self):
        rng = np.random.default_rng(3)
        reduced = _blobs(rng, [(0, 0), (10, 10)], 50)
        ious = np.full(100, 0.8)
        model = fit_core_clusters(reduced, ious, k=2, seed=4)
        assert sorted(model.member_count.tolist()) == [50, 50]
        # centroids dequantised back to raw coordinates sit near the means
        raw = model.centroids[:, :-1] * model.feature_scale + model.feature_mean
        for mean in ((0, 0), (10, 10)):
            assert np.sqrt(((raw - mean) ** 2).sum(axis=1)).min() < 0.2

    def test_k_equals_n_gives_zero_radii(self):
        rng = np.random.default_rng(4)
        model = fit_core_clusters(rng.normal(size=(6, 2)), np.full(6, 0.5), k=6, seed=0)
        np.testing.assert_allclose(model.p95_radius, 0.0, atol=1e-12)

    def test_constant_iou_reduces_to_plain_kmeans(self):
        rng = np.random.default_rng(5)
        reduced = _blobs(rng, [(0, 0), (6, 6), (-6, 6)], 30)
        z = (reduced - reduced.mean(axis=0)) / reduced.std(axis=0)

        _, plain_labels, _ = kmeans(z, 3, seed=9)
        model_lo = fit_core_clusters(reduced, np.full(90, 0.2), k=3, seed=9)
        model_hi = fit_core_clusters(reduced, np.full(90, 0.9), k=3, seed=9)
        for model, iou_value in ((model_lo, 0.2), (model_hi, 0.9)):
            fitted, _ = classify_batch(model, model.augment(reduced, np.full(90, iou_value)))
            assert _partition(fitted) == _partition(plain_labels)

    def test_iou_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_core_clusters(np.ones((4, 2)), np.full(4, 0.5), k=2, iou_weight=0.0)


class TestClassify:
    def _simple_model(self):
        return ClusterModel(
            centroids=np.array([[0.0, 0.5], [2.0, 0.5]]),
            iou_weight=1.0,
            feature_mean=np.zeros(1),
            feature_scale=np.ones(1),
            member_count=np.array([3, 3]),
            p95_radius=np.array([1.0, 1.0]),
            is_error=np.array([False, False]),
        )

    def test_exact_centroid_gives_zero_distance(self):
        model = self._simple_model()
        ids, dists = classify_batch(model, model.augment(np.array([[2.0]]), np.array([0.5])))
        assert ids.tolist() == [1] and dists.tolist() == [0.0]

    def test_tie_goes_to_lowest_index(self):
        model = self._simple_model()
        ids, _ = classify_batch(model, model.augment(np.array([[1.0]]), np.array([0.5])))
        assert ids.tolist() == [0]

    def test_blob_point_lands_in_nearest_blob(self):
        rng = np.random.default_rng(6)
        reduced = _blobs(rng, [(0, 0), (10, 10)], 50)
        model = fit_core_clusters(reduced, np.full(100, 0.8), k=2, seed=4)
        (near_ten,), _ = classify_batch(model, model.augment(np.array([[9.0, 9.0]]), np.array([0.8])))
        raw = model.centroids[near_ten, :-1] * model.feature_scale + model.feature_mean
        assert np.linalg.norm(raw - np.array([10, 10])) < 1.0

    def test_refit_points_return_their_cluster_and_batch_agrees(self):
        rng = np.random.default_rng(7)
        reduced = _blobs(rng, [(0, 0), (8, 8)], 40)
        ious = rng.uniform(0.6, 0.9, 80)
        model = fit_core_clusters(reduced, ious, k=2, seed=5)
        ids, dists = classify_batch(model, model.augment(reduced, ious))
        for row, point in enumerate(model.augment(reduced, ious)):
            d2 = ((model.centroids - point) ** 2).sum(axis=1)
            assert ids[row] == int(d2.argmin())
            assert dists[row] == np.sqrt(d2.min())
        counts = np.bincount(ids, minlength=2)
        assert sorted(counts.tolist()) == sorted(model.member_count.tolist())


class TestModelInvariants:
    @pytest.mark.parametrize("is_error, counts, message", [
        ([True, True], [3, 3], "at least one core"),
        ([False, True], [3, 0], "error clusters have no members"),
    ])
    def test_rejects_models_the_scorer_cannot_use(self, is_error, counts, message):
        with pytest.raises(ValueError, match=message):
            ClusterModel(
                centroids=np.array([[0.0, 0.5], [2.0, 0.2]]),
                iou_weight=1.0,
                feature_mean=np.zeros(1),
                feature_scale=np.ones(1),
                member_count=np.array(counts),
                p95_radius=np.array([1.0, 1.0]),
                is_error=np.array(is_error),
            )


class TestNormalizeDistances:
    def test_linear_scaling(self):
        assert normalize_distances(np.array([0.0, 2.0, 4.0])).tolist() == [0.0, 0.5, 1.0]

    def test_all_zero_batch(self):
        assert normalize_distances(np.array([0.0, 0.0])).tolist() == [0.0, 0.0]

    def test_single_sample(self):
        assert normalize_distances(np.array([7.0])).tolist() == [1.0]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_distances(np.array([]))

    def test_order_preserving(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(0, 5, 30)
        order = np.argsort(raw)
        values = normalize_distances(raw)
        assert np.all(np.diff(values[order]) >= 0)
        assert np.all((values >= 0) & (values <= 1))


class TestErrorClusters:
    def test_no_low_iou_samples_means_no_error_clusters(self):
        rng = np.random.default_rng(9)
        reduced = rng.normal(size=(30, 2))
        model = fit_core_clusters(reduced, np.full(30, 0.9), k=3, seed=1)
        folded = fit_error_clusters(model, reduced, np.full(30, 0.9), seed=2)
        assert folded is model
        assert folded.error_indices.size == 0

    def test_all_low_iou_clusters_over_full_set(self):
        rng = np.random.default_rng(10)
        reduced = rng.normal(size=(30, 2))
        ious = np.full(30, 0.2)
        model = fit_core_clusters(reduced, ious, k=3, seed=1)
        folded = fit_error_clusters(model, reduced, ious, k_err=2, seed=2)
        assert folded.error_indices.size == 2
        assert folded.member_count[folded.error_indices].sum() == 30

    def test_two_far_points_make_singleton_error_clusters(self):
        reduced = np.array([[0.0, 0.0], [50.0, 50.0], [1.0, 0.0], [0.0, 1.0]])
        ious = np.array([0.2, 0.3, 0.9, 0.9])
        model = fit_core_clusters(reduced, ious, k=2, seed=3)
        folded = fit_error_clusters(model, reduced, ious, k_err=2, seed=3)
        err = folded.error_indices
        assert err.size == 2
        assert folded.member_count[err].tolist() == [1, 1]
        assert folded.p95_radius[err].tolist() == [0.0, 0.0]

    def test_k_err_beyond_subpopulation(self):
        reduced = np.ones((10, 2)) * np.arange(10)[:, None]
        ious = np.array([0.1] * 2 + [0.9] * 8)
        model = fit_core_clusters(reduced, ious, k=2, seed=1)
        with pytest.raises(ValueError, match="subpopulation"):
            fit_error_clusters(model, reduced, ious, k_err=3)

    def test_classification_ignores_error_centroids(self):
        reduced = np.array([[0.0, 0.0], [50.0, 50.0], [1.0, 0.0], [0.0, 1.0]])
        ious = np.array([0.2, 0.3, 0.9, 0.9])
        model = fit_core_clusters(reduced, ious, k=2, seed=3)
        folded = fit_error_clusters(model, reduced, ious, k_err=2, seed=3)
        ids, _ = classify_batch(folded, folded.augment(reduced, ious))
        assert not folded.is_error[ids].any()


class TestErrorMembership:
    def test_nearest_containing_error_cluster_sets_the_weight(self):
        # one core and two overlapping error clusters (sizes 4 and 2) on a line
        model = ClusterModel(
            centroids=np.array([[0.0, 0.9], [5.0, 0.2], [7.0, 0.2]]),
            iou_weight=1.0,
            feature_mean=np.zeros(1),
            feature_scale=np.ones(1),
            member_count=np.array([10, 4, 2]),
            p95_radius=np.array([1.0, 3.0, 3.0]),
            is_error=np.array([False, True, True]),
        )
        points = np.array([
            [6.5, 0.2],   # inside both, nearer the small one
            [3.0, 0.2],   # inside the big one only
            [9.5, 0.2],   # inside the small one only
            [20.0, 0.2],  # inside neither
            [6.5, 0.8],   # inside both, but IoU above the threshold
        ])
        assert error_membership(model, points).tolist() == [0.5, 1.0, 0.5, 0.0, 0.0]

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(24)
        reduced = _blobs(rng, [(0, 0), (4, 4), (8, 0)], 40)
        ious = rng.uniform(0.0, 0.8, 120)
        model = fit_core_clusters(reduced, ious, k=3, seed=25)
        model = fit_error_clusters(model, reduced, ious, k_err=4, seed=26)
        points = model.augment(reduced + 0.5 * rng.normal(size=reduced.shape), ious)

        err = model.error_indices
        expected = np.zeros(len(points))
        for row, point in enumerate(points):
            if point[-1] / model.iou_weight >= 0.5:
                continue
            d = np.sqrt(((model.centroids[err] - point) ** 2).sum(axis=1))
            hits = np.flatnonzero(d <= model.p95_radius[err])
            if hits.size:
                nearest = hits[d[hits].argmin()]
                expected[row] = model.member_count[err[nearest]] / model.member_count[err].max()
        assert np.count_nonzero(expected) > 10
        assert error_membership(model, points).tolist() == expected.tolist()


def _matrix_holding(model, points, clusters):
    """The points x clusters matrix expression ``_holding`` replaced, kept as its reference."""
    d = np.sqrt(_dist._in_order(points[:, None], model.centroids[clusters][None]))
    inside = d <= model.p95_radius[clusters]
    closest = np.where(inside, d, np.inf).argmin(axis=1)
    return np.where(inside.any(axis=1), clusters[closest], -1)


class TestHolding:
    """Cluster membership walks the clusters one at a time, against the matrix expression."""

    @pytest.mark.parametrize("kind", ["core", "error"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_matrix_expression_on_integer_grids(self, seed, kind):
        rng = np.random.default_rng(seed)
        dims, k = int(rng.integers(2, 5)), int(rng.integers(8, 24))
        model = ClusterModel(
            centroids=rng.integers(0, 3, size=(k, dims)).astype(float),  # repeats: clusters tie exactly
            iou_weight=1.0,
            feature_mean=np.zeros(dims - 1),
            feature_scale=np.ones(dims - 1),
            member_count=rng.integers(1, 50, size=k),
            p95_radius=np.sqrt(rng.integers(0, 9, size=k)),  # integer squared distances land on them
            is_error=rng.permutation(np.arange(k) < k // 2),
        )
        points = rng.integers(0, 4, size=(200, dims)).astype(float)
        clusters = model.core_indices if kind == "core" else model.error_indices

        d = np.sqrt(_dist._in_order(points[:, None], model.centroids[clusters][None]))
        inside = d <= model.p95_radius[clusters]
        assert (d == model.p95_radius[clusters]).any()  # points sit exactly on a radius
        held_d = np.where(inside, d, np.inf)
        ties = inside & (held_d == held_d.min(axis=1, keepdims=True))
        assert (ties.sum(axis=1) > 1).any()  # points equally near two clusters that hold them
        assert _holding(model, points, clusters).tolist() == _matrix_holding(model, points, clusters).tolist()

    def test_memory_stays_linear_in_the_points(self):
        """2,000 points x 1,000 clusters: the matrix expression peaked at 46 MiB."""
        rng = np.random.default_rng(30)
        k = 1000
        model = ClusterModel(
            centroids=rng.normal(size=(k, 9)),
            iou_weight=1.0,
            feature_mean=np.zeros(8),
            feature_scale=np.ones(8),
            member_count=np.ones(k, dtype=int),
            p95_radius=rng.uniform(0.0, 3.0, k),
            is_error=np.zeros(k, dtype=bool),
        )
        points, clusters = rng.normal(size=(2000, 9)), model.core_indices
        tracemalloc.start()
        try:
            held = _holding(model, points, clusters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert held.tolist() == _matrix_holding(model, points, clusters).tolist()


class TestOrphans:
    def _core_model(self, rng, centers=((0, 0), (10, 10))):
        reduced = _blobs(rng, centers, 60)
        ious = rng.uniform(0.6, 0.9, len(centers) * 60)
        return fit_core_clusters(reduced, ious, k=len(centers), seed=11), reduced, ious

    def test_inlier_pool_has_no_orphans(self):
        rng = np.random.default_rng(12)
        model, reduced, ious = self._core_model(rng)
        ft = model.augment(reduced, ious)
        report = detect_orphans(model, ft, k_ft=2, seed=13)
        assert report.orphan_clusters == ()
        np.testing.assert_array_equal(report.orph_weight, 0.0)

    def test_planted_far_cluster_is_orphaned_with_weight_one(self):
        rng = np.random.default_rng(13)
        model, reduced, ious = self._core_model(rng)
        plant = np.array([50.0, 50.0]) + 0.2 * rng.normal(size=(25, 2))
        ft_reduced = np.vstack([reduced[:40], plant])
        ft_ious = np.concatenate([ious[:40], np.full(25, 0.7)])
        report = detect_orphans(model, model.augment(ft_reduced, ft_ious), k_ft=3, seed=14)
        assert len(report.orphan_clusters) >= 1
        np.testing.assert_array_equal(report.orph_weight[40:], 1.0)
        np.testing.assert_array_equal(report.orph_weight[:40], 0.0)

    def test_orphan_weights_scale_with_cluster_size(self):
        rng = np.random.default_rng(14)
        model, reduced, ious = self._core_model(rng)
        small = np.array([60.0, 0.0]) + 0.2 * rng.normal(size=(10, 2))
        big = np.array([0.0, 60.0]) + 0.2 * rng.normal(size=(40, 2))
        ft_reduced = np.vstack([reduced[:30], small, big])
        ft_ious = np.concatenate([ious[:30], np.full(50, 0.7)])
        report = detect_orphans(model, model.augment(ft_reduced, ft_ious), k_ft=4, seed=15)
        np.testing.assert_allclose(report.orph_weight[30:40], 0.25)
        np.testing.assert_allclose(report.orph_weight[40:], 1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(15)
        core = _blobs(rng, [(0, 0), (8, 8)], 50)
        ious = rng.uniform(0.5, 0.9, 100)
        ft = np.vstack([core[:50], np.array([40.0, 40.0]) + 0.3 * rng.normal(size=(20, 2))])
        ft_ious = np.concatenate([ious[:50], np.full(20, 0.6)])

        def run(shift):
            model = fit_core_clusters(core + shift, ious, k=2, seed=16)
            return detect_orphans(model, model.augment(ft + shift, ft_ious), k_ft=3, seed=17)

        base, moved = run(0.0), run(np.array([123.0, -77.0]))
        np.testing.assert_allclose(base.orph_weight, moved.orph_weight, atol=1e-9)
        np.testing.assert_allclose(base.err_weight, moved.err_weight, atol=1e-9)

    def test_err_weight_requires_low_iou_and_proximity(self):
        rng = np.random.default_rng(16)
        core = _blobs(rng, [(0, 0), (10, 10)], 60)
        # low-IoU population concentrated in the first blob
        ious = np.concatenate([rng.uniform(0.1, 0.4, 60), rng.uniform(0.7, 0.95, 60)])
        model = fit_core_clusters(core, ious, k=2, seed=18)
        model = fit_error_clusters(model, core, ious, k_err=1, seed=19)

        ft_reduced = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [60.0, 60.0]])
        ft_ious = np.array([0.2, 0.9, 0.2, 0.2])
        report = detect_orphans(model, model.augment(ft_reduced, ft_ious), k_ft=2, seed=20)
        assert report.err_weight[0] == 1.0   # low IoU, inside the error region
        assert report.err_weight[1] == 0.0   # high IoU
        assert report.err_weight[3] == 0.0   # low IoU but far away

    @pytest.mark.parametrize("x, orphaned", [(2.0, False), (np.nextafter(2.0, np.inf), True)])
    def test_centroid_at_a_core_radius_is_held_and_just_past_it_is_orphaned(self, x, orphaned):
        model = ClusterModel(
            centroids=np.array([[0.0, 0.8], [9.0, 0.8]]),
            iou_weight=1.0,
            feature_mean=np.zeros(1),
            feature_scale=np.ones(1),
            member_count=np.array([10, 10]),
            p95_radius=np.array([2.0, 1.0]),
            is_error=np.array([False, False]),
        )
        report = detect_orphans(model, np.array([[x, 0.8]]), k_ft=1, seed=0)
        assert report.orphan_clusters == ((1,) if orphaned else ())
        assert report.orph_weight.tolist() == [float(orphaned)]

    def test_flags_match_per_centroid_radius_reference(self):
        rng = np.random.default_rng(26)
        reduced = _blobs(rng, [(0, 0), (10, 10), (0, 10)], 50)
        ious = np.concatenate([rng.uniform(0.1, 0.4, 50), rng.uniform(0.6, 0.9, 100)])
        model = fit_core_clusters(reduced, ious, k=3, seed=27)
        model = fit_error_clusters(model, reduced, ious, k_err=2, seed=28)
        far = _blobs(rng, [(30, -20), (-25, 30)], 20, stddev=1.0)
        ft = model.augment(np.vstack([reduced[::2], far]), np.full(115, 0.7))
        report = detect_orphans(model, ft, k_ft=8, seed=29)

        centres, labels, _ = kmeans(ft, 8, seed=29)
        core = model.core_indices
        flags = np.array([
            all(np.sqrt(((c - model.centroids[j]) ** 2).sum()) > model.p95_radius[j] for j in core)
            for c in centres
        ])
        sizes = np.bincount(labels, minlength=8)
        assert 0 < flags.sum() < 8
        assert report.orphan_clusters == tuple(sizes[flags].tolist())
        expected = np.where(flags[labels], sizes[labels] / sizes[flags].max(), 0.0)
        assert report.orph_weight.tolist() == expected.tolist()

    def test_determinism(self):
        rng = np.random.default_rng(17)
        model, reduced, ious = self._core_model(rng)
        ft = model.augment(reduced, ious)
        a = detect_orphans(model, ft, k_ft=3, seed=21)
        b = detect_orphans(model, ft, k_ft=3, seed=21)
        np.testing.assert_array_equal(a.orph_weight, b.orph_weight)
        np.testing.assert_array_equal(a.err_weight, b.err_weight)


class TestClusterPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        reduced = _blobs(rng, [(0, 0), (6, 6)], 40)
        ious = rng.uniform(0.2, 0.9, 80)
        model = fit_core_clusters(reduced, ious, k=3, seed=22)
        model = fit_error_clusters(model, reduced, ious, seed=23)
        save_clusters(model, tmp_path / "c.bin")
        loaded = load_clusters(tmp_path / "c.bin")
        assert np.array_equal(loaded.is_error, model.is_error)
        assert np.array_equal(loaded.member_count, model.member_count)
        np.testing.assert_allclose(loaded.centroids, model.centroids, atol=1e-5)
        np.testing.assert_allclose(loaded.p95_radius, model.p95_radius, atol=1e-5)
