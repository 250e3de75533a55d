"""Mask IoU against a brute-force oracle, and k-NN IoU prediction rules."""

import numpy as np
import pytest

from samplerank.data import BinaryMask
from samplerank.metrics import (
    IouPredictor,
    iou,
    load_predictor,
    predict_iou_batch,
    save_predictor,
)


def _predict_one(predictor, v):
    """One query at a time: stable sort of distances, inverse-distance weights."""
    dists = np.sqrt(((predictor.points - v) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")[: predictor.k]
    near, vals = dists[order], predictor.ious[order]
    if (near == 0.0).any():
        return float(vals[near == 0.0].mean())
    weights = 1.0 / near
    return float((weights * vals).sum() / weights.sum())


def _mask(bits):
    bits = np.asarray(bits, dtype=bool)
    return BinaryMask(width=bits.shape[1], height=bits.shape[0], bits=bits)


def _brute_force_iou(a: BinaryMask, b: BinaryMask) -> float:
    inter = over = 0
    for y in range(a.height):
        for x in range(a.width):
            if a.bits[y][x] and b.bits[y][x]:
                inter += 1
            if a.bits[y][x] or b.bits[y][x]:
                over += 1
    return 1.0 if over == 0 else inter / over


class TestMaskIou:
    def test_identical_masks(self):
        m = _mask(np.eye(4))
        assert iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = _mask([[1, 0], [0, 0]])
        b = _mask([[0, 0], [0, 1]])
        assert iou(a, b) == 0.0

    def test_hand_counted_overlap(self):
        # left 2 columns vs top 2 rows of a 4x4 grid: 4 / 12
        a = _mask([[1, 1, 0, 0]] * 4)
        b = _mask([[1] * 4, [1] * 4, [0] * 4, [0] * 4])
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty_scores_one(self):
        m = _mask(np.zeros((3, 3)))
        assert iou(m, m) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            iou(_mask(np.zeros((2, 2))), _mask(np.zeros((2, 3))))

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = _mask(rng.random((16, 16)) < rng.uniform(0.05, 0.95))
            b = _mask(rng.random((16, 16)) < rng.uniform(0.05, 0.95))
            assert iou(a, b) == _brute_force_iou(a, b)
            assert iou(a, b) == iou(b, a)
            assert iou(a, a) == 1.0

    def test_monotone_under_agreed_pixel_growth(self):
        rng = np.random.default_rng(43)
        a_bits = rng.random((8, 8)) < 0.4
        b_bits = rng.random((8, 8)) < 0.4
        base = iou(_mask(a_bits), _mask(b_bits))
        off = np.flatnonzero(~(a_bits | b_bits).ravel())
        grown_a, grown_b = a_bits.copy().ravel(), b_bits.copy().ravel()
        grown_a[off[:5]] = grown_b[off[:5]] = True
        assert iou(_mask(grown_a.reshape(8, 8)), _mask(grown_b.reshape(8, 8))) >= base


class TestPredictorFit:
    def test_stores_references(self):
        p = IouPredictor(np.arange(10.0)[:, None], np.linspace(0, 1, 10), k=3)
        assert p.points.shape == (10, 1) and p.k == 3

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k=0"):
            IouPredictor(np.ones((10, 1)), np.ones(10), k=0)

    def test_k_beyond_reference_count_rejected(self):
        with pytest.raises(ValueError, match="k=11"):
            IouPredictor(np.ones((10, 1)), np.ones(10), k=11)

    def test_iou_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            IouPredictor(np.ones((3, 1)), np.array([0.2, 1.2, 0.5]), k=1)


class TestPrediction:
    def test_exact_match_returns_reference_value(self):
        p = IouPredictor(np.array([[0.0], [2.0], [5.0]]), np.array([0.3, 0.7, 0.9]), k=2)
        assert predict_iou_batch(p, np.array([[2.0]])).tolist() == [0.7]

    def test_equidistant_pair_averages(self):
        p = IouPredictor(np.array([[-1.0], [1.0]]), np.array([0.2, 0.8]), k=2)
        assert predict_iou_batch(p, np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_inverse_distance_weighting_hand_value(self):
        # refs at x=0 (iou 1) and x=3 (iou 0), query x=1: weights 1 and 1/2
        p = IouPredictor(np.array([[0.0], [3.0]]), np.array([1.0, 0.0]), k=2)
        assert predict_iou_batch(p, np.array([[1.0]]))[0] == pytest.approx(2 / 3)

    def test_result_bounded_by_neighbour_extremes(self):
        rng = np.random.default_rng(44)
        p = IouPredictor(rng.normal(size=(50, 3)), rng.uniform(size=50), k=5)
        values = predict_iou_batch(p, rng.normal(size=(100, 3)))
        assert values.shape == (100,)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_dimension_mismatch(self):
        p = IouPredictor(np.ones((4, 2)), np.full(4, 0.5), k=1)
        with pytest.raises(ValueError, match="dimension|shape"):
            predict_iou_batch(p, np.ones((1, 3)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(45)
        p = IouPredictor(rng.normal(size=(30, 4)), rng.uniform(size=30), k=5)
        queries = rng.normal(size=(25, 4))
        batch = predict_iou_batch(p, queries)
        single = np.array([_predict_one(p, q) for q in queries])
        np.testing.assert_allclose(batch, single, rtol=0, atol=0)

    def test_batch_handles_exact_matches(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        p = IouPredictor(pts, np.array([0.1, 0.9, 0.4]), k=2)
        out = predict_iou_batch(p, np.vstack([pts[1], [[0.5, 0.0]]]))
        assert out[0] == 0.9
        assert 0.1 < out[1] < 0.9


class TestPredictorPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(46)
        p = IouPredictor(rng.normal(size=(12, 3)), rng.uniform(size=12), k=4)
        save_predictor(p, tmp_path / "iou.bin")
        loaded = load_predictor(tmp_path / "iou.bin")
        assert loaded.k == 4
        np.testing.assert_allclose(loaded.points, p.points, atol=1e-6)
        np.testing.assert_allclose(loaded.ious, p.ious, atol=1e-6)
