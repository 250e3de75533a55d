"""Outlier probability scores against an independent scalar implementation."""

import math

import numpy as np
import pytest

from samplerank.loop import fit_loop


def _scalar_plof(points, k_nn, lam):
    """Straightforward pure-Python evaluation of PLOF per point and of nPLOF.

    Kept deliberately naive (nested loops, no shared code with the library)
    so it can serve as an independent cross-check.
    """
    points = [list(map(float, p)) for p in points]
    n = len(points)

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    neighbours = []
    for i in range(n):
        order = sorted((dist(points[i], points[j]), j) for j in range(n) if j != i)
        neighbours.append([j for _, j in order[:k_nn]])

    pdist = []
    for i in range(n):
        ssq = sum(dist(points[i], points[j]) ** 2 for j in neighbours[i])
        pdist.append(lam * math.sqrt(ssq / k_nn))

    plof = []
    for i in range(n):
        expected = sum(pdist[j] for j in neighbours[i]) / k_nn
        plof.append(pdist[i] / expected - 1.0 if expected > 0 else 0.0)

    nplof = lam * math.sqrt(sum(p * p for p in plof) / n)
    return plof, nplof


def _scalar_loop_oracle(points, k_nn, lam):
    """Scores from the naive PLOF and nPLOF above."""
    plof, nplof = _scalar_plof(points, k_nn, lam)
    if nplof == 0:
        return [0.0] * len(plof)
    return [max(0.0, math.erf(p / (nplof * math.sqrt(2.0)))) for p in plof]


def _grid_with_outlier():
    grid = np.array([[i, j] for i in range(10) for j in range(10)], dtype=float)
    return np.vstack([grid, [[180.0, 180.0]]])  # 20x the grid span away


class TestDegenerateInputs:
    def test_identical_points_score_zero(self):
        np.testing.assert_array_equal(fit_loop(np.ones((12, 3)), k_nn=4), 0.0)
        assert _scalar_plof(np.ones((12, 3)), k_nn=4, lam=3.0)[1] == 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="k_nn"):
            fit_loop(np.random.default_rng(0).normal(size=(5, 2)), k_nn=5)

    def test_non_finite_rejected(self):
        pts = np.ones((6, 2))
        pts[3, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_loop(pts, k_nn=2)

    def test_lambda_positive(self):
        with pytest.raises(ValueError, match="lambda"):
            fit_loop(np.random.default_rng(0).normal(size=(6, 2)), k_nn=2, lam=0.0)


class TestPlantedOutlierFixture:
    def setup_method(self):
        self.points = _grid_with_outlier()
        self.scores = fit_loop(self.points, k_nn=10, lam=3.0)

    def test_matches_independent_scalar_implementation(self):
        oracle = _scalar_loop_oracle(self.points, k_nn=10, lam=3.0)
        np.testing.assert_allclose(self.scores, oracle, atol=1e-9)

    def test_outlier_scores_high(self):
        assert self.scores[100] > 0.95

    def test_grid_median_scores_low(self):
        assert float(np.median(self.scores[:100])) < 0.3

    def test_scores_in_unit_interval(self):
        scores = self.scores
        assert scores.shape == (101,)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_moving_the_outlier_farther_never_decreases_its_score(self):
        grid = self.points[:100]
        last = 0.0
        for span in (3, 6, 20, 60, 200):
            pts = np.vstack([grid, [[9.0 + span * 9.0, 9.0]]])
            score = fit_loop(pts, k_nn=10, lam=3.0)[100]
            assert score >= last - 1e-12
            last = score

    def test_translation_and_scaling_invariance_on_grid(self):
        # power-of-two factor and representable shift keep the grid's many
        # exact distance ties exact, so the tie-broken neighbourhoods match
        for factor, shift in ((2.0, 128.0), (0.5, -64.0)):
            moved = fit_loop(self.points * factor + shift, k_nn=10, lam=3.0)
            np.testing.assert_allclose(moved, self.scores, atol=1e-9)

    def test_translation_and_scaling_invariance_on_generic_cloud(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(120, 4))
        base = fit_loop(pts, k_nn=15, lam=3.0)
        for factor, shift in ((2.5, 100.0), (0.3, -40.0), (1742.0, 0.013)):
            moved = fit_loop(pts * factor + shift, k_nn=15, lam=3.0)
            np.testing.assert_allclose(moved, base, atol=1e-9)


class TestScoreFormula:
    def test_point_matching_neighbourhood_density_scores_zero(self):
        # symmetric line: the centre point's pdist equals its neighbours' mean
        pts = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
        plof, _ = _scalar_plof(pts, k_nn=2, lam=3.0)
        assert plof[2] == pytest.approx(0.0, abs=1e-12)
        assert fit_loop(pts, k_nn=2, lam=3.0)[2] == 0.0

    def test_erf_at_one_sigma_of_plof(self):
        # any point whose PLOF equals nPLOF must score erf(1/sqrt(2))
        rng = np.random.default_rng(1)
        _, nplof = _scalar_plof(rng.normal(size=(200, 2)), k_nn=10, lam=3.0)
        target = math.erf(1.0 / math.sqrt(2.0))
        assert target == pytest.approx(0.6826894921, abs=1e-7)
        synthetic = max(0.0, math.erf(nplof / (nplof * math.sqrt(2.0))))
        assert synthetic == pytest.approx(target, abs=1e-12)

    def test_erf_against_tabulated_values(self):
        table = {
            0.0: 0.0,
            0.5: 0.5204998778,
            1.0: 0.8427007929,
            1.5: 0.9661051465,
            2.0: 0.9953222650,
        }
        for x, expected in table.items():
            assert math.erf(x) == pytest.approx(expected, abs=1e-7)

    def test_negative_plof_clamps_to_zero(self):
        plof = np.array(_scalar_plof(_grid_with_outlier(), k_nn=10, lam=3.0)[0])
        scores = fit_loop(_grid_with_outlier(), k_nn=10)
        assert np.any(plof < 0)
        assert np.all(scores[plof < 0] == 0.0)

    def test_index_out_of_range(self):
        scores = fit_loop(np.random.default_rng(2).normal(size=(10, 2)), k_nn=3)
        assert scores.shape == (10,)
        with pytest.raises(IndexError):
            scores[10]

    def test_random_cloud_matches_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 3))
        scores = fit_loop(pts, k_nn=7, lam=2.0)
        oracle = _scalar_loop_oracle(pts, k_nn=7, lam=2.0)
        np.testing.assert_allclose(scores, oracle, atol=1e-9)
