"""Coverage oracle, budget sweep, and reporting."""

from dataclasses import replace

import numpy as np
import pytest

from samplerank.data import Corpus, EmbeddingRecord
from samplerank.harness import (
    ALL_STRATEGIES,
    STRATEGY_PRIORITY_BPS,
    STRATEGY_PRIORITY_MPS,
    STRATEGY_RANDOM,
    SweepResult,
    SweepRow,
    _coverage,
    export_scatter,
    read_sweep_csv,
    report,
    run_budget_sweep,
    surrogate_quality,
    write_sweep_csv,
)
from samplerank.synthetic import GroundTruth, NovelClusterSpec, default_spec, generate_synthetic


def _pool(vectors, first_id=0):
    records = tuple(
        EmbeddingRecord(id=first_id + i, split="finetune", vector=np.asarray(v, dtype=np.float32))
        for i, v in enumerate(vectors)
    )
    return Corpus(records)


def _truth(hidden, outliers=None):
    hidden = np.asarray(hidden)
    outliers = np.zeros(hidden.size, dtype=bool) if outliers is None else np.asarray(outliers)
    return GroundTruth(hidden_cluster_id=hidden, is_novel=np.zeros(hidden.size, dtype=bool),
                       is_outlier=outliers)


class TestSurrogateQuality:
    def test_entire_pool_scores_one(self):
        rng = np.random.default_rng(0)
        pool = _pool(rng.normal(size=(30, 3)))
        truth = _truth(rng.integers(0, 4, 30))
        assert surrogate_quality(pool.ids, pool, truth) == 1.0

    def test_one_label_per_separated_cluster_scores_one(self):
        rng = np.random.default_rng(1)
        vectors = np.vstack([c + 0.1 * rng.normal(size=(20, 2)) for c in ((0, 0), (50, 0), (0, 50))])
        pool = _pool(vectors)
        truth = _truth(np.repeat([0, 1, 2], 20))
        labeled = [pool.ids[0], pool.ids[20], pool.ids[40]]
        assert surrogate_quality(labeled, pool, truth) == 1.0

    def test_single_cluster_labels_cover_half_of_two_cluster_pool(self):
        rng = np.random.default_rng(2)
        vectors = np.vstack([c + 0.2 * rng.normal(size=(50, 2)) for c in ((0, 0), (40, 40))])
        pool = _pool(vectors)
        truth = _truth(np.repeat([0, 1], 50))
        labeled = pool.ids[:10]  # all from cluster 0
        assert surrogate_quality(labeled, pool, truth) == pytest.approx(0.5)

    def test_outliers_never_evaluated(self):
        vectors = [[0.0], [0.1], [500.0]]
        pool = _pool(vectors)
        truth = _truth([0, 0, -1], outliers=[False, False, True])
        assert surrogate_quality(pool.ids[:1], pool, truth) == 1.0

    def test_empty_selection_rejected(self):
        pool = _pool([[0.0]])
        with pytest.raises(ValueError, match="empty"):
            surrogate_quality([], pool, _truth([0]))

    def test_foreign_id_rejected(self):
        pool = _pool([[0.0]])
        with pytest.raises(ValueError, match="not in the fine-tuning pool"):
            surrogate_quality([999], pool, _truth([0]))

    def test_monotone_under_growing_selection_without_outliers(self):
        spec = replace(default_spec(seed=3), core_n=200, ft_n=260, outlier_fraction=0.0,
                       novel_clusters=(NovelClusterSpec(size=30),))
        _core, pool, truth = generate_synthetic(spec)
        rng = np.random.default_rng(4)
        order = rng.permutation(pool.ids)
        last = 0.0
        for n in (5, 20, 60, 120, 200, 260):
            quality = surrogate_quality(order[:n], pool, truth)
            assert quality >= last - 1e-12
            last = quality


def _direct_coverage(x, picked, truth):
    """One full distance matrix and argmin: the reference for the incremental tracker."""
    d2 = ((x[:, None, :] - x[picked][None, :, :]) ** 2).sum(axis=2)
    matches = truth.hidden_cluster_id[picked[d2.argmin(axis=1)]] == truth.hidden_cluster_id
    return float(matches[~truth.is_outlier].mean())


class TestCoverageTracker:
    def test_incremental_matches_direct_evaluation(self):
        spec = replace(default_spec(seed=5), core_n=150, ft_n=200,
                       novel_clusters=(NovelClusterSpec(size=15), NovelClusterSpec(size=25)))
        _core, pool, truth = generate_synthetic(spec)
        rng = np.random.default_rng(6)
        order = rng.permutation(len(pool))
        budgets = (10, 37, 90, 200)
        for budget, walked in zip(budgets, _coverage(pool.vectors(), truth, order, budgets)):
            direct = surrogate_quality([pool.ids[i] for i in order[:budget]], pool, truth)
            assert walked == direct == _direct_coverage(pool.vectors(), order[:budget], truth)


@pytest.fixture(scope="module")
def small_result():
    spec = replace(default_spec(seed=11), core_n=250, ft_n=300,
                   novel_clusters=(NovelClusterSpec(size=20), NovelClusterSpec(size=40)))
    return run_budget_sweep(spec, budgets=[50, 150, 300], n_seeds=2)


class TestBudgetSweep:

    def test_row_counts(self, small_result):
        assert len(small_result.rows) == 3 * 3 * 2  # strategies x budgets x seeds
        assert small_result.budgets() == [50, 150, 300]
        assert set(small_result.strategies()) == set(ALL_STRATEGIES)

    def test_saturated_budget_equalises_strategies(self, small_result):
        values = {s: small_result.mean(s, 300) for s in ALL_STRATEGIES}
        assert max(values.values()) - min(values.values()) <= 1e-12

    def test_deterministic(self):
        spec = replace(default_spec(seed=12), core_n=200, ft_n=240,
                       novel_clusters=(NovelClusterSpec(size=20),))
        a = run_budget_sweep(spec, budgets=[40, 240], n_seeds=1)
        b = run_budget_sweep(spec, budgets=[40, 240], n_seeds=1)
        assert a == b

    def test_budget_validation(self):
        spec = replace(default_spec(seed=13), core_n=100, ft_n=120,
                       novel_clusters=(NovelClusterSpec(size=10),))
        with pytest.raises(ValueError, match="budgets"):
            run_budget_sweep(spec, budgets=[200], n_seeds=1)
        with pytest.raises(ValueError, match="budget"):
            run_budget_sweep(spec, budgets=[], n_seeds=1)

    def test_unknown_strategy(self):
        spec = replace(default_spec(seed=14), core_n=100, ft_n=120,
                       novel_clusters=(NovelClusterSpec(size=10),))
        with pytest.raises(ValueError, match="unknown strategies"):
            run_budget_sweep(spec, budgets=[10], strategies=("grid",), n_seeds=1)

    def test_csv_round_trip(self, small_result, tmp_path):
        write_sweep_csv(small_result, tmp_path / "sweep.csv")
        loaded = read_sweep_csv(tmp_path / "sweep.csv")
        assert loaded.budgets() == small_result.budgets()
        for row_a, row_b in zip(loaded.rows, small_result.rows):
            assert row_a.strategy == row_b.strategy
            assert row_a.quality == row_b.quality

    def test_csv_writes_a_numpy_quality_as_a_plain_number(self, tmp_path):
        row = SweepRow(STRATEGY_RANDOM, 10, 1, np.float64(0.1))
        write_sweep_csv(SweepResult(rows=(row,)), tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text().splitlines()[1] == "random,10,1,0.1"


class TestReporting:
    def _result(self):
        rows = []
        for budget, (qb, qr) in {100: (0.9, 0.8), 200: (0.95, 0.97)}.items():
            rows.append(SweepRow(STRATEGY_PRIORITY_BPS, budget, 1, qb))
            rows.append(SweepRow(STRATEGY_PRIORITY_MPS, budget, 1, qb - 0.05))
            rows.append(SweepRow(STRATEGY_RANDOM, budget, 1, qr))
        return SweepResult(rows=tuple(rows))

    @staticmethod
    def _summary(result, tmp_path):
        report(result, tmp_path)
        return (tmp_path / "summary.txt").read_text()

    def test_summary_names_largest_winning_budget(self, tmp_path):
        text = self._summary(self._result(), tmp_path)
        assert "largest budget with priority_bps >= random: 100" in text

    def test_positive_differences_in_early_rows(self, tmp_path):
        text = self._summary(self._result(), tmp_path)
        row_100 = next(line for line in text.splitlines() if line.strip().startswith("100"))
        assert "+0.1000" in row_100

    def test_single_cell_result(self, tmp_path):
        result = SweepResult(rows=(SweepRow(STRATEGY_RANDOM, 10, 0, 0.5),))
        text = self._summary(result, tmp_path)
        assert "10" in text and "0.5" in text

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            self._summary(SweepResult(rows=()), tmp_path)

    def test_report_writes_summary_and_aggregates(self, tmp_path):
        report(self._result(), tmp_path)
        assert (tmp_path / "summary.txt").read_text().startswith(" ")
        header = (tmp_path / "aggregates.csv").read_text().splitlines()[0]
        assert header.startswith("budget,mean_priority_bps,std_priority_bps")
        assert header.endswith("diff_bps_minus_random")


class TestScatterExport:
    def test_layout_and_determinism(self, tmp_path):
        rng = np.random.default_rng(20)
        xy = rng.normal(size=(10, 2))
        ious = rng.uniform(size=10)
        ids = list(range(10))
        splits = ["core"] * 6 + ["finetune"] * 4
        export_scatter(ids, xy, ious, splits, tmp_path / "a.csv")
        export_scatter(ids, xy, ious, splits, tmp_path / "b.csv")
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert lines[0] == "id,x,y,iou,split"
        assert len(lines) == 11
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for line in lines[1:]:
            iou_value = float(line.split(",")[3])
            assert 0.0 <= iou_value <= 1.0

    def test_requires_two_components(self, tmp_path):
        with pytest.raises(ValueError, match="two-component"):
            export_scatter([0], np.ones((1, 3)), [0.5], ["core"], tmp_path / "x.csv")
