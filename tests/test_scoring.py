"""Priority formulas, ranking, and the queue export."""

import csv

import numpy as np
import pytest

from samplerank import scoring
from samplerank.config import Config, ConfigError
from samplerank.scoring import (
    Scores,
    bps,
    mps,
    rank,
    score_all,
    write_queue_csv,
)


class TestWeights:
    def test_defaults_are_valid(self):
        c = Config()
        assert c.bps_a == 0.75 and c.mps_d == 0.05

    def test_bps_sum_enforced(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            Config(bps_a=0.8, bps_b=0.25)

    def test_mps_sum_enforced(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            Config(mps_a=0.5, mps_b=0.25, mps_c=0.2, mps_d=0.1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            Config(bps_a=1.25, bps_b=-0.25)


class TestBasicScore:
    def test_maximum_case(self):
        assert bps(1.0, 0.0) == 1.0

    def test_minimum_case(self):
        assert bps(0.0, 1.0) == 0.0

    def test_hand_value_with_default_coefficients(self):
        assert bps(0.4, 0.8) == pytest.approx(0.35)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            bps(1.2, 0.5)
        with pytest.raises(ValueError, match="outside"):
            bps(0.5, -0.1)


class TestMultipartyScore:
    def test_full_outlier_suppression(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            orph, err, dist, pred = rng.uniform(size=4)
            assert mps(orph, err, dist, pred, loop=1.0) == 0.0

    def test_hand_value_with_default_coefficients(self):
        assert mps(1.0, 0.0, 1.0, 0.0, 0.0) == pytest.approx(0.75)

    def test_only_iou_term_fires_on_zero_features(self):
        assert mps(0.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.05)

    def test_range_over_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            orph, err, dist, pred, lp = rng.uniform(size=5)
            value = mps(orph, err, dist, pred, lp)
            basic = bps(dist, pred)
            assert 0.0 <= value <= 1.0 and 0.0 <= basic <= 1.0

    def test_monotonicity_by_pairwise_perturbation(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            orph, err, dist, pred, lp = rng.uniform(0.05, 0.95, size=5)
            eps = 0.04
            base_b = bps(dist, pred)
            base_m = mps(orph, err, dist, pred, lp)
            assert bps(dist + eps, pred) >= base_b
            assert bps(dist, pred + eps) <= base_b
            assert mps(orph + eps, err, dist, pred, lp) >= base_m
            assert mps(orph, err + eps, dist, pred, lp) >= base_m
            assert mps(orph, err, dist + eps, pred, lp) >= base_m
            assert mps(orph, err, dist, pred + eps, lp) <= base_m
            assert mps(orph, err, dist, pred, lp + eps) <= base_m


def _features(n, seed):
    """Random feature columns for ids 0..n-1."""
    rng = np.random.default_rng(seed)
    names = ("dist", "pred_iou", "loop", "orph", "err")
    return dict(ids=np.arange(n), **{name: rng.uniform(size=n) for name in names})


class TestScoreAll:
    def test_empty_input(self):
        scores = score_all([], [], [], [], [], [])
        assert len(scores) == 0
        assert scores.ids.dtype == np.uint64 and scores.bps.shape == (0,)

    def test_single_sample_is_recomputable(self):
        s = score_all(ids=[3], dist=[0.2], pred_iou=[0.6], loop=[0.1], orph=[0.5], err=[0.0])
        assert s.ids.tolist() == [3]
        assert s.bps.tolist() == [bps(0.2, 0.6)]
        assert s.mps.tolist() == [mps(0.5, 0.0, 0.2, 0.6, 0.1)]

    def test_columns_match_scalar_formula_calls_exactly(self):
        f = _features(200, seed=6)
        s = score_all(**f)
        for i in range(200):
            assert s.bps[i] == bps(float(f["dist"][i]), float(f["pred_iou"][i]))
            assert s.mps[i] == mps(*(float(f[n][i]) for n in ("orph", "err", "dist", "pred_iou", "loop")))

    def test_bps_ordering_follows_dist_when_other_features_equal(self):
        zeros = np.zeros(3)
        scores = score_all(ids=[0, 1, 2], dist=[0.1, 0.9, 0.5], pred_iou=np.full(3, 0.5),
                           loop=zeros, orph=zeros, err=zeros)
        assert rank(scores, "bps") == [1, 2, 0]

    def test_missing_feature_rejected(self):
        zeros = np.zeros(1)
        with pytest.raises(ValueError, match=r"sample 0: dist=nan outside \[0,1\]"):
            score_all(ids=[0], dist=[np.nan], pred_iou=[0.5], loop=zeros, orph=zeros, err=zeros)

    def test_first_bad_sample_is_named(self):
        f = _features(3, seed=7)
        f["ids"] = np.array([7, 8, 9])
        f["loop"][1:] = [1.5, 0.5]
        f["dist"][2] = -1.0
        with pytest.raises(ValueError, match=r"sample 8: loop=1.5 outside"):
            score_all(**f)

    def test_features_are_checked_once(self, monkeypatch):
        calls, check = [], scoring._check_unit
        monkeypatch.setattr(scoring, "_check_unit", lambda *a, **kw: calls.append(kw) or check(*a, **kw))
        score_all(**_features(5, seed=9))
        assert [sorted(kw) for kw in calls] == [["dist", "err", "loop", "orph", "pred_iou"]]

    def test_columns_are_read_only_and_equal_length(self):
        s = score_all(**_features(4, seed=8))
        with pytest.raises(ValueError):
            s.bps[0] = 0.0
        with pytest.raises(ValueError, match="shape"):
            Scores(ids=[1, 2], dist=[0.0], pred_iou=[0.0, 0.0], loop=[0.0, 0.0],
                   orph=[0.0, 0.0], err=[0.0, 0.0], bps=[0.0, 0.0], mps=[0.0, 0.0])


def _scores(values: dict[int, float]) -> Scores:
    n = len(values)
    bps_values = np.array(list(values.values()), dtype=np.float64)
    return Scores(ids=list(values), dist=np.zeros(n), pred_iou=np.ones(n), loop=np.zeros(n),
                  orph=np.zeros(n), err=np.zeros(n), bps=bps_values, mps=bps_values / 2)


class TestRank:
    def test_ties_break_by_ascending_id(self):
        assert rank(_scores({1: 0.9, 2: 0.9, 3: 0.1}), "bps") == [1, 2, 3]

    def test_increasing_scores_reverse_id_order(self):
        assert rank(_scores({0: 0.1, 1: 0.2, 2: 0.3}), "bps") == [2, 1, 0]

    def test_input_permutation_irrelevant(self):
        values = {i: float(v) for i, v in enumerate([0.3, 0.9, 0.1, 0.5])}
        shuffled = {i: values[i] for i in (2, 0, 3, 1)}
        assert rank(_scores(values), "bps") == rank(_scores(shuffled), "bps")

    def test_strictly_increasing_transform_preserves_ranking(self):
        rng = np.random.default_rng(3)
        values = {i: float(v) for i, v in enumerate(rng.uniform(size=20))}
        base = rank(_scores(values), "bps")
        squashed = rank(_scores({i: v**3 * 0.9 for i, v in values.items()}), "bps")
        assert base == squashed

    def test_matches_sorted_reference_with_ties_and_large_ids(self):
        rng = np.random.default_rng(9)
        ids = [2**64 - 1 - int(k) for k in rng.permutation(500)]
        values = np.round(rng.uniform(size=500), 1)  # many exact ties
        ranked = rank(_scores(dict(zip(ids, values.tolist()))), "bps")
        assert ranked == sorted(ids, key=lambda i: (-values[ids.index(i)], i))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            rank(_scores({0: 0.5}), "entropy")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank(_scores({}), "bps")


class TestQueueCsv:
    def test_layout_and_determinism(self, tmp_path):
        scores = score_all(**_features(10, seed=5))
        write_queue_csv(scores, "bps", tmp_path / "a.csv")
        write_queue_csv(scores, "bps", tmp_path / "b.csv")
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert lines[0] == "rank,id,score,dist,pred_iou,loop,orph,err"
        assert len(lines) == 11
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ranks == list(range(1, 11))
        emitted = [float(line.split(",")[2]) for line in lines[1:]]
        assert emitted == sorted(emitted, reverse=True)

    def test_bytes_equal_a_csv_writer(self, tmp_path):
        """Header, CRLF line ends and nine significant digits, as ``csv.writer`` writes them."""
        f = _features(50, seed=10)
        f["ids"] = np.arange(50, dtype=np.uint64) + np.uint64(2**64 - 60)
        f["dist"][:4] = [0.0, 1.0, 1e-300, 0.1 + 0.2]
        scores = score_all(**f)
        for which in ("bps", "mps"):
            write_queue_csv(scores, which, tmp_path / "q.csv")
            order = np.lexsort((scores.ids, -getattr(scores, which)))
            with open(tmp_path / "ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["rank", "id", "score", "dist", "pred_iou", "loop", "orph", "err"])
                for position, i in enumerate(order, start=1):
                    values = [getattr(scores, n)[i] for n in (which, "dist", "pred_iou", "loop", "orph", "err")]
                    writer.writerow([position, int(scores.ids[i])] + [f"{float(x):.9g}" for x in values])
            assert (tmp_path / "q.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
