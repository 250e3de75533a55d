"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criteria 1-3 run the full default benchmark (2200-sample pool, budgets
250..2150 step 100 plus the saturation budget, 20 seeds) once via a shared
fixture; the remaining criteria are self-contained. Run with ``pytest -s``
to see the per-criterion lines inline.
"""

import math
import time

import numpy as np
import pytest

from samplerank.cli import main
from samplerank.data import BinaryMask
from samplerank.harness import (
    ALL_STRATEGIES,
    STRATEGY_PRIORITY_BPS,
    STRATEGY_RANDOM,
    run_budget_sweep,
)
from samplerank.loop import fit_loop
from samplerank.metrics import iou
from samplerank.pca import explained_variance_ratio, fit_pca, transform_batch
from samplerank.scoring import bps, mps
from samplerank.synthetic import default_spec

BUDGET_STEP = list(range(250, 2151, 100))


def _check(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({description}): {status}{suffix}")
    assert ok, f"criterion {number} ({description}) failed{suffix}"


@pytest.fixture(scope="module")
def default_sweep():
    spec = default_spec(seed=42)
    budgets = BUDGET_STEP + [spec.ft_n]
    start = time.perf_counter()
    result = run_budget_sweep(spec, budgets=budgets, strategies=ALL_STRATEGIES, n_seeds=20)
    elapsed = time.perf_counter() - start
    return spec, result, elapsed


def test_criterion_1_scarcity_advantage(default_sweep):
    spec, result, elapsed = default_sweep
    gaps = {
        b: result.mean(STRATEGY_PRIORITY_BPS, b) - result.mean(STRATEGY_RANDOM, b)
        for b in BUDGET_STEP
    }
    nonneg_small_budgets = all(gaps[b] >= 0.0 for b in BUDGET_STEP if b <= 550)
    strict_at_start = gaps[250] >= 0.02 and gaps[350] >= 0.02
    fast_enough = elapsed < 120.0
    _check(
        1,
        "scarcity advantage of priority_bps over random",
        nonneg_small_budgets and strict_at_start and fast_enough,
        f"gap@250={gaps[250]:+.4f}, gap@350={gaps[350]:+.4f}, "
        f"gap@450={gaps[450]:+.4f}, gap@550={gaps[550]:+.4f}, runtime={elapsed:.1f}s",
    )


def test_criterion_2_stability(default_sweep):
    _spec, result, _elapsed = default_sweep
    std_priority = result.stddev(STRATEGY_PRIORITY_BPS, 250)
    std_random = result.stddev(STRATEGY_RANDOM, 250)
    _check(
        2,
        "priority quality varies less than random at budget 250",
        std_priority <= 0.5 * std_random,
        f"std_bps={std_priority:.5f}, std_random={std_random:.5f}",
    )


def test_criterion_3_saturation(default_sweep):
    spec, result, _elapsed = default_sweep
    values = [result.mean(s, spec.ft_n) for s in ALL_STRATEGIES]
    spread = max(values) - min(values)
    _check(3, "full-pool selection equalises all strategies", spread <= 1e-12, f"spread={spread:g}")


def test_criterion_4_iou_oracle_equivalence():
    rng = np.random.default_rng(42)

    def brute_force(a, b):
        inter = over = 0
        for y in range(a.height):
            for x in range(a.width):
                inter += bool(a.bits[y][x]) and bool(b.bits[y][x])
                over += bool(a.bits[y][x]) or bool(b.bits[y][x])
        return 1.0 if over == 0 else inter / over

    ok = True
    for _ in range(200):
        bits_a = rng.random((16, 16)) < rng.uniform(0.05, 0.95)
        bits_b = rng.random((16, 16)) < rng.uniform(0.05, 0.95)
        a = BinaryMask(16, 16, bits_a)
        b = BinaryMask(16, 16, bits_b)
        ok &= iou(a, b) == brute_force(a, b)
        ok &= iou(a, b) == iou(b, a)
        ok &= iou(a, a) == 1.0
    _check(4, "mask IoU matches brute-force pixel counting on 200 pairs", ok)


def test_criterion_5_pca_properties():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(400, 10)) * rng.uniform(0.3, 2.5, size=10)
    model = fit_pca(x, r=10)

    residual = np.max(np.abs(model.components @ model.components.T - np.eye(10)))
    ratios = explained_variance_ratio(model)
    nonincreasing = bool(np.all(np.diff(ratios) <= 1e-12))

    pts = rng.normal(size=(100, 10))
    proj = transform_batch(model, pts)
    d_before = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    d_after = np.sqrt(((proj[:, None] - proj[None, :]) ** 2).sum(-1))
    distance_error = float(np.max(np.abs(d_after - d_before)))

    _check(
        5,
        "reduction orthonormality, ratio ordering, isometry at full rank",
        residual < 1e-6 and nonincreasing and distance_error < 1e-5,
        f"residual={residual:.2e}, max distance error={distance_error:.2e}",
    )


def test_criterion_6_loop_fixture():
    grid = np.array([[i, j] for i in range(10) for j in range(10)], dtype=float)
    points = np.vstack([grid, [[180.0, 180.0]]])
    scores = fit_loop(points, k_nn=10, lam=3.0)

    outlier_high = scores[100] > 0.95
    grid_median_low = float(np.median(scores[:100])) < 0.3
    in_range = bool(np.all((scores >= 0.0) & (scores <= 1.0)))

    invariant = True
    for factor, shift in ((2.0, 128.0), (0.5, -64.0)):
        moved = fit_loop(points * factor + shift, k_nn=10, lam=3.0)
        invariant &= bool(np.max(np.abs(moved - scores)) <= 1e-9)

    _check(
        6,
        "outlier probability fixture and transform invariance",
        outlier_high and grid_median_low and in_range and invariant,
        f"outlier={scores[100]:.4f}, grid median={np.median(scores[:100]):.4f}",
    )


def test_criterion_7_score_formulas():
    exact = (
        bps(1.0, 0.0) == 1.0
        and bps(0.0, 1.0) == 0.0
        and math.isclose(bps(0.4, 0.8), 0.35, abs_tol=1e-12)
    )

    rng = np.random.default_rng(44)
    suppressed = all(
        mps(*rng.uniform(size=4), loop=1.0) == 0.0 for _ in range(100)
    )
    in_range = True
    for _ in range(10_000):
        orph, err, dist, pred, lp = rng.uniform(size=5)
        in_range &= 0.0 <= bps(dist, pred) <= 1.0
        in_range &= 0.0 <= mps(orph, err, dist, pred, lp) <= 1.0

    monotone = True
    for _ in range(300):
        orph, err, dist, pred, lp = rng.uniform(0.05, 0.95, size=5)
        eps = 0.04
        monotone &= bps(dist + eps, pred) >= bps(dist, pred)
        monotone &= bps(dist, pred + eps) <= bps(dist, pred)
        base = mps(orph, err, dist, pred, lp)
        monotone &= mps(orph + eps, err, dist, pred, lp) >= base
        monotone &= mps(orph, err + eps, dist, pred, lp) >= base
        monotone &= mps(orph, err, dist + eps, pred, lp) >= base
        monotone &= mps(orph, err, dist, pred + eps, lp) <= base
        monotone &= mps(orph, err, dist, pred, lp + eps) <= base

    _check(
        7,
        "priority formula values, range, and monotonicity",
        exact and suppressed and in_range and monotone,
    )


def test_criterion_8_simulation_determinism(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "seed = 42\n"
        "sim.core_n = 300\n"
        "sim.ft_n = 320\n"
        "sim.novel_sizes = 20,40\n"
        "sim.n_seeds = 2\n"
        "sim.budgets = 50:300:50\n"
    )
    for sub in ("one", "two"):
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path / sub), "simulate"])
        assert code == 0
    first = (tmp_path / "one" / "sweep.csv").read_bytes()
    second = (tmp_path / "two" / "sweep.csv").read_bytes()
    _check(
        8,
        "repeated simulate runs emit byte-identical sweep.csv",
        first == second,
        f"{len(first)} bytes",
    )
