"""Degenerate inputs that the pipeline handles: tiny pools and cores, flat data, extreme ids.

Each case runs through ``compute_scores`` + ``write_queue_csv`` and through
CLI ``fit`` + ``rank`` on binary embedding files. The queue must hold every
pool id exactly once, ranked 1..n in non-increasing score order, with every
feature and score in [0,1].
"""

import csv

import numpy as np
import pytest

from samplerank.cli import main
from samplerank.data import Corpus, EmbeddingRecord, save_embeddings
from samplerank.pipeline import compute_scores
from samplerank.scoring import write_queue_csv

_TOP_ID = 2**64 - 1
_COLUMNS = ["rank", "id", "score", "dist", "pred_iou", "loop", "orph", "err"]


def _corpus(split, vectors, ious=None, ids=None):
    vectors = np.asarray(vectors, dtype=np.float32)
    ids = range(len(vectors)) if ids is None else ids
    ious = [None] * len(vectors) if ious is None else ious
    return Corpus(tuple(
        EmbeddingRecord(id=int(i), split=split, vector=v,
                        measured_iou=None if q is None else float(q))
        for i, v, q in zip(ids, vectors, ious)
    ))


def _case(name):
    rng = np.random.default_rng(17)
    dims = 1 if name == "dimension_1" else 3
    core_x = rng.normal(size=(40, dims))
    core_iou = rng.uniform(size=40)
    pool_x = rng.normal(size=(30, dims)) + 0.5
    core_ids = pool_ids = None
    if name == "pool_of_1":
        pool_x = pool_x[:1]
    elif name == "pool_of_2":
        pool_x = pool_x[:2]
    elif name == "identical_pool":
        pool_x = np.repeat(pool_x[:1], 12, axis=0)
    elif name == "core_of_1":
        core_x, core_iou = core_x[:1], core_iou[:1]
    elif name == "ious_all_high":
        core_iou = 0.6 + 0.4 * core_iou
    elif name == "ious_all_low":
        core_iou = 0.4 * core_iou
    elif name == "ids_near_2_64":
        core_ids = [_TOP_ID - 1000 - i for i in range(len(core_x))]
        pool_ids = [_TOP_ID - i for i in range(len(pool_x))]
    core = _corpus("core", core_x, core_iou, core_ids)
    pool = _corpus("finetune", pool_x, ids=pool_ids)
    return core, pool


CASES = [
    "pool_of_1",
    "pool_of_2",
    "identical_pool",
    "core_of_1",
    "ious_all_high",
    "ious_all_low",
    "dimension_1",
    "ids_near_2_64",
]


def _assert_valid_queue(path, pool):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == _COLUMNS
    body = rows[1:]
    assert [int(r[0]) for r in body] == list(range(1, len(pool) + 1))
    assert sorted(int(r[1]) for r in body) == sorted(pool.ids)
    values = np.array([[float(x) for x in r[2:]] for r in body])
    assert np.all((values >= 0.0) & (values <= 1.0)), values
    assert np.all(np.diff(values[:, 0]) <= 0.0)


@pytest.mark.parametrize("name", CASES)
def test_library_queue(name, tmp_path):
    core, pool = _case(name)
    scores = compute_scores(core, pool, seed=3)
    for strategy in ("bps", "mps"):
        path = tmp_path / f"{strategy}.csv"
        write_queue_csv(scores, strategy, path)
        _assert_valid_queue(path, pool)


@pytest.mark.parametrize("name", CASES)
def test_cli_queue(name, tmp_path, capsys):
    core, pool = _case(name)
    save_embeddings(core, tmp_path / "core.emb")
    save_embeddings(pool, tmp_path / "pool.emb")
    out = str(tmp_path / "out")
    pool_path = str(tmp_path / "pool.emb")
    assert main(["--out-dir", out, "fit", "--core", str(tmp_path / "core.emb"),
                 "--finetune", pool_path]) == 0, capsys.readouterr().err
    for strategy in ("bps", "mps"):
        assert main(["--out-dir", out, "rank", "--finetune", pool_path,
                     "--strategy", strategy]) == 0, capsys.readouterr().err
        _assert_valid_queue(tmp_path / "out" / "queue.csv", pool)
