"""Byte-level golden outputs of the CLI on small seeded instances.

The digests below pin the exact bytes of the ranked queues, the persisted
models, the budget sweep with its summary and aggregates, and the scatter
export. A refactor that claims identical behaviour must leave them
unchanged; a change that alters an output on purpose has to update the
digest and say why.
"""

import hashlib
from dataclasses import replace

import pytest

from samplerank.cli import main
from samplerank.data import save_embeddings
from samplerank.synthetic import NovelClusterSpec, default_spec, generate_synthetic

GOLDEN = {
    "pca.bin": "bd3fa0c742b55adb4beb7c3baad8f39c68a340338f5e8b0b1a04aaaa4ee17d64",
    "clusters.bin": "f8cea1d1147975f8ae3a773bdd1608ba36c9021ca97ab1fa9609db1bc4f1d26d",
    "iou_refs.bin": "6262829fd5bb64109deaa2e380de0b5dcc8601051f412f178b5c6d712b1597c8",
    "queue_bps.csv": "003c571b315bcff0de08c1adcee156fc86e7b209abdfa5470938fdfb51358f4a",
    "queue_mps.csv": "ac2d52559db5dc384f031ad6d2481e824295246213e07732caaa7f6e6b54627f",
    "sweep.csv": "497b101ddff09347ca9d83ce5af3d27729e5dedf0286a27515413066b698e719",
    "summary.txt": "a9d1a0c5f8f2806a214b9038b74346666db5a8201199e1aaa5747ed304ae3594",
    "aggregates.csv": "33184902a5162dea09e2960c4f819cf2276f9353b9c7569011992fd383e6f005",
    "scatter.csv": "2ac64532e3fa8f8e0618996dfa96480e36f595a56518588bcb298aa0cb59ecd2",
}

_SIM_CONFIG = """\
sim.core_n = 250
sim.ft_n = 300
sim.novel_sizes = 20,40
sim.n_seeds = 2
sim.budgets = 50:300:50
seed = 8
"""


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    spec = replace(default_spec(seed=13), core_n=300, ft_n=360,
                   novel_clusters=(NovelClusterSpec(size=25), NovelClusterSpec(size=45)))
    core, pool, _ = generate_synthetic(spec)
    save_embeddings(core, root / "core.emb")
    save_embeddings(pool, root / "pool.emb")

    models = root / "models"
    pool_path = str(root / "pool.emb")
    digests = {}
    assert main(["--seed", "5", "--out-dir", str(models), "fit",
                 "--core", str(root / "core.emb"), "--finetune", pool_path]) == 0
    for name in ("pca.bin", "clusters.bin", "iou_refs.bin"):
        digests[name] = _sha256(models / name)
    for strategy in ("bps", "mps"):
        assert main(["--seed", "5", "--out-dir", str(models), "rank",
                     "--finetune", pool_path, "--strategy", strategy]) == 0
        digests[f"queue_{strategy}.csv"] = _sha256(models / "queue.csv")

    config = root / "sim.cfg"
    config.write_text(_SIM_CONFIG)
    sim = root / "sim"
    assert main(["--config", str(config), "--out-dir", str(sim), "simulate"]) == 0
    assert main(["--config", str(config), "--out-dir", str(sim), "scatter"]) == 0
    for name in ("sweep.csv", "summary.txt", "aggregates.csv", "scatter.csv"):
        digests[name] = _sha256(sim / name)
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(outputs, name):
    assert outputs[name] == GOLDEN[name]
