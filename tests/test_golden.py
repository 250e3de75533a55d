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
    # qualities at round-trip precision (repr) since the 12-digit form lost the last bits
    "sweep.csv": "9ac9943d0f3a00ef4d42e20a97b86a70c3733c6fc087a2305720d937b6db07b1",
    "summary.txt": "a9d1a0c5f8f2806a214b9038b74346666db5a8201199e1aaa5747ed304ae3594",
    "aggregates.csv": "33184902a5162dea09e2960c4f819cf2276f9353b9c7569011992fd383e6f005",
    "scatter.csv": "2ac64532e3fa8f8e0618996dfa96480e36f595a56518588bcb298aa0cb59ecd2",
    # report --sweep on simulate's sweep.csv writes the bytes simulate wrote
    "report/summary.txt": "a9d1a0c5f8f2806a214b9038b74346666db5a8201199e1aaa5747ed304ae3594",
    "report/aggregates.csv": "33184902a5162dea09e2960c4f819cf2276f9353b9c7569011992fd383e6f005",
    # 32 dimensions at PCA rank 24: every distance in fit and rank adds 24 or 25 terms
    "rank-24/pca.bin": "6bf794072631ab73936922133eed705087107681861c0739ed3c84c3a847744c",
    "rank-24/clusters.bin": "41102ef1c6335ca46fbb311c87ac62eb6ee89648ac8fb62eb024baefa6c1f09f",
    "rank-24/iou_refs.bin": "bac9224f6ed6ae26e3632c7b7f0c45f2f7f8e2fe06569df4c24f784322ebcc54",
    "rank-24/queue_bps.csv": "01c8459369fe5e1a294b4ac623229f434204740eac28d76ce72f3385d9e77f7c",
    "rank-24/queue_mps.csv": "c358ba1de397d1fa4b681ec55c5d1cfb2879e0025069c0aa10958904c1b1cb77",
    # the small instance fitted on the core alone; recorded from the former
    # `pca.fit = core` option with the pool given, now a fit with no pool
    "core-only/pca.bin": "ce4005d9d35b844f58b58186deecf4eb6e9066d1135508861ca3d6b0fb9e8a2b",
    "core-only/clusters.bin": "e0a41df608f7ad512763e0fd0e1989e5447672281cc934b3f6d10cf9fcb1feb2",
    "core-only/iou_refs.bin": "9ba2668efaa32a30ee119ca62b5d47160a0271def951d7e7a76d4438c5d43371",
    "core-only/queue_bps.csv": "bc24fc9d867f0162e0096bf0d910f28065aeae224fe9c9b2380c9ec85bc0d1e6",
    "core-only/queue_mps.csv": "7e4a6f5aac6a24450cc832af2dd8fa3562cc139dafa28e3fe13d0dc1c8af04d1",
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


def _fit_and_rank(root, spec, *options, pooled=True):
    """Digests of the model files of a fit and of the bps and mps queues ranked with them.

    The fit is given the pool unless *pooled* is false; ranking always scores it.
    """
    root.mkdir()
    core, pool, _ = generate_synthetic(spec)
    save_embeddings(core, root / "core.emb")
    save_embeddings(pool, root / "pool.emb")

    models = root / "models"
    pool_path = str(root / "pool.emb")
    run = [*options, "--seed", "5", "--out-dir", str(models)]
    fit_pool = ["--finetune", pool_path] if pooled else []
    assert main([*run, "fit", "--core", str(root / "core.emb"), *fit_pool]) == 0
    digests = {name: _sha256(models / name) for name in ("pca.bin", "clusters.bin", "iou_refs.bin")}
    for strategy in ("bps", "mps"):
        assert main([*run, "rank", "--finetune", pool_path, "--strategy", strategy]) == 0
        digests[f"queue_{strategy}.csv"] = _sha256(models / "queue.csv")
    return digests


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    spec = replace(default_spec(seed=13), core_n=300, ft_n=360,
                   novel_clusters=(NovelClusterSpec(size=25), NovelClusterSpec(size=45)))
    digests = _fit_and_rank(root / "small", spec)
    for name, digest in _fit_and_rank(root / "core-only", spec, pooled=False).items():
        digests[f"core-only/{name}"] = digest

    config = root / "rank-24.cfg"
    config.write_text("pca.components = 24\n")
    spec = replace(default_spec(seed=13, dims=32), core_n=600, ft_n=700,
                   novel_clusters=(NovelClusterSpec(size=40), NovelClusterSpec(size=60)))
    for name, digest in _fit_and_rank(root / "rank-24", spec, "--config", str(config)).items():
        digests[f"rank-24/{name}"] = digest

    config = root / "sim.cfg"
    config.write_text(_SIM_CONFIG)
    sim = root / "sim"
    assert main(["--config", str(config), "--out-dir", str(sim), "simulate"]) == 0
    assert main(["--config", str(config), "--out-dir", str(sim), "scatter"]) == 0
    for name in ("sweep.csv", "summary.txt", "aggregates.csv", "scatter.csv"):
        digests[name] = _sha256(sim / name)
    assert main(["--out-dir", str(root / "report"), "report", "--sweep", str(sim / "sweep.csv")]) == 0
    for name in ("summary.txt", "aggregates.csv"):
        digests[f"report/{name}"] = _sha256(root / "report" / name)
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(outputs, name):
    assert outputs[name] == GOLDEN[name]


def _spec_variants():
    small = replace(default_spec(seed=13), core_n=300, ft_n=360,
                    novel_clusters=(NovelClusterSpec(size=25), NovelClusterSpec(size=45)))
    three_d = default_spec(seed=23, dims=3)
    return {
        "small-default": small,
        "no-novel-no-outliers": replace(small, seed=21, novel_clusters=(), outlier_fraction=0.0),
        "no-base-pool": replace(small, seed=22, ft_n=75, outlier_fraction=0.2,
                                novel_clusters=(NovelClusterSpec(size=20), NovelClusterSpec(size=40))),
        "3d-two-base-modes": replace(
            three_d, core_n=240, ft_n=280,
            core_clusters=tuple(replace(c, finetune_weight=w)
                                for c, w in zip(three_d.core_clusters, (0.7, 0.0, 0.3, 0.0))),
        ),
    }


GENERATOR_GOLDEN = {
    "small-default": "5060d4e6b2f7caa7587763506a5729de1f35a27e198bdf92272883330a315683",
    "no-novel-no-outliers": "61f78ed9d372bb97f74573ecce90a782089a8f62d6ad20446562a8c453242fef",
    "no-base-pool": "6906ee8ac9ec50e15a10dd177929569953a054165dd013176cac8b62aa107451",
    "3d-two-base-modes": "e99568bc1ea12bbd17723246934f951f09c6d2ff43b2186089875b1fcda49505",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_GOLDEN))
def test_generator_bytes_match_golden(tmp_path, name):
    """Both saved corpora and the three truth arrays of generate_synthetic, hashed together."""
    core, pool, truth = generate_synthetic(_spec_variants()[name])
    digest = hashlib.sha256()
    for label, corpus in (("core", core), ("pool", pool)):
        save_embeddings(corpus, tmp_path / label)
        digest.update((tmp_path / label).read_bytes())
    for column in (truth.hidden_cluster_id, truth.is_novel, truth.is_outlier):
        digest.update(column.tobytes())
    assert digest.hexdigest() == GENERATOR_GOLDEN[name]
