"""Command-line workflows: fit, rank, simulate, scatter, report."""

import os
import struct

import numpy as np
import pytest

from samplerank.cli import main
from samplerank.clustering import load_clusters
from samplerank.data import Corpus, EmbeddingRecord, load_embeddings, save_embeddings
from samplerank.pca import load_pca
from samplerank.synthetic import NovelClusterSpec, default_spec, generate_synthetic
from dataclasses import replace


@pytest.fixture(scope="module")
def embedding_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("emb")
    spec = replace(default_spec(seed=31), core_n=250, ft_n=300,
                   novel_clusters=(NovelClusterSpec(size=20), NovelClusterSpec(size=40)))
    core, ft, _ = generate_synthetic(spec)
    save_embeddings(core, root / "core.emb", "binary")
    save_embeddings(ft, root / "ft.emb", "binary")
    return root / "core.emb", root / "ft.emb"


# every config key of a float setting
FLOAT_KEYS = [
    "pca.variance_threshold", "cluster.iou_weight", "loop.lambda",
    "coeff.bps_a", "coeff.bps_b", "coeff.mps_a", "coeff.mps_b", "coeff.mps_c", "coeff.mps_d",
    "sim.outlier_fraction", "sim.novel_stddev",
]


def _sim_config(tmp_path, name="sim.cfg", **extra):
    lines = [
        "sim.core_n = 250",
        "sim.ft_n = 300",
        "sim.novel_sizes = 20,40",
        "sim.n_seeds = 2",
        "sim.budgets = 50:300:50",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _pool_of_dimension(dim, n=30):
    rng = np.random.default_rng(0)
    return Corpus(tuple(
        EmbeddingRecord(id=i, split="finetune", vector=rng.normal(size=dim).astype(np.float32))
        for i in range(n)
    ))


class TestFitAndRank:
    def test_fit_writes_three_model_files(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        code = main(["--out-dir", str(tmp_path), "fit", "--core", str(core), "--finetune", str(ft)])
        assert code == 0
        for name in ("pca.bin", "clusters.bin", "iou_refs.bin"):
            assert (tmp_path / name).exists()
        err = capsys.readouterr().err
        assert "explained variance" in err and "clusters" in err

    def test_fit_is_deterministic_across_reruns(self, embedding_files, tmp_path):
        core, ft = embedding_files
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--out-dir", str(out), "fit", "--core", str(core), "--finetune", str(ft)]) == 0
            blobs.append(b"".join((out / n).read_bytes() for n in ("pca.bin", "clusters.bin", "iou_refs.bin")))
        assert blobs[0] == blobs[1]

    def test_missing_core_file_exits_2_naming_path(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "fit", "--core", str(tmp_path / "absent.emb")])
        assert code == 2
        assert "absent.emb" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_or_directory_as_embeddings_exits_2_naming_it(self, tmp_path, capsys):
        os.mkfifo(tmp_path / "pipe.emb")  # never opened: opening a pipe with no writer would block
        (tmp_path / "dir.emb").mkdir()
        for name in ("pipe.emb", "dir.emb"):
            assert main(["--out-dir", str(tmp_path), "fit", "--core", str(tmp_path / name)]) == 2
            assert f"core embeddings file not found: {tmp_path / name}" in capsys.readouterr().err

    def test_rank_produces_full_queue(self, embedding_files, tmp_path):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core), "--finetune", str(ft)]) == 0
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 0
        lines = (tmp_path / "queue.csv").read_text().splitlines()
        assert lines[0] == "rank,id,score,dist,pred_iou,loop,orph,err"
        assert len(lines) == 301

    def test_rank_with_both_strategies_covers_same_ids(self, embedding_files, tmp_path):
        core, ft = embedding_files
        main(["--out-dir", str(tmp_path), "fit", "--core", str(core), "--finetune", str(ft)])

        def ids(strategy):
            main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft), "--strategy", strategy])
            rows = (tmp_path / "queue.csv").read_text().splitlines()[1:]
            return sorted(int(r.split(",")[1]) for r in rows)

        assert ids("bps") == ids("mps")

    def test_dimension_mismatch_exits_2(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        main(["--out-dir", str(tmp_path), "fit", "--core", str(core), "--finetune", str(ft)])
        save_embeddings(_pool_of_dimension(5), tmp_path / "wrong.emb", "binary")
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(tmp_path / "wrong.emb")]) == 2
        assert f"{tmp_path / 'wrong.emb'}: dimension 5, expected 8" in capsys.readouterr().err

    def test_fit_pool_of_wrong_dimension_exits_2_naming_it(self, embedding_files, tmp_path, capsys):
        core, _ = embedding_files
        save_embeddings(_pool_of_dimension(5), tmp_path / "wrong.emb", "binary")
        args = ["--out-dir", str(tmp_path), "fit", "--core", str(core), "--finetune", str(tmp_path / "wrong.emb")]
        assert main(args) == 2
        assert f"{tmp_path / 'wrong.emb'}: dimension 5, expected 8" in capsys.readouterr().err

    def test_model_files_from_different_fits_exit_2_naming_them(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        cfg = tmp_path / "rank3.cfg"
        cfg.write_text("pca.components = 3\n")
        assert main(["--out-dir", str(tmp_path / "auto"), "fit", "--core", str(core)]) == 0
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "r3"), "fit", "--core", str(core)]) == 0
        (tmp_path / "auto" / "pca.bin").write_bytes((tmp_path / "r3" / "pca.bin").read_bytes())
        capsys.readouterr()
        assert main(["--out-dir", str(tmp_path / "auto"), "rank", "--finetune", str(ft)]) == 2
        err = capsys.readouterr().err
        dim = load_clusters(tmp_path / "auto" / "clusters.bin").reduced_dim
        assert load_pca(tmp_path / "auto" / "pca.bin").n_components == 3 != dim
        assert f"pca.bin has rank 3, {tmp_path / 'auto' / 'clusters.bin'} has dimension {dim}" in err
        assert not (tmp_path / "auto" / "queue.csv").exists()


    @pytest.mark.parametrize(
        "key, value, command, bound",
        [
            ("cluster.k", 500, "fit", 250),
            ("pca.components", 50, "fit", 8),
            ("cluster.k_err", 500, "fit", 18),  # 18 references lie below 0.5 IoU
            ("cluster.k_ft", 5000, "rank", 300),
        ],
    )
    def test_count_setting_above_the_data_exits_2_naming_key(
        self, embedding_files, tmp_path, capsys, key, value, command, bound
    ):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        cfg = tmp_path / "counts.cfg"
        cfg.write_text(f"{key} = {value}\n")
        files = {"fit": ["--core", str(core)], "rank": ["--finetune", str(ft)]}[command]
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path), command, *files]) == 2
        assert f"samplerank: error: {key} = {value} exceeds {bound}, the " in capsys.readouterr().err


class TestInputErrors:
    @pytest.mark.parametrize("name,header_size", [
        ("pca.bin", 12), ("clusters.bin", 12), ("iou_refs.bin", 16),
    ])
    def test_truncated_model_file_exits_2_naming_it(
        self, embedding_files, tmp_path, capsys, name, header_size
    ):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        blob = (tmp_path / name).read_bytes()
        for size in range(header_size + 1):
            (tmp_path / name).write_bytes(blob[:size])
            capsys.readouterr()
            assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 2, size
            assert name in capsys.readouterr().err, size

    # the second float of each file (after a 12- or 16-byte header), then its last float field:
    # the last eigenvalue, p95 radius (5 bytes per cluster before the end) and IoU
    @pytest.mark.parametrize("name,byte", [
        ("pca.bin", 16), ("clusters.bin", 16), ("iou_refs.bin", 20),
        ("pca.bin", 296), ("clusters.bin", 572), ("iou_refs.bin", 8012),
    ], ids=["pca.bin-12", "clusters.bin-12", "iou_refs.bin-16", "pca.bin-last", "clusters.bin-last",
            "iou_refs.bin-last"])
    def test_nan_in_model_payload_exits_2_naming_it(self, embedding_files, tmp_path, capsys, name, byte):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        blob = bytearray((tmp_path / name).read_bytes())
        blob[byte : byte + 4] = np.float32(np.nan).tobytes()
        (tmp_path / name).write_bytes(bytes(blob))
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 2
        assert f"{name}: non-finite value at byte {byte}" in capsys.readouterr().err

    # a negative last eigenvalue, a negative total variance, an IoU above 1: none is clamped on load
    @pytest.mark.parametrize("name,byte,value,message", [
        ("pca.bin", 296, -3.0, "eigenvalues must be nonnegative"),
        ("pca.bin", 12, -1.0, "total variance must be positive"),
        ("iou_refs.bin", 8012, 5.0, "reference IoUs must lie in [0,1]"),
    ], ids=["pca.bin-eigenvalue", "pca.bin-total-variance", "iou_refs.bin-iou"])
    def test_out_of_range_model_value_exits_2_naming_it(
        self, embedding_files, tmp_path, capsys, name, byte, value, message
    ):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        blob = bytearray((tmp_path / name).read_bytes())
        blob[byte : byte + 4] = np.float32(value).tobytes()
        (tmp_path / name).write_bytes(bytes(blob))
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 2
        assert f"{name}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "queue.csv").exists()

    def test_error_flag_other_than_0_or_1_exits_2_naming_it(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        path = tmp_path / "clusters.bin"
        blob = bytearray(path.read_bytes())
        first_flag = len(blob) - load_clusters(path).centroids.shape[0]
        blob[first_flag] = 7
        path.write_bytes(bytes(blob))
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 2
        assert f"clusters.bin: flag other than 0 or 1 at byte {first_flag}" in capsys.readouterr().err
        assert not (tmp_path / "queue.csv").exists()

    def test_pca_model_without_components_exits_2_naming_it(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        path = tmp_path / "pca.bin"
        d = load_pca(path).dimension
        blob = path.read_bytes()  # keep the total variance and the mean; r = 0 leaves nothing after them
        path.write_bytes(blob[:4] + struct.pack("<II", d, 0) + blob[12 : 12 + 4 * (1 + d)])
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 2
        assert "pca.bin: need at least one component" in capsys.readouterr().err

    def test_cluster_model_without_centroids_exits_2_naming_it(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        path = tmp_path / "clusters.bin"
        r = load_clusters(path).reduced_dim
        blob = path.read_bytes()  # keep the weight, mean and scale; k = 0 leaves nothing after them
        path.write_bytes(blob[:4] + struct.pack("<II", 0, r) + blob[12 : 12 + 4 * (1 + 2 * r)])
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 2
        assert "clusters.bin: need at least one centroid" in capsys.readouterr().err
        assert not (tmp_path / "queue.csv").exists()

    @pytest.mark.parametrize("name, content, message", [
        ("split_2.emb", b"EMB1" + struct.pack("<IIB", 0, 3, 2), "unknown split flag 2"),
        ("dimension_0.emb", b"EMB1" + struct.pack("<IIB", 0, 0, 0), "zero dimension in header"),
        ("columns.csv", b"id,split,iou,v1\n0,core,0.5,1.0\n", "malformed vector columns in header"),
        ("nan_iou.csv", b"id,split,iou,v0\n0,core,0.5,1.0\n1,core,nan,2.0\n",
         "record 1: measured_iou must lie in [0,1], got nan"),
    ], ids=["emb-split-flag", "emb-zero-dimension", "csv-vector-columns", "csv-nan-iou"])
    def test_bad_embeddings_file_exits_2_naming_it(self, tmp_path, capsys, name, content, message):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["--out-dir", str(tmp_path / "out"), "fit", "--core", str(path)]) == 2
        assert capsys.readouterr().err == f"samplerank: error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_core_split_pool_exits_2_naming_file_and_record(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        out = str(tmp_path)
        assert main(["--out-dir", out, "fit", "--core", str(core), "--finetune", str(core)]) == 2
        err = capsys.readouterr().err
        assert "core.emb" in err and "record 0" in err
        assert main(["--out-dir", out, "fit", "--core", str(core)]) == 0
        assert main(["--out-dir", out, "rank", "--finetune", str(core)]) == 2
        err = capsys.readouterr().err
        assert "core.emb" in err and "record 0" in err
        assert not (tmp_path / "queue.csv").exists()

    @pytest.mark.parametrize("pool", ["absent.emb", "bad.emb"])
    def test_fit_without_core_path_exits_1_whatever_the_pool(self, tmp_path, capsys, pool):
        (tmp_path / "bad.emb").write_bytes(b"EMB1" + struct.pack("<IIB", 0, 3, 2))
        assert main(["--out-dir", str(tmp_path / "out"), "fit", "--finetune", str(tmp_path / pool)]) == 1
        assert capsys.readouterr().err == "samplerank: config error: no core embeddings path configured\n"

    @pytest.mark.parametrize("pool", ["absent.emb", "bad.emb"])
    def test_fit_with_absent_core_exits_2_naming_it_whatever_the_pool(self, tmp_path, capsys, pool):
        (tmp_path / "bad.emb").write_bytes(b"EMB1" + struct.pack("<IIB", 0, 3, 2))
        core, pool = tmp_path / "core.emb", tmp_path / pool
        assert main(["--out-dir", str(tmp_path / "out"), "fit", "--core", str(core), "--finetune", str(pool)]) == 2
        assert capsys.readouterr().err == f"samplerank: error: core embeddings file not found: {core}\n"

    def test_fit_names_the_pool_when_both_files_hold_faults(self, embedding_files, tmp_path, capsys):
        _, ft = embedding_files  # a pool file given as the core: its first record has the wrong split
        pool = tmp_path / "bad.emb"
        pool.write_bytes(b"EMB1" + struct.pack("<IIB", 0, 3, 2))
        assert main(["--out-dir", str(tmp_path / "out"), "fit", "--core", str(ft), "--finetune", str(pool)]) == 2
        assert capsys.readouterr().err == f"samplerank: error: {pool}: unknown split flag 2\n"  # the pool is read first

    def test_finetune_split_core_exits_2_naming_file_and_record(self, embedding_files, tmp_path, capsys):
        _, ft = embedding_files
        first = load_embeddings(ft).records[0].id
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(ft)]) == 2
        err = capsys.readouterr().err
        assert f"{ft}: record 0 (id {first}) is a finetune record, expected core" in err
        assert not (tmp_path / "pca.bin").exists()

    def test_mixed_split_csv_pool_names_first_core_record(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        pool = load_embeddings(ft).records[:3] + load_embeddings(core).records[5:7]
        save_embeddings(Corpus(pool), tmp_path / "mixed.csv", "csv")
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(tmp_path / "mixed.csv")]) == 2
        err = capsys.readouterr().err
        assert "mixed.csv" in err and f"record 3 (id {pool[3].id})" in err

    @pytest.mark.parametrize("split", ["core", "finetune"])
    def test_header_only_csv_exits_2_naming_it(self, embedding_files, tmp_path, capsys, split):
        core, _ = embedding_files
        empty = tmp_path / "empty.csv"
        empty.write_text("id,split,iou,v0,v1,v2,v3,v4,v5,v6,v7\n")
        out = str(tmp_path)
        if split == "core":
            assert main(["--out-dir", out, "fit", "--core", str(empty)]) == 2
        else:
            assert main(["--out-dir", out, "fit", "--core", str(core)]) == 0
            assert main(["--out-dir", out, "rank", "--finetune", str(empty)]) == 2
        assert "empty.csv: no records" in capsys.readouterr().err

    def test_non_utf8_csv_exits_2_naming_file_and_line(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        pool = tmp_path / "pool.csv"
        save_embeddings(load_embeddings(ft), pool, "csv")
        lines = pool.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b",", b",\x81", 1)
        pool.write_bytes(b"\n".join(lines))
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(pool)]) == 2
        assert "pool.csv: line 4: not UTF-8" in capsys.readouterr().err


    @pytest.mark.parametrize("n_core, n_pool, message", [
        (1, 0, "need at least 2 vectors to fit"),
        (12, 0, "zero total variance: all vectors are identical"),
        (12, 9, "zero total variance: all vectors are identical"),
    ])
    def test_fit_data_error_exits_2_naming_the_fitted_files(self, tmp_path, capsys, n_core, n_pool, message):
        vector = np.full(4, 0.5, np.float32)
        core = Corpus(tuple(EmbeddingRecord(id=i, split="core", vector=vector, measured_iou=0.7)
                            for i in range(n_core)))
        save_embeddings(core, tmp_path / "core.emb", "binary")
        args = ["--out-dir", str(tmp_path), "fit", "--core", str(tmp_path / "core.emb")]
        fitted = str(tmp_path / "core.emb")
        if n_pool:
            pool = Corpus(tuple(EmbeddingRecord(id=100 + i, split="finetune", vector=vector)
                                for i in range(n_pool)))
            save_embeddings(pool, tmp_path / "pool.emb", "binary")
            args += ["--finetune", str(tmp_path / "pool.emb")]
            fitted += f" and {tmp_path / 'pool.emb'}"
        assert main(args) == 2
        assert f"samplerank: error: {message} (fitting {fitted})" in capsys.readouterr().err
        assert not (tmp_path / "pca.bin").exists()

    def test_model_value_float32_cannot_hold_exits_2_writing_no_file(self, embedding_files, tmp_path, capsys):
        """Vectors scaled by 1e19 still fit float32, but their PCA variances overflow it: fit refuses the
        model that rank would refuse, before it writes any file, and no numpy warning escapes."""
        for path in embedding_files:
            corpus = load_embeddings(path)
            scaled = corpus.vectors() * np.float32(1e19)
            save_embeddings(Corpus(columns=(corpus.ids, scaled, corpus._ious, corpus.splits)), tmp_path / path.name)
        core, ft = (str(tmp_path / path.name) for path in embedding_files)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "fit", "--core", core, "--finetune", ft]) == 2
        err = capsys.readouterr().err
        assert f"samplerank: error: pca.bin: non-finite value at byte 12 (fitting {core} and {ft})" in err
        assert not out.exists()


class TestSimulate:
    def test_outputs_and_row_count(self, tmp_path):
        cfg = _sim_config(tmp_path)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "strategy,budget,seed,quality"
        assert len(lines) == 1 + 3 * 6 * 2  # strategies x budgets x seeds
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "aggregates.csv").exists()

    def test_single_seed_runs(self, tmp_path):
        cfg = _sim_config(tmp_path, **{"sim.n_seeds": 1, "sim.budgets": "300"})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_repeated_budget_is_swept_once(self, tmp_path):
        cfg = _sim_config(tmp_path, **{"sim.budgets": "50,50,100"})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2 * 2  # strategies x distinct budgets x seeds
        assert len(set(lines)) == len(lines)
        sweep = str(tmp_path / "out" / "sweep.csv")
        assert main(["--out-dir", str(tmp_path / "report"), "report", "--sweep", sweep]) == 0
        for name in ("summary.txt", "aggregates.csv"):
            assert (tmp_path / "report" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def test_empty_budget_range_is_usage_error_naming_it(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, **{"sim.budgets": "300:100:50"})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 1
        assert "bad value for sim.budgets: range '300:100:50' is empty" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_empty_budget_list_is_usage_error_naming_it(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, **{"sim.budgets": ","})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 1
        assert "sim.budgets is empty" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_budget_beyond_pool_is_usage_error(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, **{"sim.budgets": "250,999"})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 1
        assert "sim.budgets" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()


class TestScatterAndReport:
    def test_scatter_layout(self, tmp_path):
        cfg = _sim_config(tmp_path)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "scatter"]) == 0
        lines = (tmp_path / "out" / "scatter.csv").read_text().splitlines()
        assert lines[0] == "id,x,y,iou,split"
        assert len(lines) == 1 + 250 + 300

    def test_report_from_existing_sweep(self, tmp_path):
        cfg = _sim_config(tmp_path)
        out = tmp_path / "out"
        main(["--config", str(cfg), "--out-dir", str(out), "simulate"])
        (out / "summary.txt").unlink()
        assert main(["--out-dir", str(out), "report"]) == 0
        assert "largest budget" in (out / "summary.txt").read_text()

    def test_report_missing_sweep_exits_2(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "report"]) == 2
        sweep = tmp_path / "sweep.csv"
        assert capsys.readouterr().err == f"samplerank: error: [Errno 2] No such file or directory: '{sweep}'\n"

    def test_report_creates_its_output_directory(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("strategy,budget,seed,quality\npriority_bps,100,1,0.9\nrandom,100,1,0.5\n")
        out = tmp_path / "new" / "dir"
        assert main(["--out-dir", str(out), "report", "--sweep", str(sweep)]) == 0
        assert "largest budget with priority_bps >= random: 100" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("random,10", "record 1: expected 4 fields, got 2"),
            ("random,ten,1,0.5", "record 1: invalid literal for int() with base 10: 'ten'"),
            ("random,10,1," + "9" * 140_000, "line 3: field larger than field limit"),
            ("random,10,1,nan", "record 1: quality nan outside [0,1]"),
            ("random,10,1,inf", "record 1: quality inf outside [0,1]"),
            ("random,10,1,1.5", "record 1: quality 1.5 outside [0,1]"),
            ("random,-5,1,0.5", "record 1: budget -5 is not positive"),
        ],
        ids=["short_row", "bad_number", "huge_field", "nan_quality", "inf_quality", "quality_above_1",
             "negative_budget"],
    )
    def test_malformed_sweep_row_exits_2_naming_file_and_record(self, tmp_path, capsys, row, message):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(f"strategy,budget,seed,quality\nrandom,10,1,0.5\n{row}\n")
        assert main(["--out-dir", str(tmp_path), "report", "--sweep", str(sweep)]) == 2
        assert f"{sweep}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "summary.txt").exists()

    def test_sweep_without_quality_column_exits_2_naming_it(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("strategy,budget,seed\nrandom,10,1\n")
        assert main(["--out-dir", str(tmp_path / "out"), "report", "--sweep", str(sweep)]) == 2
        expected = f"samplerank: error: {sweep}: malformed sweep header ['strategy', 'budget', 'seed']\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()

    def test_utf16_sweep_exits_2_naming_file_and_line(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_bytes("strategy,budget,seed,quality\n".encode("utf-16"))
        assert sweep.read_bytes()[:2] == b"\xff\xfe"
        assert main(["--out-dir", str(tmp_path), "report", "--sweep", str(sweep)]) == 2
        assert f"{sweep}: line 1: not UTF-8 text" in capsys.readouterr().err

    def test_sweep_missing_a_budget_exits_2_naming_strategy_and_budget(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        rows = ["priority_bps,100,1,0.5", "priority_bps,200,1,0.6", "random,100,1,0.4"]
        sweep.write_text("strategy,budget,seed,quality\n" + "\n".join(rows) + "\n")
        assert main(["--out-dir", str(tmp_path), "report", "--sweep", str(sweep)]) == 2
        assert f"{sweep}: strategy random has no record at budget 200" in capsys.readouterr().err
        assert not (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("rows, message", [
        (["priority_bps,100,1,0.9", "random,100,1,0.5", "random,100,2,0.1", "random,100,2,0.1"],
         "record 3: second record for strategy random at budget 100, seed 2"),
        (["priority_bps,100,1,0.9", "random,100,1,0.5", "random,100,2,0.1"],
         "strategy priority_bps has no record at budget 100, seed 2"),
        (["priority_bps,100,1,0.9", "priority_bps,200,2,0.9", "random,100,1,0.5", "random,200,3,0.1"],
         "strategy priority_bps has no record at budget 200, seed 3"),
    ], ids=["repeated_row", "unpaired_seed", "seed_sets_differ_per_budget"])
    def test_unpaired_sweep_exits_2_naming_strategy_budget_and_seed(
        self, tmp_path, capsys, rows, message
    ):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("strategy,budget,seed,quality\n" + "\n".join(rows) + "\n")
        assert main(["--out-dir", str(tmp_path), "report", "--sweep", str(sweep)]) == 2
        assert f"{sweep}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "summary.txt").exists()

    def test_header_only_sweep_exits_2_naming_it(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("strategy,budget,seed,quality\n")
        assert main(["--out-dir", str(tmp_path), "report", "--sweep", str(sweep)]) == 2
        assert f"{sweep}: no records" in capsys.readouterr().err


class TestUsageAndConfig:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["1e200", "1e100", "3.5e38", "1e-300", "7e-46"])
    def test_iou_weight_float32_stores_as_0_or_inf_exits_1_naming_it(self, embedding_files, tmp_path, capsys, weight):
        """clusters.bin stores the weight as float32; no numpy warning escapes the check."""
        core, ft = embedding_files
        cfg = tmp_path / "weight.cfg"
        cfg.write_text(f"cluster.iou_weight = {weight}\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "fit", "--core", str(core),
                     "--finetune", str(ft)]) == 1
        expected = f"samplerank: config error: cluster.iou_weight = {float(weight)} is 0 or inf as float32\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "pca.bin").exists()

    @pytest.mark.parametrize("weight", ["1e-45", "3.4028235e38"])
    def test_iou_weight_at_float32_extremes_fits_and_ranks(self, embedding_files, tmp_path, capsys, weight):
        core, ft = embedding_files
        cfg = tmp_path / "weight.cfg"
        cfg.write_text(f"cluster.iou_weight = {weight}\n")
        args = ["--config", str(cfg), "--out-dir", str(tmp_path)]
        assert main([*args, "fit", "--core", str(core), "--finetune", str(ft)]) == 0, capsys.readouterr().err
        for strategy in ("bps", "mps"):
            assert main([*args, "rank", "--finetune", str(ft), "--strategy", strategy]) == 0, capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus"])
        assert info.value.code == 1

    @pytest.mark.parametrize("line", ["pca.fit = core", "loop.pool_core = true"])
    def test_former_path_switch_is_unknown_key(self, embedding_files, tmp_path, capsys, line):
        core, ft = embedding_files
        path = tmp_path / "old.cfg"
        path.write_text(line + "\n")
        args = ["--config", str(path), "--out-dir", str(tmp_path), "fit", "--core", str(core), "--finetune", str(ft)]
        assert main(args) == 1
        assert f"unknown key {line.split(' = ')[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "pca.bin").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 1\n")
        assert main(["--config", str(path), "simulate"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["--config", str(path), "simulate"]) == 1
        assert f"cannot read config file {path}: " in capsys.readouterr().err

    def test_given_flag_overrides_config_even_when_empty(self, embedding_files, tmp_path, capsys):
        core, _ = embedding_files
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"core_embeddings = {core}\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "fit"]) == 0
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "fit", "--core", ""]) == 1
        assert "no core embeddings path configured" in capsys.readouterr().err

    def test_negative_seed_flag_is_usage_error(self, embedding_files, tmp_path, capsys):
        core, _ = embedding_files
        assert main(["--seed", "-1", "--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_negative_seed_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, seed=-1)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_is_usage_error_naming_key(self, tmp_path, capsys, key, value):
        cfg = _sim_config(tmp_path, **{key: value})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "scatter"]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sim.novel_sizes", "5,-1", "sim: invalid novel cluster parameters"),
            ("sim.dims", "1", "sim: default geometry needs dims >= 2"),
            ("sim.ft_n", "50", "sim: infeasible spec: novel sizes (60) plus outliers (1) exceed ft_n (50)"),
        ],
    )
    def test_bad_sim_value_is_usage_error(self, tmp_path, capsys, key, value, message):
        cfg = _sim_config(tmp_path, **{key: value})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "scatter"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("pca.variance_threshold", "0", "pca.variance_threshold must lie in (0, 1]"),
        ("pca.variance_threshold", "1.5", "pca.variance_threshold must lie in (0, 1]"),
        ("sim.budgets", "0,50", "sim.budgets must be positive"),
        ("sim.budgets", "1:5", "bad value for sim.budgets: range syntax is start:stop:step, got '1:5'"),
        ("sim.budgets", "5:10:0", "bad value for sim.budgets: range step must be positive"),
    ])
    def test_out_of_range_setting_is_usage_error_naming_key(self, tmp_path, capsys, key, value, message):
        cfg = _sim_config(tmp_path, **{key: value})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 1
        assert capsys.readouterr().err == f"samplerank: config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_nan_weight_ranks_nothing(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("coeff.mps_a = nan\n")
        args = ["--config", str(cfg), "--out-dir", str(tmp_path), "rank", "--finetune", str(ft), "--strategy", "mps"]
        assert main(args) == 1
        assert "coeff.mps_a must be finite" in capsys.readouterr().err
        assert not (tmp_path / "queue.csv").exists()

    def test_huge_sim_count_is_usage_error_naming_key(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, **{"sim.core_n": 10**20})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "scatter"]) == 1
        err = capsys.readouterr().err
        assert "sim: core_n must lie in [1, 2**53]" in err and "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 23.3 TiB")

        monkeypatch.setattr("samplerank.synthetic.generate_synthetic", exhausted)
        cfg = _sim_config(tmp_path)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "scatter"]) == 2
        assert "samplerank: error: Unable to allocate 23.3 TiB" in capsys.readouterr().err

    def test_dump_config_round_trip(self, tmp_path):
        dump = tmp_path / "effective.cfg"
        assert main(["--seed", "99", "--dump-config", str(dump)]) == 0
        assert main(["--config", str(dump), "--dump-config", str(tmp_path / "second.cfg")]) == 0
        assert dump.read_text() == (tmp_path / "second.cfg").read_text()
        assert "seed = 99" in dump.read_text()

    def test_dump_config_into_missing_directory_exits_2_naming_it(self, tmp_path, capsys):
        dump = tmp_path / "absent" / "effective.cfg"
        assert main(["--out-dir", str(tmp_path / "out"), "--dump-config", str(dump), "simulate"]) == 2
        assert capsys.readouterr().err == f"samplerank: error: [Errno 2] No such file or directory: '{dump}'\n"
        assert not (tmp_path / "out").exists()
