"""Command-line workflows: fit, rank, simulate, scatter, report."""

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

    @pytest.mark.parametrize("name,header_size", [
        ("pca.bin", 12), ("clusters.bin", 12), ("iou_refs.bin", 16),
    ])
    def test_nan_in_model_payload_exits_2_naming_it(
        self, embedding_files, tmp_path, capsys, name, header_size
    ):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        blob = bytearray((tmp_path / name).read_bytes())
        blob[header_size + 4 : header_size + 8] = np.float32(np.nan).tobytes()
        (tmp_path / name).write_bytes(bytes(blob))
        assert main(["--out-dir", str(tmp_path), "rank", "--finetune", str(ft)]) == 2
        assert f"{name}: non-finite value at byte {header_size + 4}" in capsys.readouterr().err

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

    def test_budget_beyond_pool_exits_2(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, **{"sim.budgets": "250,999"})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate"]) == 2
        assert "budgets" in capsys.readouterr().err


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

    def test_report_missing_sweep_exits_2(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "report"]) == 2

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

    def test_utf16_sweep_exits_2_naming_file_and_line(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_bytes("strategy,budget,seed,quality\n".encode("utf-16"))
        assert sweep.read_bytes()[:2] == b"\xff\xfe"
        assert main(["--out-dir", str(tmp_path), "report", "--sweep", str(sweep)]) == 2
        assert f"{sweep}: line 1: not UTF-8 text" in capsys.readouterr().err

    def test_header_only_sweep_exits_2_naming_it(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("strategy,budget,seed,quality\n")
        assert main(["--out-dir", str(tmp_path), "report", "--sweep", str(sweep)]) == 2
        assert f"{sweep}: no records" in capsys.readouterr().err


class TestUsageAndConfig:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus"])
        assert info.value.code == 1

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
        ],
    )
    def test_bad_sim_value_is_usage_error(self, tmp_path, capsys, key, value, message):
        cfg = _sim_config(tmp_path, **{key: value})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "scatter"]) == 1
        assert message in capsys.readouterr().err

    def test_nan_weight_ranks_nothing(self, embedding_files, tmp_path, capsys):
        core, ft = embedding_files
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(core)]) == 0
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("coeff.mps_a = nan\n")
        args = ["--config", str(cfg), "--out-dir", str(tmp_path), "rank", "--finetune", str(ft), "--strategy", "mps"]
        assert main(args) == 1
        assert "coeff.mps_a must be finite" in capsys.readouterr().err
        assert not (tmp_path / "queue.csv").exists()

    # numpy warns while casting the 1e20 allocation, before the OverflowError under test
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    def test_huge_sim_count_exits_2(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, **{"sim.core_n": 10**20})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "scatter"]) == 2
        assert "samplerank: error: Python int too large" in capsys.readouterr().err

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
