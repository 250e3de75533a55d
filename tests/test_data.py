"""Corpus construction, file round-trips, mask validation, and read-only record arrays."""

import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from samplerank.cli import main
from samplerank.clustering import ClusterModel, load_clusters, save_clusters
from samplerank.data import (
    SPLIT_FINETUNE,
    BinaryMask,
    Corpus,
    DataFormatError,
    EmbeddingRecord,
    load_embeddings,
    read_utf8,
    save_embeddings,
)
from samplerank.metrics import IouPredictor, load_predictor, save_predictor
from samplerank.pca import PcaModel, load_pca, save_pca
from samplerank.scoring import Scores
from samplerank.synthetic import GroundTruth, default_spec, generate_synthetic


def _random_corpus(rng, n=12, dim=4, split="core"):
    records = []
    for i in range(n):
        records.append(
            EmbeddingRecord(
                id=i,
                split=split,
                vector=rng.normal(size=dim).astype(np.float32),
                measured_iou=float(rng.uniform()) if split == "core" else None,
            )
        )
    return Corpus(tuple(records))


class TestRecordValidation:
    """An EmbeddingRecord is a plain value; ``Corpus`` checks it."""

    def test_core_requires_measured_iou(self):
        with pytest.raises(ValueError, match="^record 0: core records require measured_iou$"):
            Corpus((EmbeddingRecord(id=0, split="core", vector=np.ones(3)),))

    def test_finetune_iou_optional(self):
        (rec,) = Corpus((EmbeddingRecord(id=0, split="finetune", vector=np.ones(3)),)).records
        assert rec.measured_iou is None

    def test_rejects_nan_vector(self):
        with pytest.raises(ValueError, match="^record 0: vector contains non-finite"):
            Corpus((EmbeddingRecord(id=0, split="finetune", vector=np.array([1.0, np.nan])),))

    def test_rejects_out_of_range_iou(self):
        with pytest.raises(ValueError, match=r"^record 0: measured_iou must lie in \[0,1\]"):
            Corpus((EmbeddingRecord(id=0, split="core", vector=np.ones(2), measured_iou=1.5),))

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="^record 0: record id must be a non-negative"):
            Corpus((EmbeddingRecord(id=-1, split="core", vector=np.ones(2), measured_iou=0.5),))

    def test_rejects_unknown_split(self):
        with pytest.raises(ValueError, match="^record 0: split must be one of"):
            Corpus((EmbeddingRecord(id=0, split="validation", vector=np.ones(2)),))

    def test_numpy_integer_ids_are_ids(self):
        corpus = Corpus(columns=([5, 6], np.ones((2, 2), np.float32), np.full(2, np.nan), [1, 1]))
        (rec,) = Corpus((EmbeddingRecord(corpus.ids[0], "finetune", np.ones(2)),)).records
        assert rec.id == 5 and type(rec.id) is int
        top = Corpus((EmbeddingRecord(np.uint64(2**64 - 1), "finetune", np.ones(2)),))
        assert top.ids.tolist() == [2**64 - 1]
        message = r"^record 0: record id must be a non-negative integer, got np.int64\(-1\)$"
        with pytest.raises(ValueError, match=message):
            Corpus((EmbeddingRecord(np.int64(-1), "finetune", np.ones(2)),))


class TestCorpusValidation:
    def test_duplicate_id_names_record_index(self):
        recs = [
            EmbeddingRecord(id=7, split="finetune", vector=np.ones(2)),
            EmbeddingRecord(id=7, split="finetune", vector=np.zeros(2)),
        ]
        with pytest.raises(ValueError, match="record 1.*duplicate id 7"):
            Corpus(tuple(recs))

    def test_dimension_mismatch_names_record_index(self):
        recs = [
            EmbeddingRecord(id=0, split="finetune", vector=np.ones(2)),
            EmbeddingRecord(id=1, split="finetune", vector=np.ones(3)),
        ]
        with pytest.raises(ValueError, match="record 1"):
            Corpus(tuple(recs))

    def test_empty_corpus_needs_dimension(self):
        with pytest.raises(ValueError, match="columns="):
            Corpus(())
        empty = Corpus(columns=((), np.empty((0, 5), np.float32), (), ()))
        assert len(empty) == 0 and empty.dimension == 5

    @pytest.mark.parametrize("field, value, message", [
        ("id", -1, "record id must be a non-negative integer, got -1"),
        ("split", "validation", "split must be one of ('core', 'finetune'), got 'validation'"),
        ("vector", np.array([1.0, np.inf, 0.0]), "vector contains non-finite values"),
        ("measured_iou", 1.5, "measured_iou must lie in [0,1], got 1.5"),
        ("measured_iou", np.nan, "measured_iou must lie in [0,1], got nan"),
        ("measured_iou", "0.5", "must be real number, not str"),
        ("measured_iou", None, "core records require measured_iou"),
        ("vector", np.ones((3, 1)), "vector must be a non-empty 1-D array"),
        ("vector", np.ones(4), "dimension 4 != corpus dimension 3"),
        ("id", 1, "duplicate id 1"),
    ], ids=["negative-id", "unknown-split", "non-finite-vector", "iou-above-1", "nan-iou", "text-iou",
            "core-without-iou", "2d-vector", "dimension-mismatch", "duplicate-id"])
    def test_every_record_fault_names_its_index(self, field, value, message):
        records = [EmbeddingRecord(id=i, split="core", vector=np.ones(3), measured_iou=0.5) for i in range(4)]
        records[2] = replace(records[2], **{field: value})
        with pytest.raises(ValueError) as err:
            Corpus(records)
        assert str(err.value) == f"record 2: {message}"

    def test_a_column_fault_before_a_record_fault_is_named_first(self):
        records = [EmbeddingRecord(id=i, split="finetune", vector=np.ones(3)) for i in range(4)]
        records[1] = replace(records[1], vector=np.array([0.0, np.nan, 1.0]))
        records[3] = replace(records[3], vector=np.ones((3, 3)))
        with pytest.raises(ValueError, match=r"^record 1: vector contains non-finite values$"):
            Corpus(records)


class TestEmbeddingRoundTrip:
    def test_binary_round_trip_is_exact(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(0))
        path = tmp_path / "c.emb"
        save_embeddings(corpus, path, "binary")
        loaded = load_embeddings(path)
        assert loaded == corpus

    def test_csv_round_trip_within_tolerance(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(1))
        path = tmp_path / "c.csv"
        save_embeddings(corpus, path, "csv")
        loaded = load_embeddings(path)
        for a, b in zip(loaded.records, corpus.records, strict=True):
            np.testing.assert_allclose(a.vector, b.vector, atol=1e-6)
            assert a.id == b.id and a.split == b.split

    def test_csv_and_binary_encode_the_same_corpus(self, tmp_path):
        # both encodings of one random corpus load back equal
        corpus = _random_corpus(np.random.default_rng(2), n=20, dim=6)
        save_embeddings(corpus, tmp_path / "c.emb", "binary")
        save_embeddings(corpus, tmp_path / "c.csv", "csv")
        assert load_embeddings(tmp_path / "c.emb") == load_embeddings(tmp_path / "c.csv")

    def test_format_sniffing(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(3), split="finetune")
        save_embeddings(corpus, tmp_path / "x", "binary")
        assert load_embeddings(tmp_path / "x") == corpus

    def test_binary_layout_packed_by_hand(self, tmp_path):
        # "EMB1", then count, dimension and split flag (<IIB), then per record: <Q id, <f IoU, D x <f
        vectors = ([0.5, -1.25, 3.0], [2.0, 0.0, -0.75])
        blob = b"EMB1" + struct.pack("<IIB", 2, 3, 1)
        blob += struct.pack("<Qf3f", 7, 0.25, *vectors[0])
        blob += struct.pack("<Qf3f", 2**64 - 1, float("nan"), *vectors[1])
        corpus = Corpus((
            EmbeddingRecord(id=7, split="finetune", vector=np.array(vectors[0]), measured_iou=0.25),
            EmbeddingRecord(id=2**64 - 1, split="finetune", vector=np.array(vectors[1])),
        ))
        save_embeddings(corpus, tmp_path / "saved.emb")
        assert (tmp_path / "saved.emb").read_bytes() == blob
        (tmp_path / "packed.emb").write_bytes(blob)
        assert load_embeddings(tmp_path / "packed.emb") == corpus

    def test_empty_corpus_refuses_to_save(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_embeddings(Corpus(columns=((), np.empty((0, 3), np.float32), (), ())), tmp_path / "x.emb")

    def test_mixed_splits_rejected_by_binary(self, tmp_path):
        recs = (
            EmbeddingRecord(id=0, split="core", vector=np.ones(2), measured_iou=0.5),
            EmbeddingRecord(id=1, split="finetune", vector=np.ones(2)),
        )
        with pytest.raises(ValueError, match="split"):
            save_embeddings(Corpus(recs), tmp_path / "x.emb", "binary")


class TestEmbeddingErrors:
    def test_nan_record_reports_its_index(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(4), n=4, split="finetune")
        path = tmp_path / "c.csv"
        save_embeddings(corpus, path, "csv")
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"  # corrupt record 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="record 2"):
            load_embeddings(path)

    def test_truncated_binary(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(5))
        path = tmp_path / "c.emb"
        save_embeddings(corpus, path, "binary")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError, match="size mismatch"):
            load_embeddings(path)

    @pytest.mark.parametrize("dim", [1, 2**29, 2**32 - 1])
    def test_header_only_binary_loads_empty_of_its_dimension(self, tmp_path, dim):
        # no records may come with any dimension, even one no record dtype can hold
        path = tmp_path / "c.emb"
        path.write_bytes(b"EMB1" + struct.pack("<IIB", 0, dim, 1))
        corpus = load_embeddings(path)
        assert len(corpus) == 0 and corpus.dimension == dim and corpus.vectors().shape == (0, dim)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="header|magic"):
            load_embeddings(path)

    def test_malformed_csv_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,iou,v0\n1,0.5,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_embeddings(path)

    def test_missing_core_iou_in_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,split,iou,v0\n0,core,,1.0\n")
        with pytest.raises(DataFormatError, match="record 0"):
            load_embeddings(path)


# file kind -> (writer of a small valid file, its reader, header size in bytes)
_BINARY_FILES = {
    "EMB1": (lambda path: save_embeddings(_random_corpus(np.random.default_rng(6), n=3), path), load_embeddings, 13),
    "PCA1": (lambda path: save_pca(PcaModel(np.zeros(2), np.eye(2), np.array([2.0, 1.0]), 3.0), path), load_pca, 12),
    "CLU1": (lambda path: save_clusters(ClusterModel(
        np.zeros((2, 3)), 1.0, np.zeros(2), np.ones(2), np.array([3, 4]), np.ones(2), np.array([False, True])), path),
        load_clusters, 12),
    "IOP1": (lambda path: save_predictor(IouPredictor(np.zeros((3, 2)), np.full(3, 0.5), 1), path), load_predictor, 16),
}


@pytest.mark.parametrize("kind", sorted(_BINARY_FILES))
def test_every_binary_file_reports_a_cut_header_and_an_extra_byte(tmp_path, kind):
    """All four binary files share one codec, so they share its messages."""
    save, load, header = _BINARY_FILES[kind]
    path = tmp_path / "f.bin"
    save(path)
    blob = path.read_bytes()
    assert blob[:4] == kind.encode()
    path.write_bytes(blob[:6])  # past the magic, inside the header
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert str(err.value) == f"{path}: truncated header, 6 of {header} bytes"
    path.write_bytes(blob + b"\0")
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert str(err.value) == f"{path}: size mismatch, expected {len(blob)} bytes, got {len(blob) + 1}"
    path.write_bytes(blob)
    load(path)


class TestCsvLoader:
    """CSV is one unquoted record per line; numpy parses the vector columns."""

    @staticmethod
    def _csv(tmp_path, split="finetune"):
        """Five 6-D records; returns the path and the file's lines."""
        path = tmp_path / "c.csv"
        save_embeddings(_random_corpus(np.random.default_rng(9), n=5, dim=6, split=split), path, "csv")
        return path, path.read_text().splitlines()

    def test_wide_corpus_loads_bit_equal_from_csv_and_binary(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(10), n=30, dim=512)
        save_embeddings(corpus, tmp_path / "c.emb", "binary")
        save_embeddings(corpus, tmp_path / "c.csv", "csv")
        from_csv, from_binary = load_embeddings(tmp_path / "c.csv"), load_embeddings(tmp_path / "c.emb")
        assert from_csv == from_binary == corpus
        assert from_csv.vectors().tobytes() == from_binary.vectors().tobytes()
        assert from_csv.measured_ious().tobytes() == from_binary.measured_ious().tobytes()

    def test_writer_bytes_for_signed_zero_subnormal_and_max(self, tmp_path):
        f32 = np.finfo(np.float32)
        vector = np.arange(512, dtype=np.float32) / np.float32(7)
        vector[:3] = -0.0, f32.smallest_subnormal, f32.max
        path = tmp_path / "c.csv"
        save_embeddings(Corpus((EmbeddingRecord(5, SPLIT_FINETUNE, vector),)), path, "csv")
        header = ",".join(["id", "split", "iou"] + [f"v{i}" for i in range(512)])
        line = ",".join(["5", "finetune", "", "-0", "1.40129846e-45", "3.40282347e+38"]
                        + [f"{v:.9g}" for v in vector[3:]])
        assert path.read_bytes() == f"{header}\r\n{line}\r\n".encode()
        (back,) = load_embeddings(path).records
        assert back.vector.tobytes() == vector.tobytes()

    def test_bad_float_names_file_record_and_column(self, tmp_path):
        path, lines = self._csv(tmp_path)
        fields = lines[3].split(",")
        fields[3 + 4] = "1.5x"  # record 2, column v4
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: record 2: v4 is not a number: '1.5x'"

    def test_short_row_names_its_record(self, tmp_path):
        path, lines = self._csv(tmp_path)
        lines[4] = lines[4].rsplit(",", 1)[0]  # record 3 loses its last field
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="c.csv: record 3: expected 9 fields, got 8"):
            load_embeddings(path)

    @pytest.mark.parametrize("rows, message", [
        (["0,finetune,,1", "x,finetune,,1", "2,finetune,,1,5"], "record 1: invalid literal for int() with base 10: 'x'"),
        (["0,finetune,,1", "x,finetune,,1", "2,finetune,,zz"], "record 1: invalid literal for int() with base 10: 'x'"),
        (["7,finetune,,1", "7,finetune,,1", "2,finetune,,zz"], "record 1: duplicate id 7"),
        (["0,finetune,2,1", "1,finetune,,1,5"], "record 0: measured_iou must lie in [0,1], got 2.0"),
        (["0,core,,1", "1,finetune,,zz"], "record 0: core records require measured_iou"),
        (["0,finetune,,inf", "1,finetune,,1", "2,finetune,,zz"], "record 0: vector contains non-finite values"),
        (["0,finetune,,1", "1,finetune,,1,5"], "record 1: expected 4 fields, got 5"),
        (["0,finetune,,1", "1,finetune,,zz"], "record 1: v0 is not a number: 'zz'"),
    ], ids=["bad-id-then-fields", "bad-id-then-number", "duplicate-then-number", "iou-then-fields",
            "core-without-iou-then-number", "inf-then-number", "only-fields", "only-number"])
    def test_first_bad_record_is_named_whatever_its_fault(self, tmp_path, rows, message):
        path = tmp_path / "c.csv"
        path.write_text("id,split,iou,v0\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: {message}"

    def test_header_only_csv_loads_empty_without_warning(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,split,iou,v0,v1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corpus = load_embeddings(path)
        assert len(corpus) == 0 and corpus.dimension == 2

    def test_quoted_field_exits_2_naming_the_file(self, tmp_path, capsys):
        path, lines = self._csv(tmp_path, split="core")
        lines[2] = lines[2].replace(",core,", ',"core",', 1)
        path.write_text("\n".join(lines) + "\n")
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(path)]) == 2
        assert f"{path}: line 3: quoted field" in capsys.readouterr().err

    @pytest.mark.parametrize("separator", ["\v", "\u2028"], ids=["vertical-tab", "line-separator"])
    def test_only_newlines_end_records(self, tmp_path, capsys, separator):
        path = tmp_path / "c.csv"
        path.write_bytes(f"id,split,iou,v0,v1\n1,core,0.5,0,1{separator}2,core,0.5,1,0\n".encode())
        assert main(["--out-dir", str(tmp_path), "fit", "--core", str(path)]) == 2
        assert f"{path}: record 0: expected 5 fields, got 9" in capsys.readouterr().err

    def test_form_feed_next_to_a_number_is_whitespace(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"id,split,iou,v0\n1\f,finetune,,0.5\v\n")
        (rec,) = load_embeddings(path).records
        assert rec.id == 1 and rec.vector.tolist() == [0.5]

    @pytest.mark.parametrize("read, blob, message", [
        (load_embeddings, b'id,split,iou,v0\r1,finetune,,0.5\r2,finetune,,"1"\r', "line 3: quoted field"),
        (load_embeddings, b'id,split,iou,v0\r\n1,finetune,,0.5\r\n2,finetune,,"1"\r\n', "line 3: quoted field"),
        (load_embeddings, b"id,split,iou,v0\n1,finetune,,0.5\r2,finetune,,\xff1\r", "line 3: not UTF-8"),
        (read_utf8, b"strategy,budget,seed,quality\rrandom,10,1,0.5\rrandom,20,1,\xff\r", "line 3: not UTF-8"),
    ], ids=["quote-cr", "quote-crlf", "utf8-cr", "sweep-utf8-cr"])
    def test_error_line_counts_every_line_end(self, tmp_path, read, blob, message):
        path = tmp_path / "c.csv"
        path.write_bytes(blob)
        with pytest.raises(DataFormatError, match=f"c.csv: {message}"):
            read(path)


class TestColumnarCorpus:
    """Loading, generating and fitting keep columns; records exist only at the ``Corpus(records)`` edge."""

    @staticmethod
    def _pool_files(tmp_path, ft_n=300):
        core, pool, _ = generate_synthetic(replace(default_spec(seed=5), core_n=200, ft_n=ft_n))
        paths = {name: tmp_path / name for name in ("core.emb", "pool.emb", "pool.csv")}
        save_embeddings(core, paths["core.emb"])
        save_embeddings(pool, paths["pool.emb"])
        save_embeddings(pool, paths["pool.csv"], "csv")
        return paths

    def test_load_generate_fit_and_rank_build_no_record(self, tmp_path, monkeypatch):
        paths = self._pool_files(tmp_path)

        def refuse(self, *args, **kwargs):
            raise AssertionError("an EmbeddingRecord was built")

        monkeypatch.setattr(EmbeddingRecord, "__init__", refuse)
        for path in paths.values():
            assert len(load_embeddings(path)) > 0
        generate_synthetic(default_spec(seed=6))
        out = ["--out-dir", str(tmp_path), "--seed", "3"]
        assert main(out + ["fit", "--core", str(paths["core.emb"]), "--finetune", str(paths["pool.emb"])]) == 0
        assert main(out + ["rank", "--finetune", str(paths["pool.csv"])]) == 0
        assert (tmp_path / "queue.csv").stat().st_size > 0

    def test_a_loaded_pool_holds_little_beyond_its_file(self, tmp_path):
        """8,800 x 8 binary pool: the file is 0.37 MiB; as records it held 2.49 MiB."""
        path = self._pool_files(tmp_path, ft_n=8800)["pool.emb"]
        tracemalloc.start()
        try:
            pool = load_embeddings(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(pool) == 8800 and held < 0.6 * 2**20

    @pytest.mark.parametrize("form", ["binary", "csv", "mixed-csv"])
    def test_records_edge_round_trips(self, tmp_path, form):
        rng = np.random.default_rng(11)
        records = [
            EmbeddingRecord(id=i, split=split, vector=rng.normal(size=5).astype(np.float32),
                            measured_iou=float(np.float32(rng.uniform())) if split == "core" or i % 3 == 0 else None)
            for i, split in zip(range(2**64 - 1, 2**64 - 121, -3), ["finetune", "core"] * 20)
            if form == "mixed-csv" or split == "finetune"
        ]
        built = Corpus(tuple(records))
        path = tmp_path / ("c.emb" if form == "binary" else "c.csv")
        save_embeddings(built, path, "binary" if form == "binary" else "csv")
        loaded = load_embeddings(path)
        assert loaded == built and loaded.dimension == built.dimension == 5
        assert loaded.ids.dtype == np.uint64 and loaded.ids.tolist() == [rec.id for rec in records]
        assert loaded.splits.tolist() == built.splits.tolist()
        assert loaded.vectors().tobytes() == built.vectors().tobytes()
        absent = [rec.measured_iou is None for rec in records]
        for corpus in (built, loaded):
            ious = corpus._ious
            assert np.isnan(ious).tolist() == absent
            assert ious[~np.isnan(ious)].tolist() == [iou for iou in (r.measured_iou for r in records) if iou is not None]
        for mine, back in zip(records, loaded.records, strict=True):
            assert type(back.id) is int and (back.measured_iou is None or type(back.measured_iou) is float)
            assert (back.id, back.split, back.measured_iou) == (mine.id, mine.split, mine.measured_iou)
            assert back.vector.tobytes() == mine.vector.tobytes() and not back.vector.flags.writeable

    def test_first_bad_record_is_named_whatever_its_fault(self):
        vectors = np.ones((4, 2), np.float32)
        vectors[3, 1] = np.inf
        with pytest.raises(ValueError, match=r"^record 1: duplicate id 7$"):
            Corpus(columns=([7, 7, 8, 9], vectors, np.full(4, np.nan), [1, 1, 1, 1]))
        with pytest.raises(ValueError, match=r"^record 2: core records require measured_iou$"):
            Corpus(columns=([1, 2, 3, 4], vectors, [0.5, 0.5, np.nan, 2.0], [0, 0, 0, 0]))
        with pytest.raises(ValueError, match=r"^record 3: vector contains non-finite values$"):
            Corpus(columns=([1, 2, 3, 4], vectors, [0.5, 0.5, 0.5, 2.0], [0, 0, 0, 0]))


class TestMasks:
    def test_mask_shape_validation(self):
        with pytest.raises(ValueError):
            BinaryMask(width=2, height=2, bits=np.zeros((3, 2), dtype=bool))


def _record_cases():
    """(constructor, scalar fields, array fields), every array already of the record's dtype."""
    column = np.linspace(0.0, 1.0, 3)
    return {
        "Corpus": (lambda ids, splits, _vectors, _ious: Corpus(columns=(ids, _vectors, _ious, splits)), {},
                   {"ids": np.arange(3, dtype=np.uint64), "splits": np.ones(3, np.uint8),
                    "_vectors": np.ones((3, 2), np.float32), "_ious": np.full(3, np.nan, np.float32)}),
        "BinaryMask": (BinaryMask, {"width": 2, "height": 2}, {"bits": np.eye(2, dtype=bool)}),
        "PcaModel": (PcaModel, {"total_variance": 3.0},
                     {"mean": np.zeros(2), "components": np.eye(2), "eigenvalues": np.array([2.0, 1.0])}),
        "IouPredictor": (IouPredictor, {"k": 1}, {"points": np.zeros((3, 2)), "ious": column.copy()}),
        "ClusterModel": (ClusterModel, {"iou_weight": 1.0}, {
            "centroids": np.zeros((2, 3)), "feature_mean": np.zeros(2), "feature_scale": np.ones(2),
            "member_count": np.array([3, 4], np.int64), "p95_radius": np.ones(2),
            "is_error": np.array([False, True])}),
        "Scores": (Scores, {}, {"ids": np.arange(3, dtype=np.uint64),
                                **{name: column.copy() for name in
                                   ("dist", "pred_iou", "loop", "orph", "err", "bps", "mps")}}),
        "GroundTruth": (GroundTruth, {}, {"hidden_cluster_id": np.arange(3), "is_novel": np.ones(3, bool),
                                          "is_outlier": np.zeros(3, bool)}),
    }


@pytest.mark.parametrize("name", sorted(_record_cases()))
def test_record_freezes_its_own_arrays_not_the_callers(name):
    make, scalars, arrays = _record_cases()[name]
    record = make(**scalars, **arrays)
    for field, given in arrays.items():
        given.flat[0] = given.flat[0]  # the caller may still write to its array
        kept = getattr(record, field)
        assert not kept.flags.writeable, field
        np.testing.assert_array_equal(kept, given)
