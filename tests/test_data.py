"""Corpus construction, file round-trips, mask validation, and read-only record arrays."""

import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import samplerank
from samplerank import data as data_module
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


# CSV files whose first bad record each case names: rows after the header "id,split,iou,v0" -> message
_FIRST_BAD = {
    "bad-id-then-fields": (["0,finetune,,1", "x,finetune,,1", "2,finetune,,1,5"],
                           "record 1: invalid literal for int() with base 10: 'x'"),
    "bad-id-then-number": (["0,finetune,,1", "x,finetune,,1", "2,finetune,,zz"],
                           "record 1: invalid literal for int() with base 10: 'x'"),
    "duplicate-then-number": (["7,finetune,,1", "7,finetune,,1", "2,finetune,,zz"], "record 1: duplicate id 7"),
    "iou-then-fields": (["0,finetune,2,1", "1,finetune,,1,5"], "record 0: measured_iou must lie in [0,1], got 2.0"),
    "core-without-iou-then-number": (["0,core,,1", "1,finetune,,zz"], "record 0: core records require measured_iou"),
    "inf-then-number": (["0,finetune,,inf", "1,finetune,,1", "2,finetune,,zz"],
                        "record 0: vector contains non-finite values"),
    "only-fields": (["0,finetune,,1", "1,finetune,,1,5"], "record 1: expected 4 fields, got 5"),
    "only-number": (["0,finetune,,1", "1,finetune,,zz"], "record 1: v0 is not a number: 'zz'"),
}
# CSV files whose fault is named by its line, counted over every kind of line end: file -> message start
_LINE_COUNTS = {
    "quote-cr": (b'id,split,iou,v0\r1,finetune,,0.5\r2,finetune,,"1"\r', "line 3: quoted field"),
    "quote-crlf": (b'id,split,iou,v0\r\n1,finetune,,0.5\r\n2,finetune,,"1"\r\n', "line 3: quoted field"),
    "utf8-cr": (b"id,split,iou,v0\n1,finetune,,0.5\r2,finetune,,\xff1\r", "line 3: not UTF-8"),
}


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

    @pytest.mark.parametrize("rows, message", _FIRST_BAD.values(), ids=_FIRST_BAD.keys())
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
        *((load_embeddings, *case) for case in _LINE_COUNTS.values()),
        (read_utf8, b"strategy,budget,seed,quality\rrandom,10,1,0.5\rrandom,20,1,\xff\r", "line 3: not UTF-8"),
    ], ids=[*_LINE_COUNTS, "sweep-utf8-cr"])
    def test_error_line_counts_every_line_end(self, tmp_path, read, blob, message):
        path = tmp_path / "c.csv"
        path.write_bytes(blob)
        with pytest.raises(DataFormatError, match=f"c.csv: {message}"):
            read(path)


def _csv_bytes(tmp_path, corpus, edit=None) -> bytes:
    """*corpus* as the CSV writer writes it, its lines (without their ends) passed through *edit*, ends LF."""
    save_embeddings(corpus, tmp_path / "written.csv", "csv")
    lines = (tmp_path / "written.csv").read_text().splitlines()
    if edit is not None:
        edit(lines)
    return ("\n".join(lines) + "\n").encode()


def _set(index, value):
    def edit(lines):
        lines[index] = value(lines[index])
    return edit


def _short_rows(n=20):
    """A header and *n* one-column finetune records of ids 0 to n - 1, shorter than a few dozen bytes each."""
    return [b"id,split,iou,v0"] + [b"%d,finetune,,%d" % (i, i) for i in range(n)]


# every CSV fault case of the suite: file writer (of tmp_path) -> the file's bytes
_CSV_FAULTS = {
    **{f"first-bad-{name}": (lambda tmp_path, rows=rows: ("id,split,iou,v0\n" + "\n".join(rows) + "\n").encode())
       for name, (rows, _) in _FIRST_BAD.items()},
    **{f"line-count-{name}": (lambda tmp_path, blob=blob: blob) for name, (blob, _) in _LINE_COUNTS.items()},
    "nan-record": lambda tmp_path: _csv_bytes(
        tmp_path, _random_corpus(np.random.default_rng(4), n=4, split="finetune"),
        _set(3, lambda line: line.rsplit(",", 1)[0] + ",nan")),
    "bad-float": lambda tmp_path: _csv_bytes(
        tmp_path, _random_corpus(np.random.default_rng(9), n=5, dim=6, split="finetune"),
        _set(3, lambda line: ",".join(f if i != 7 else "1.5x" for i, f in enumerate(line.split(","))))),
    "short-row": lambda tmp_path: _csv_bytes(
        tmp_path, _random_corpus(np.random.default_rng(9), n=5, dim=6, split="finetune"),
        _set(4, lambda line: line.rsplit(",", 1)[0])),
    "quoted-split": lambda tmp_path: _csv_bytes(
        tmp_path, _random_corpus(np.random.default_rng(9), n=5, dim=6, split="core"),
        _set(2, lambda line: line.replace(",core,", ',"core",', 1))),
    "vertical-tab": lambda tmp_path: "id,split,iou,v0,v1\n1,core,0.5,0,1\v2,core,0.5,1,0\n".encode(),
    "line-separator": lambda tmp_path: "id,split,iou,v0,v1\n1,core,0.5,0,1\u20282,core,0.5,1,0\n".encode(),
    "malformed-header": lambda tmp_path: b"id,iou,v0\n1,0.5,1.0\n",
    "malformed-vector-columns": lambda tmp_path: b"id,split,iou,v1\n0,core,0.5,1.0\n",
    "missing-core-iou": lambda tmp_path: b"id,split,iou,v0\n0,core,,1.0\n",
    "nan-iou": lambda tmp_path: b"id,split,iou,v0\n0,core,0.5,1.0\n1,core,nan,2.0\n",
    "empty": lambda tmp_path: b"",
}


class TestCsvPieces:
    """The CSV reader splits its file into lines a piece of about ``_CHUNK`` bytes at a time; a piece ends
    after a line end. Pieces of a few dozen bytes give every verdict and every corpus of one piece."""

    @pytest.mark.parametrize("name", sorted(_CSV_FAULTS))
    def test_every_csv_fault_reads_the_same_in_small_pieces(self, tmp_path, monkeypatch, name):
        path = tmp_path / "c.csv"
        path.write_bytes(_CSV_FAULTS[name](tmp_path))
        with pytest.raises(DataFormatError) as whole:
            load_embeddings(path)
        for size in (1, 2, 3, 5, 8, 13, 24, 40):
            monkeypatch.setattr(data_module, "_CHUNK", size)
            with pytest.raises(DataFormatError) as pieces:
                load_embeddings(path)
            assert str(pieces.value) == str(whole.value), size

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr-only"])
    def test_pieces_give_the_lines_and_the_corpus_of_the_whole_file(self, tmp_path, monkeypatch, end):
        corpus = _random_corpus(np.random.default_rng(12), n=6, dim=3)
        blob = _csv_bytes(tmp_path, corpus).replace(b"\n", end)
        path = tmp_path / "c.csv"
        path.write_bytes(blob)
        sizes = range(1, len(blob) + 2)
        if end == b"\r\n":  # some first piece is looked for from the LF of a CR LF
            assert any(blob[size - 1 : size + 1] == b"\r\n" for size in sizes)
        for size in sizes:
            monkeypatch.setattr(data_module, "_CHUNK", size)
            assert list(data_module._lines(blob)) == blob.splitlines(), size
            assert load_embeddings(path) == corpus, size

    def test_a_duplicate_id_in_another_piece_is_named(self, tmp_path, monkeypatch):
        lines = _short_rows()
        lines[1 + 15] = b"2,finetune,,15"  # record 15 repeats record 2's id, 13 lines and over 150 bytes later
        path = tmp_path / "c.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        for size in (data_module._CHUNK, 24):  # a piece holds 24 bytes and the rest of a line: never both records
            monkeypatch.setattr(data_module, "_CHUNK", size)
            with pytest.raises(DataFormatError) as err:
                load_embeddings(path)
            assert str(err.value) == f"{path}: record 15: duplicate id 2"

    @pytest.mark.parametrize("field, message", [
        (b"zz", "record 17: v0 is not a number: 'zz'"),
        (b'"17"', "line 19: quoted field; records are unquoted, one per line"),
        (b"\xff", "line 19: not UTF-8 text (invalid start byte at byte {at})"),
    ], ids=["number", "quote", "utf8"])
    def test_a_fault_in_a_later_piece_is_named_from_the_top_of_the_file(self, tmp_path, monkeypatch, field, message):
        lines = _short_rows()
        lines[1 + 17] = b"17,finetune,," + field
        blob = b"\n".join(lines) + b"\n"
        path = tmp_path / "c.csv"
        path.write_bytes(blob)
        expected = f"{path}: " + message.format(at=blob.find(field))
        for size in (data_module._CHUNK, 24):  # record 17 starts past byte 200
            monkeypatch.setattr(data_module, "_CHUNK", size)
            with pytest.raises(DataFormatError) as err:
                load_embeddings(path)
            assert str(err.value) == expected

    def test_a_wide_csv_in_many_pieces_loads_as_in_one(self, tmp_path, monkeypatch):
        """40 records of 512 columns, 6.5 kB a line, some core with an IoU and some finetune without."""
        rng = np.random.default_rng(13)
        records = [EmbeddingRecord(i, split, rng.normal(size=512).astype(np.float32),
                                   float(rng.uniform()) if split == "core" else None)
                   for i, split in enumerate(["core", "finetune", "finetune", "core"] * 10)]
        path = tmp_path / "c.csv"
        save_embeddings(Corpus(tuple(records)), path, "csv")
        whole = load_embeddings(path)
        for size in (24, 4096, 20000):  # one line a piece, one or two, three or four
            monkeypatch.setattr(data_module, "_CHUNK", size)
            assert path.stat().st_size > 10 * size
            pieces = load_embeddings(path)
            assert pieces == whole and pieces.vectors().tobytes() == whole.vectors().tobytes()


def _run_python(script: str, *args) -> subprocess.CompletedProcess:
    """*script* run by a fresh interpreter that imports this samplerank, with a time limit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(samplerank.__file__)), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=env)


class TestFiles:
    """A binary corpus maps its file; ``save_embeddings`` replaces a file rather than rewrite it."""

    def test_saving_over_a_mapped_corpus_leaves_it_whole(self, tmp_path):
        """In a child process, so that a read past a cut file (SIGBUS) fails this test instead of ending pytest."""
        run = _run_python("""
            import sys
            import numpy as np
            from samplerank.data import Corpus, load_embeddings, save_embeddings
            path, rng = sys.argv[1], np.random.default_rng(14)
            first = Corpus(columns=(np.arange(4000), rng.normal(size=(4000, 64)).astype(np.float32),
                                    rng.uniform(size=4000), np.zeros(4000)))
            save_embeddings(first, path)
            loaded = load_embeddings(path)  # its vectors view the file's 1 MB map
            save_embeddings(Corpus(columns=([7], np.ones((1, 64), np.float32), [0.5], [0])), path)
            assert loaded == first and loaded.vectors().tobytes() == first.vectors().tobytes()
            assert load_embeddings(path).ids.tolist() == [7]
        """, tmp_path / "c.emb")
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["disk-full", "interrupt"])
    def test_a_failed_save_leaves_the_file_as_it_was(self, tmp_path, monkeypatch, error):
        path = tmp_path / "c.csv"
        path.write_bytes(b"old")

        def write_half(corpus, written):
            with open(written, "w") as fh:
                fh.write("id,split")
            raise error

        monkeypatch.setattr(data_module, "_save_csv", write_half)
        with pytest.raises(type(error)) as err:
            save_embeddings(_random_corpus(np.random.default_rng(15)), path, "csv")
        if isinstance(error, OSError):  # named as the caller gave it, not as the new file's name
            assert str(err.value) == f"[Errno 28] No space left on device: '{path}'"
        assert path.read_bytes() == b"old" and os.listdir(tmp_path) == ["c.csv"]

    def test_a_written_file_has_the_mode_a_plain_open_gives(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        save_embeddings(_random_corpus(np.random.default_rng(15)), tmp_path / "c.emb")
        assert (tmp_path / "c.emb").stat().st_mode == (tmp_path / "plain").stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["c.emb", "plain"]

    @pytest.mark.parametrize("form", ["binary", "csv"])
    def test_a_write_into_a_missing_directory_names_the_path(self, tmp_path, form):
        path = tmp_path / "missing" / "c.emb"
        with pytest.raises(FileNotFoundError) as err:
            save_embeddings(_random_corpus(np.random.default_rng(15)), path, form)
        assert str(err.value) == f"[Errno 2] No such file or directory: '{path}'"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_load_refuses_a_directory_and_a_pipe_without_blocking(self, tmp_path):
        """In a child process with a time limit, so that an open that waits for a writer fails this test."""
        os.mkfifo(tmp_path / "pipe.csv")
        run = _run_python("""
            import sys
            from samplerank.data import DataFormatError, load_embeddings
            for path in sys.argv[1:]:
                try:
                    load_embeddings(path)
                except DataFormatError as exc:
                    print(exc)
        """, tmp_path, tmp_path / "pipe.csv")
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [f"{path}: not a regular file" for path in (tmp_path, tmp_path / "pipe.csv")]


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

    def test_a_loaded_binary_corpus_holds_its_file_mapped(self, tmp_path):
        """2,000 x 128 binary corpus, a 1.05 MB file: its columns view the map, and only its splits are built.
        Held on the heap after the load: 1.05 MB (the whole file) when the file was read, 3.5 kB mapped."""
        rng = np.random.default_rng(16)
        path = tmp_path / "c.emb"
        save_embeddings(Corpus(columns=(np.arange(2000), rng.normal(size=(2000, 128)).astype(np.float32),
                                        rng.uniform(size=2000), np.zeros(2000))), path)
        tracemalloc.start()
        try:
            corpus = load_embeddings(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(corpus) == 2000 and held < 0.05 * path.stat().st_size

    def test_a_csv_load_peaks_near_its_columns(self, tmp_path):
        """1,000 x 512 pool CSV, 6.5 MB for 2.06 MB of columns: the reader holds one piece of the file and its
        lines, never the whole file or a list of every line. Peak over columns: 7.34 read whole, 2.09 in pieces."""
        rng = np.random.default_rng(17)
        path = tmp_path / "pool.csv"
        save_embeddings(Corpus(columns=(np.arange(1000), rng.normal(size=(1000, 512)).astype(np.float32),
                                        np.full(1000, np.nan), np.ones(1000))), path, "csv")
        tracemalloc.start()
        try:
            pool = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = pool.ids.nbytes + pool.vectors().nbytes + pool._ious.nbytes + pool.splits.nbytes
        assert len(pool) == 1000 and peak < 3 * columns

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
