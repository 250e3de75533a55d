"""Corpus construction, file round-trips, and mask parsing."""

import warnings

import numpy as np
import pytest

from samplerank.cli import main
from samplerank.data import (
    BinaryMask,
    Corpus,
    DataFormatError,
    EmbeddingRecord,
    load_embeddings,
    load_mask,
    save_embeddings,
)


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
    def test_core_requires_measured_iou(self):
        with pytest.raises(ValueError, match="measured_iou"):
            EmbeddingRecord(id=0, split="core", vector=np.ones(3))

    def test_finetune_iou_optional(self):
        rec = EmbeddingRecord(id=0, split="finetune", vector=np.ones(3))
        assert rec.measured_iou is None

    def test_rejects_nan_vector(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingRecord(id=0, split="finetune", vector=np.array([1.0, np.nan]))

    def test_rejects_out_of_range_iou(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            EmbeddingRecord(id=0, split="core", vector=np.ones(2), measured_iou=1.5)

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="non-negative"):
            EmbeddingRecord(id=-1, split="core", vector=np.ones(2), measured_iou=0.5)

    def test_rejects_unknown_split(self):
        with pytest.raises(ValueError, match="split"):
            EmbeddingRecord(id=0, split="validation", vector=np.ones(2))


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
        with pytest.raises(ValueError):
            Corpus(())
        assert len(Corpus((), dimension=5)) == 0


class TestEmbeddingRoundTrip:
    def test_binary_round_trip_is_exact(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(0))
        path = tmp_path / "c.emb"
        save_embeddings(corpus, path, "binary")
        loaded = load_embeddings(path, "binary")
        assert loaded == corpus

    def test_csv_round_trip_within_tolerance(self, tmp_path):
        corpus = _random_corpus(np.random.default_rng(1))
        path = tmp_path / "c.csv"
        save_embeddings(corpus, path, "csv")
        loaded = load_embeddings(path, "csv")
        for a, b in zip(loaded, corpus):
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

    def test_empty_corpus_refuses_to_save(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_embeddings(Corpus((), dimension=3), tmp_path / "x.emb")

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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="header|magic"):
            load_embeddings(path, "binary")

    def test_malformed_csv_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,iou,v0\n1,0.5,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_embeddings(path, "csv")

    def test_missing_core_iou_in_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,split,iou,v0\n0,core,,1.0\n")
        with pytest.raises(DataFormatError, match="record 0"):
            load_embeddings(path)


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


class TestMasks:
    def test_plain_pgm_threshold(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n2 2\n255\n255 0\n0 255\n")
        mask = load_mask(path)
        assert mask.bits.tolist() == [[True, False], [False, True]]

    def test_all_zero_pgm(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n4 4\n255\n" + " ".join(["0"] * 16) + "\n")
        assert not load_mask(path).bits.any()

    def test_threshold_is_strictly_above_127(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n2 1\n255\n127 128\n")
        assert load_mask(path).bits.tolist() == [[False, True]]

    def test_raw_pgm(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([255, 0, 0, 200]))
        assert load_mask(path).bits.tolist() == [[True, False], [False, True]]

    def test_plain_pbm(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_text("P1\n3 2\n101\n010\n")
        assert load_mask(path).bits.tolist() == [[True, False, True], [False, True, False]]

    def test_raw_pbm_row_padding(self, tmp_path):
        # 3-wide rows still occupy one padded byte each
        path = tmp_path / "m.pbm"
        path.write_bytes(b"P4\n3 2\n" + bytes([0b10100000, 0b01000000]))
        assert load_mask(path).bits.tolist() == [[True, False, True], [False, True, False]]

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(DataFormatError, match="truncated"):
            load_mask(path)

    def test_truncated_plain_pixels(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n4 4\n255\n1 2 3\n")
        with pytest.raises(DataFormatError, match="truncated"):
            load_mask(path)

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n# a comment\n2 1\n255\n255 0\n")
        assert load_mask(path).bits.tolist() == [[True, False]]

    def test_mask_shape_validation(self):
        with pytest.raises(ValueError):
            BinaryMask(width=2, height=2, bits=np.zeros((3, 2), dtype=bool))
