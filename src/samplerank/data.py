"""Domain types and file IO for embedding corpora, plus the in-memory binary mask.

Embeddings travel in two interchangeable encodings:

* binary — magic ``EMB1``, u32-LE record count, u32-LE dimension, one u8
  split flag for the whole file (0=core, 1=finetune), then per record:
  u64-LE id, f32 measured IoU (NaN when absent), and the f32 vector.
* CSV — header ``id,split,iou,v0,...,v{D-1}``, then one record per line;
  an empty iou field means absent; floats written with 9 significant
  digits. Fields are never quoted (no field can hold a comma or a quote),
  so the reader takes a line's commas as its field separators and rejects
  any quote character. numpy parses all vector columns in one pass.

Masks are never read from files: ``BinaryMask`` lives in memory, for ``metrics.iou``.
"""

from __future__ import annotations

import csv
import math
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

SPLIT_CORE = "core"
SPLIT_FINETUNE = "finetune"
_SPLITS = (SPLIT_CORE, SPLIT_FINETUNE)

_EMB_MAGIC = b"EMB1"
_MAX_ID = 2**64 - 1


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class EmbeddingRecord:
    """One sample: a latent vector plus an optional measured IoU.

    Vectors are stored at 32-bit precision, matching the file format, so a
    record survives a save/load cycle bit-exactly.
    """

    id: int
    split: str
    vector: np.ndarray
    measured_iou: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or not 0 <= self.id <= _MAX_ID:
            raise ValueError(f"record id must be a non-negative integer, got {self.id!r}")
        if self.split not in _SPLITS:
            raise ValueError(f"split must be one of {_SPLITS}, got {self.split!r}")
        vec = np.asarray(self.vector, dtype=np.float32)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("vector must be a non-empty 1-D array")
        if not np.isfinite(vec).all():
            raise ValueError("vector contains non-finite values")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        if self.measured_iou is not None:
            iou = float(np.float32(self.measured_iou))
            if not math.isfinite(iou) or not 0.0 <= iou <= 1.0:
                raise ValueError(f"measured_iou must lie in [0,1], got {self.measured_iou!r}")
            object.__setattr__(self, "measured_iou", iou)
        if self.split == SPLIT_CORE and self.measured_iou is None:
            raise ValueError("core records require measured_iou")

    @property
    def dimension(self) -> int:
        return int(self.vector.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.split == other.split
            and self.measured_iou == other.measured_iou
            and np.array_equal(self.vector, other.vector)
        )


@dataclass(frozen=True)
class Corpus:
    """Ordered collection of records sharing one vector dimension."""

    records: tuple[EmbeddingRecord, ...]
    dimension: int = field(default=0)

    def __post_init__(self) -> None:
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        if records:
            dim = records[0].dimension
            if self.dimension and self.dimension != dim:
                raise ValueError(
                    f"declared dimension {self.dimension} does not match records ({dim})"
                )
            object.__setattr__(self, "dimension", dim)
        elif self.dimension < 1:
            raise ValueError("empty corpus needs an explicit positive dimension")
        seen: set[int] = set()
        for index, rec in enumerate(records):
            if rec.dimension != self.dimension:
                raise ValueError(
                    f"record {index}: dimension {rec.dimension} != corpus dimension {self.dimension}"
                )
            if rec.id in seen:
                raise ValueError(f"record {index}: duplicate id {rec.id}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def ids(self) -> list[int]:
        return [rec.id for rec in self.records]

    def vectors(self) -> np.ndarray:
        """Record vectors stacked row-wise as float64."""
        return np.stack([rec.vector for rec in self.records]).astype(np.float64)

    def measured_ious(self) -> np.ndarray:
        """Measured IoU per record; raises if any record lacks one."""
        values = []
        for index, rec in enumerate(self.records):
            if rec.measured_iou is None:
                raise ValueError(f"record {index} (id {rec.id}) has no measured_iou")
            values.append(rec.measured_iou)
        return np.asarray(values, dtype=np.float64)


@contextmanager
def read_model_file(path, magic: bytes, kind: str, header: str, file_size):
    """Read a whole model file; yields ``(blob, header_values)`` to the block that builds the model.

    *kind* completes the message "not <kind> file" for a wrong magic;
    ``file_size(*header_values)`` gives the exact size the file must have.
    A ValueError raised in the block (a non-finite value, a broken model
    invariant) leaves it as a DataFormatError naming the file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise DataFormatError(f"{path}: not {kind} file")
    size = 4 + struct.calcsize(header)
    if len(blob) < size:
        raise DataFormatError(f"{path}: truncated header, {len(blob)} of {size} bytes")
    values = struct.unpack_from(header, blob, 4)
    expected = file_size(*values)
    if len(blob) != expected:
        raise DataFormatError(f"{path}: size mismatch, expected {expected} bytes, got {len(blob)}")
    try:
        yield blob, values
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_f32(blob: bytes, offset: int, count: int) -> np.ndarray:
    """*count* little-endian f32 values at byte *offset*, as float64; NaN or inf raises ValueError."""
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite value at byte {offset + 4 * int(bad[0])}")
    return values


def save_embeddings(corpus: Corpus, path, format: str = "binary") -> None:
    """Write a corpus to *path*; ``load_embeddings`` reproduces it exactly."""
    if len(corpus) == 0:
        raise ValueError("refusing to save an empty corpus")
    if format == "binary":
        _save_binary(corpus, path)
    elif format == "csv":
        _save_csv(corpus, path)
    else:
        raise ValueError(f"unknown embedding format {format!r}")


def load_embeddings(path, format: str | None = None) -> Corpus:
    """Load a corpus, sniffing binary vs CSV by magic bytes when *format* is None."""
    if format is None:
        with open(path, "rb") as fh:
            format = "binary" if fh.read(4) == _EMB_MAGIC else "csv"
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown embedding format {format!r}")


def _save_binary(corpus: Corpus, path) -> None:
    splits = {rec.split for rec in corpus}
    if len(splits) != 1:
        raise ValueError("binary format stores one split per file; corpus mixes splits")
    split_flag = 0 if splits.pop() == SPLIT_CORE else 1
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<IIB", len(corpus), corpus.dimension, split_flag))
        for rec in corpus:
            iou = np.float32(np.nan if rec.measured_iou is None else rec.measured_iou)
            fh.write(struct.pack("<Q", rec.id))
            fh.write(iou.tobytes())
            fh.write(rec.vector.astype("<f4").tobytes())


def _load_binary(path) -> Corpus:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _EMB_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not an embedding file")
    if len(blob) < 13:
        raise DataFormatError(f"{path}: truncated header")
    count, dim, split_flag = struct.unpack_from("<IIB", blob, 4)
    if split_flag not in (0, 1):
        raise DataFormatError(f"{path}: unknown split flag {split_flag}")
    if dim == 0:
        raise DataFormatError(f"{path}: zero dimension in header")
    split = SPLIT_CORE if split_flag == 0 else SPLIT_FINETUNE
    record_size = 8 + 4 + 4 * dim
    expected = 13 + count * record_size
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: size mismatch, expected {expected} bytes for {count} records, got {len(blob)}"
        )
    if count == 0:  # no records may come with any dimension, even one no dtype can hold
        return Corpus((), dimension=dim)
    table = np.frombuffer(blob, dtype=[("id", "<u8"), ("iou", "<f4"), ("vector", "<f4", (dim,))], offset=13)
    ids, ious, vectors = table["id"].tolist(), table["iou"].tolist(), table["vector"]

    def record(i):
        return EmbeddingRecord(ids[i], split, vectors[i], None if math.isnan(ious[i]) else ious[i])

    return _corpus(path, dim, count, record)


def _save_csv(corpus: Corpus, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "split", "iou"] + [f"v{i}" for i in range(corpus.dimension)])
        for rec in corpus:
            iou = "" if rec.measured_iou is None else f"{rec.measured_iou:.9g}"
            writer.writerow([rec.id, rec.split, iou] + [f"{x:.9g}" for x in rec.vector])


def read_utf8(path) -> str:
    """The text of *path*; bytes that are not UTF-8 raise DataFormatError naming the line."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: line {line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_csv(path) -> Corpus:
    text = read_utf8(path)
    if '"' in text:
        line = text.count("\n", 0, text.index('"')) + 1
        raise DataFormatError(f"{path}: line {line}: quoted field; records are unquoted, one per line")
    lines = text.splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["id", "split", "iou"] or len(header) < 4:
        raise DataFormatError(f"{path}: malformed header {header!r}")
    dim = len(header) - 3
    if header[3:] != [f"v{i}" for i in range(dim)]:
        raise DataFormatError(f"{path}: malformed vector columns in header")
    rows = lines[1:]
    for index, line in enumerate(rows):
        if line.count(",") != 2 + dim:
            raise DataFormatError(f"{path}: record {index}: expected {3 + dim} fields, got {line.count(',') + 1}")
    try:  # every row holds 3 + dim fields, so numpy's row i is record i; numpy warns on no rows
        vectors = rows and np.loadtxt(
            rows, np.float32, comments=None, delimiter=",", usecols=range(3, 3 + dim), ndmin=2
        )
    except ValueError as exc:
        bad = re.search(r"at row (\d+), column (\d+)", str(exc))
        if bad is None:
            raise DataFormatError(f"{path}: {exc}") from None
        index, column = int(bad[1]), int(bad[2]) - 1
        value = rows[index].split(",")[column]
        raise DataFormatError(f"{path}: record {index}: v{column - 3} is not a number: {value!r}") from None
    head = [row.split(",", 3)[:3] for row in rows]  # id, split, iou

    def record(i):
        rec_id, split, iou = head[i]
        return EmbeddingRecord(int(rec_id), split, vectors[i], None if iou == "" else float(iou))

    return _corpus(path, dim, len(rows), record)


def _corpus(path, dim: int, count: int, record) -> Corpus:
    """Corpus of ``record(i)`` for i < *count*; a ValueError names the file and the record."""
    records = []
    for index in range(count):
        try:
            records.append(record(index))
        except ValueError as exc:
            raise DataFormatError(f"{path}: record {index}: {exc}") from exc
    try:
        return Corpus(tuple(records), dimension=dim)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class BinaryMask:
    """Boolean pixel grid; True marks the positive (building) class."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mask dimensions must be positive")
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.height, self.width):
            raise ValueError(
                f"bits shape {bits.shape} does not match (height, width)=({self.height}, {self.width})"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
