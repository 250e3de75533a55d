r"""Domain types and file IO for embedding corpora, plus the in-memory binary mask.

Embeddings travel in two interchangeable encodings:

* binary — magic ``EMB1``, u32-LE record count, u32-LE dimension, one u8
  split flag for the whole file (0=core, 1=finetune), then per record:
  u64-LE id, f32 measured IoU (NaN when absent), and the f32 vector.
* CSV — header ``id,split,iou,v0,...,v{D-1}``, then one record per line;
  a line ends at ``\n``, ``\r\n`` or ``\r`` and at nothing else; an empty
  iou field means absent; floats written with 9 significant digits. Fields
  are never quoted (no field can hold a comma or a quote), so the reader
  takes a line's commas as its field separators and rejects any quote
  character. numpy parses all vector columns in one pass.

Masks are never read from files: ``BinaryMask`` lives in memory, for ``metrics.iou``.
"""

from __future__ import annotations

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
_EMB_HEADER = "<IIB"  # record count, dimension, split flag
_MAX_ID = 2**64 - 1


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed or fails validation."""


def read_only(value, dtype) -> np.ndarray:
    """*value* as a read-only array of *dtype* for a record to keep; the caller's array stays writable."""
    arr = np.asarray(value, dtype=dtype)
    if arr is value:  # no copy was made: freeze a view, not the caller's own object
        arr = arr.view()
    arr.setflags(write=False)
    return arr


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
        vec = read_only(self.vector, np.float32)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("vector must be a non-empty 1-D array")
        if not np.isfinite(vec).all():
            raise ValueError("vector contains non-finite values")
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
        """Record vectors stacked row-wise at their stored float32 precision."""
        return np.stack([rec.vector for rec in self.records])

    def measured_ious(self) -> np.ndarray:
        """Measured IoU per record; raises if any record lacks one."""
        for index, rec in enumerate(self.records):
            if rec.measured_iou is None:
                raise ValueError(f"record {index} (id {rec.id}) has no measured_iou")
        return np.array([rec.measured_iou for rec in self.records], dtype=np.float64)


def write_model_file(path, layout, counts, arrays) -> None:
    """Write the header *counts* and the payload *arrays* in *layout*, as ``read_model_file`` reads them."""
    magic, header, payload = layout
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header, *counts))
        for (dtype, shape), array in zip(payload(*counts), arrays, strict=True):
            fh.write(np.asarray(array).astype(dtype).reshape(shape).tobytes())


@contextmanager
def read_model_file(path, kind: str, layout):
    """Read a whole model file; yields ``(counts, arrays)`` to the block that builds the model.

    *layout* is ``(magic, header, payload)``: the file holds the 4-byte magic, the counts packed by
    the ``struct`` format *header*, then back to back, with nothing after, the arrays that
    ``payload(*counts)`` lists in file order as ``(dtype, shape)`` pairs; shape ``()`` is a scalar,
    dtype ``"?"`` a 0/1 flag byte. Floats come back as float64; a NaN or inf, or a flag other than 0
    or 1, raises naming its byte offset. *kind* ends the wrong-magic message "not <kind> file". A
    ValueError raised in the block (a broken model invariant) leaves as a DataFormatError naming the file.
    """
    magic, header, payload = layout
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise DataFormatError(f"{path}: not {kind} file")
    offset = 4 + struct.calcsize(header)
    if len(blob) < offset:
        raise DataFormatError(f"{path}: truncated header, {len(blob)} of {offset} bytes")
    counts = struct.unpack_from(header, blob, 4)
    fields = [(np.dtype(dtype), shape, math.prod(shape)) for dtype, shape in payload(*counts)]
    expected = offset + sum(dtype.itemsize * size for dtype, _, size in fields)
    if len(blob) != expected:
        raise DataFormatError(f"{path}: size mismatch, expected {expected} bytes, got {len(blob)}")
    arrays = []
    for dtype, shape, size in fields:
        raw = np.frombuffer(blob, dtype, size, offset)
        if dtype.kind in "fb":
            bad = np.flatnonzero(~np.isfinite(raw) if dtype.kind == "f" else raw.view(np.uint8) > 1)
            if bad.size:
                what = "non-finite value" if dtype.kind == "f" else "flag other than 0 or 1"
                raise DataFormatError(f"{path}: {what} at byte {offset + dtype.itemsize * int(bad[0])}")
        arrays.append((raw.astype(np.float64) if dtype.kind == "f" else raw).reshape(shape))
        offset += dtype.itemsize * size
    try:
        yield counts, arrays
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


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


def load_embeddings(path) -> Corpus:
    """Load a corpus: binary when the file starts with the ``EMB1`` magic, CSV otherwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return _load_binary(path, blob) if blob[:4] == _EMB_MAGIC else _load_csv(path, blob)


def _emb_records(dim: int) -> np.dtype:
    """One binary record: u64-LE id, f32 measured IoU (NaN when absent), then the f32 vector."""
    return np.dtype([("id", "<u8"), ("iou", "<f4"), ("vector", "<f4", (dim,))])


def _save_binary(corpus: Corpus, path) -> None:
    splits = {rec.split for rec in corpus}
    if len(splits) != 1:
        raise ValueError("binary format stores one split per file; corpus mixes splits")
    split_flag = 0 if splits.pop() == SPLIT_CORE else 1
    table = np.empty(len(corpus), _emb_records(corpus.dimension))
    table["id"] = corpus.ids
    table["iou"] = [np.nan if rec.measured_iou is None else rec.measured_iou for rec in corpus]
    table["vector"] = np.stack([rec.vector for rec in corpus])
    with open(path, "wb") as fh:
        fh.write(_EMB_MAGIC + struct.pack(_EMB_HEADER, len(corpus), corpus.dimension, split_flag))
        fh.write(table.tobytes())


def _load_binary(path, blob: bytes) -> Corpus:
    offset = 4 + struct.calcsize(_EMB_HEADER)
    if len(blob) < offset:
        raise DataFormatError(f"{path}: truncated header")
    count, dim, split_flag = struct.unpack_from(_EMB_HEADER, blob, 4)
    if split_flag not in (0, 1):
        raise DataFormatError(f"{path}: unknown split flag {split_flag}")
    if dim == 0:
        raise DataFormatError(f"{path}: zero dimension in header")
    split = SPLIT_CORE if split_flag == 0 else SPLIT_FINETUNE
    expected = offset + count * (_emb_records(0).itemsize + 4 * dim)  # _emb_records(dim) fails from about 2**29
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: size mismatch, expected {expected} bytes for {count} records, got {len(blob)}"
        )
    if count == 0:  # no records may come with any dimension, even one no dtype can hold
        return Corpus((), dimension=dim)
    table = np.frombuffer(blob, dtype=_emb_records(dim), offset=offset)
    ids, ious, vectors = table["id"].tolist(), table["iou"].tolist(), table["vector"]

    def record(i):
        return EmbeddingRecord(ids[i], split, vectors[i], None if math.isnan(ious[i]) else ious[i])

    return _corpus(path, dim, count, record)


def _save_csv(corpus: Corpus, path) -> None:
    line = "%d,%s,%s," + ",".join(["%.9g"] * corpus.dimension) + "\r\n"  # the float32 values' 9 digits
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["id", "split", "iou"] + [f"v{i}" for i in range(corpus.dimension)]) + "\r\n")
        for rec in corpus:
            iou = "" if rec.measured_iou is None else f"{rec.measured_iou:.9g}"
            fh.write(line % (rec.id, rec.split, iou, *rec.vector.tolist()))


def read_utf8(path) -> str:
    """The text of *path*; bytes that are not UTF-8 raise DataFormatError naming the line."""
    with open(path, "rb") as fh:
        return _decode_utf8(path, fh.read())


def _decode_utf8(path, blob: bytes) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(blob[: exc.start + 1].splitlines())  # lines end as records do
        raise DataFormatError(f"{path}: line {line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_csv(path, blob: bytes) -> Corpus:
    if not blob.isascii():  # ASCII is valid UTF-8; fields decode one by one below
        _decode_utf8(path, blob)
    if b'"' in blob:
        line = len(blob[: blob.index(b'"') + 1].splitlines())
        raise DataFormatError(f"{path}: line {line}: quoted field; records are unquoted, one per line")
    lines = blob.splitlines()  # records end at \n, \r\n or \r and at nothing else
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].decode().split(",")
    if header[:3] != ["id", "split", "iou"] or len(header) < 4:
        raise DataFormatError(f"{path}: malformed header {header!r}")
    dim = len(header) - 3
    if header[3:] != [f"v{i}" for i in range(dim)]:
        raise DataFormatError(f"{path}: malformed vector columns in header")
    rows = lines[1:]
    for index, line in enumerate(rows):
        if line.count(b",") != 2 + dim:
            raise DataFormatError(f"{path}: record {index}: expected {3 + dim} fields, got {line.count(b',') + 1}")
    try:  # every row holds 3 + dim fields, so numpy's row i is record i; numpy warns on no rows
        vectors = rows and np.loadtxt(
            rows, np.float32, comments=None, delimiter=",", usecols=range(3, 3 + dim), ndmin=2, encoding="utf-8"
        )
    except ValueError as exc:
        bad = re.search(r"at row (\d+), column (\d+)", str(exc))
        if bad is None:
            raise DataFormatError(f"{path}: {exc}") from None
        index, column = int(bad[1]), int(bad[2]) - 1
        value = rows[index].split(b",")[column].decode()
        raise DataFormatError(f"{path}: record {index}: v{column - 3} is not a number: {value!r}") from None
    head = [row.split(b",", 3)[:3] for row in rows]  # id, split, iou

    def record(i):
        rec_id, split, iou = (field.decode() for field in head[i])
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
        bits = read_only(self.bits, bool)
        if bits.shape != (self.height, self.width):
            raise ValueError(
                f"bits shape {bits.shape} does not match (height, width)=({self.height}, {self.width})"
            )
        object.__setattr__(self, "bits", bits)
