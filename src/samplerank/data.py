r"""Domain types and file IO for embedding corpora, plus the in-memory binary mask.

Embeddings travel in two interchangeable encodings:

* binary — magic ``EMB1``, u32-LE record count, u32-LE dimension, one u8
  split flag for the whole file (0=core, 1=finetune), then per record:
  u64-LE id, f32 measured IoU (NaN when absent), and the f32 vector, in
  the container that ``read_binary_file`` reads for the model files too.
* CSV — header ``id,split,iou,v0,...,v{D-1}``, then one record per line;
  a line ends at ``\n``, ``\r\n`` or ``\r`` and at nothing else; an empty
  iou field means absent; floats written with 9 significant digits. Fields
  are never quoted (no field can hold a comma or a quote), so the reader
  takes a line's commas as its field separators and rejects any quote
  character. numpy parses the vector columns; errors name the first bad record.

A ``Corpus`` holds a file's records as columns; ``EmbeddingRecord`` is a plain value that only
``Corpus(records)`` checks. Masks are never read from files: ``BinaryMask`` lives in memory, for
``metrics.iou``.
"""

from __future__ import annotations

import io
import math
import numbers
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

SPLIT_CORE = "core"
SPLIT_FINETUNE = "finetune"
SPLITS = (SPLIT_CORE, SPLIT_FINETUNE)  # a Corpus stores each record's split as its index here

_EMB_MAGIC = b"EMB1"
# count, dimension, split flag; then raw records, so the size is checked before _emb_records(dim) can fail
_EMB_LAYOUT = _EMB_MAGIC, "<IIB", lambda count, dim, split: [("<u1", (count, 12 + 4 * dim))]
_MAX_ID = 2**64 - 1


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed or fails validation."""


def read_only(value, dtype) -> np.ndarray:
    """*value* as a read-only array of *dtype*, for a column or frozen model to keep; a caller's array
    of that dtype is frozen as a view, so the caller's own object stays writable."""
    arr = np.asarray(value, dtype=dtype)
    if arr is value:  # no copy was made: freeze a view, not the caller's own object
        arr = arr.view()
    arr.setflags(write=False)
    return arr


def _split_index(rec_id, split: str) -> int:
    """The index in SPLITS of a record's *split*, once its id and split are checked."""
    if not isinstance(rec_id, (int, numbers.Integral)) or not 0 <= rec_id <= _MAX_ID:  # int first: ABCs are slow
        raise ValueError(f"record id must be a non-negative integer, got {rec_id!r}")
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    return SPLITS.index(split)


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    """One sample as plain values, a latent vector plus an optional measured IoU; ``Corpus`` checks it."""

    id: int
    split: str
    vector: np.ndarray
    measured_iou: float | None = None


class Corpus:
    """Samples as read-only columns of one vector dimension: ``ids`` (u64), ``vectors()`` (f32,
    n x D), IoUs (f32, NaN when absent) and ``splits`` (u8, indices into SPLITS).

    The loaders and the generator pass ``columns=(ids, vectors, ious, splits)``, as an empty corpus
    must; a column already of its dtype is kept, so a binary file's vectors stay a view of its bytes.
    ``Corpus(records)`` stacks EmbeddingRecords and ``records`` builds them back. Records are checked
    here and only here, once each; a ValueError names the first bad record.
    """

    def __init__(self, records=(), *, columns=None) -> None:
        ids, vectors, ious, splits = _stacked(tuple(records)) if columns is None else columns
        self.ids, self.splits = read_only(ids, np.uint64), read_only(splits, np.uint8)
        self._vectors = read_only(vectors, np.float32)
        fault = _first_fault(self._vectors, ious, self.splits, self.ids)
        if fault:
            raise ValueError("record %d: %s" % fault)
        self._ious, self.dimension = read_only(ious, np.float32), self._vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        columns = ("ids", "splits", "_ious", "_vectors")  # the vectors' shapes hold the dimensions
        return all(np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True) for c in columns)

    @property
    def records(self) -> tuple[EmbeddingRecord, ...]:
        """The samples as EmbeddingRecords of int ids, float or None IoUs and read-only f32 row views."""
        columns = zip(self.ids.tolist(), self.splits.tolist(), self._vectors, self._ious.tolist())
        return tuple(EmbeddingRecord(i, SPLITS[s], v, None if math.isnan(u) else u) for i, s, v, u in columns)

    def vectors(self) -> np.ndarray:
        """Record vectors row-wise at their stored float32 precision, read-only."""
        return self._vectors

    def measured_ious(self) -> np.ndarray:
        """Measured IoU per record as float64; raises if any record lacks one."""
        missing = np.flatnonzero(np.isnan(self._ious))
        if missing.size:
            raise ValueError(f"record {missing[0]} (id {self.ids[missing[0]]}) has no measured_iou")
        return self._ious.astype(np.float64)


def _stacked(records: tuple[EmbeddingRecord, ...]):
    """The columns of *records*, checking what the columns cannot show: ids, splits, vector shapes and
    NaN IoUs. A column fault of a record before a bad one is named first."""
    if not records:
        raise ValueError("an empty corpus is built from columns=, whose vectors give its dimension")
    dim, splits = np.size(records[0].vector), []
    for index, rec in enumerate(records):
        try:
            size = np.size(rec.vector)
            if np.ndim(rec.vector) != 1 or not size:
                raise ValueError("vector must be a non-empty 1-D array")
            if size != dim:
                raise ValueError(f"dimension {size} != corpus dimension {dim}")
            splits.append(_split_index(rec.id, rec.split))
            if rec.measured_iou is not None and math.isnan(rec.measured_iou):  # NaN marks an absent IoU
                raise ValueError(f"measured_iou must lie in [0,1], got {rec.measured_iou!r}")
        except (TypeError, ValueError) as exc:
            if index:
                Corpus(records[:index])  # raises for a column fault of an earlier record
            raise ValueError(f"record {index}: {exc}") from None
    ious = [math.nan if rec.measured_iou is None else rec.measured_iou for rec in records]
    return [rec.id for rec in records], np.array([rec.vector for rec in records], np.float32), ious, splits


def _first_fault(vectors: np.ndarray, ious, splits, ids) -> tuple[int, str] | None:
    """(index, message) of the first record with a non-finite vector, a float32 IoU outside [0,1], a
    core split without an IoU or an id an earlier record holds, each record checked in that order;
    a NaN IoU is an absent one."""
    ious, splits, ids = np.asarray(ious), np.asarray(splits), np.asarray(ids, np.uint64)
    rounded, order = np.asarray(ious, np.float32), np.argsort(ids, kind="stable")  # equal ids stay in order
    faults = (
        ~(np.isfinite(vectors.max(axis=1)) & np.isfinite(vectors.min(axis=1))),  # max and min keep a NaN
        np.isinf(rounded) | (rounded < 0) | (rounded > 1),
        np.isnan(rounded) & (splits == SPLITS.index(SPLIT_CORE)),
        np.isin(np.arange(len(ids)), order[1:][ids[order[1:]] == ids[order[:-1]]]),
    )
    firsts = [(bad.argmax(), check) for check, bad in enumerate(faults) if bad.any()]
    if not firsts:
        return None
    index, check = min(firsts)
    iou = ious[index].item()  # as given, before rounding
    return index, ("vector contains non-finite values", f"measured_iou must lie in [0,1], got {iou!r}",
                   "core records require measured_iou", f"duplicate id {ids[index]}")[check]


def write_binary_file(path, layout, counts, arrays) -> bytes | None:
    """Write the header *counts* and the payload *arrays* in *layout*, as ``read_binary_file`` reads them,
    or with *path* None return the bytes. A float its dtype cannot hold becomes inf, which the reader refuses."""
    magic, header, payload = layout
    with np.errstate(over="ignore"), (io.BytesIO() if path is None else open(path, "wb")) as fh:
        fh.write(magic + struct.pack(header, *counts))
        for (dtype, shape), array in zip(payload(*counts), arrays, strict=True):
            fh.write(np.asarray(array).astype(dtype, copy=False).reshape(shape).tobytes())
        return fh.getvalue() if path is None else None


@contextmanager
def read_binary_file(path, kind: str, layout, blob: bytes | None = None):
    """Read a whole binary file, or the bytes *blob* in its place, named *path*; yields ``(counts, arrays)``
    to the block that builds its contents.

    *layout* is ``(magic, header, payload)``: the file holds the 4-byte magic, the counts packed by
    the ``struct`` format *header*, then back to back, with nothing after, the arrays that
    ``payload(*counts)`` lists in file order as ``(dtype, shape)`` pairs; shape ``()`` is a scalar,
    dtype ``"?"`` a 0/1 flag byte. Floats come back as float64, other arrays as read-only views of the
    bytes; a NaN or inf, or a flag other than 0 or 1, raises naming its byte offset. *kind* ends the
    message "not <kind> file". A ValueError raised in the block leaves as a DataFormatError naming the file.
    """
    magic, header, payload = layout
    if blob is None:
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
    columns = _load_binary(path, blob) if blob[:4] == _EMB_MAGIC else _load_csv(path, blob)
    try:
        return Corpus(columns=columns)
    except ValueError as exc:  # it names the record
        raise DataFormatError(f"{path}: {exc}") from None


def _emb_records(dim: int) -> np.dtype:
    """One binary record: u64-LE id, f32 measured IoU (NaN when absent), then the f32 vector."""
    return np.dtype([("id", "<u8"), ("iou", "<f4"), ("vector", "<f4", (dim,))])


def _save_binary(corpus: Corpus, path) -> None:
    if (corpus.splits != corpus.splits[0]).any():
        raise ValueError("binary format stores one split per file; corpus mixes splits")
    table = np.empty(len(corpus), _emb_records(corpus.dimension))
    table["id"], table["iou"], table["vector"] = corpus.ids, corpus._ious, corpus.vectors()
    write_binary_file(path, _EMB_LAYOUT, (len(corpus), corpus.dimension, corpus.splits[0]), [table.view(np.uint8)])


def _load_binary(path, blob: bytes) -> tuple:
    with read_binary_file(path, "an embedding", _EMB_LAYOUT, blob) as ((count, dim, split), (raw,)):
        if split not in (0, 1):
            raise ValueError(f"unknown split flag {split}")
        if dim == 0:
            raise ValueError("zero dimension in header")
        if count == 0:  # no records may come with any dimension, even one no dtype can hold
            return (), np.empty((0, dim), np.float32), (), ()
        table = raw.view(_emb_records(dim))[:, 0]  # fields are views of the file's bytes
        return table["id"], table["vector"], table["iou"], np.full(count, split, np.uint8)


def _save_csv(corpus: Corpus, path) -> None:
    line = "%d,%s,%s," + ",".join(["%.9g"] * corpus.dimension) + "\r\n"  # the float32 values' 9 digits
    columns = zip(corpus.ids.tolist(), corpus.splits.tolist(), corpus._ious.tolist(), corpus.vectors())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["id", "split", "iou"] + [f"v{i}" for i in range(corpus.dimension)]) + "\r\n")
        for rec_id, split, iou, vector in columns:
            fh.write(line % (rec_id, SPLITS[split], "" if math.isnan(iou) else f"{iou:.9g}", *vector.tolist()))


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


def _load_csv(path, blob: bytes) -> tuple:
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
    rows, ids, ious, splits, fault = lines[1:], [], [], [], None
    for index, row in enumerate(rows):  # up to the first record whose fields cannot be parsed
        try:
            if row.count(b",") != 2 + dim:
                raise ValueError(f"expected {3 + dim} fields, got {row.count(b',') + 1}")
            rec_id, split, text = (field.decode() for field in row.split(b",", 3)[:3])
            ids.append(int(rec_id))
            ious.append(float(text) if text else math.nan)
            splits.append(_split_index(ids[-1], split))
            if text and math.isnan(ious[-1]):  # the IoU column's NaN marks an empty field
                raise ValueError(f"measured_iou must lie in [0,1], got {ious[-1]!r}")
        except ValueError as exc:
            fault = index, exc
            break
    vectors, stop = None, len(rows) if fault is None else fault[0]
    while vectors is None:  # numpy parses the vectors before the stop; a row it cannot parse becomes the stop
        try:  # every row before the stop holds 3 + dim fields, so numpy's row i is record i; it warns on no rows
            vectors = np.loadtxt(
                rows[:stop], np.float32, comments=None, delimiter=",", usecols=range(3, 3 + dim), ndmin=2,
                encoding="utf-8") if stop else np.empty((0, dim), np.float32)
        except ValueError as exc:
            bad = re.search(r"at row (\d+), column (\d+)", str(exc))
            if bad is None:
                raise DataFormatError(f"{path}: {exc}") from None
            stop, column = int(bad[1]), int(bad[2]) - 1
            fault = stop, f"v{column - 3} is not a number: {rows[stop].split(b',')[column].decode()!r}"
    if fault is not None:  # a column fault of an earlier record comes first
        ids, ious, splits = ids[:stop], ious[:stop], splits[:stop]
        raise DataFormatError(f"{path}: record %d: %s" % (_first_fault(vectors, ious, splits, ids) or fault))
    return ids, vectors, np.array(ious), splits


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
