"""Seeded reader fuzz: corrupted inputs end in a clean exit or a named error, never a traceback.

``rank`` reads four binary files (the pool and three model files) and
optionally a CSV pool. Each case corrupts one of them and requires exit 0,
or exit 2 with the corrupted file's name on stderr. Any other exception
escapes ``main`` and fails the test.

The netpbm mask reader gets the same treatment directly: every corrupted
P1/P2/P4/P5 file must load as a ``BinaryMask`` or raise a
``DataFormatError`` that names the file.
"""

import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

from samplerank.cli import main
from samplerank.data import BinaryMask, DataFormatError, load_mask, save_embeddings
from samplerank.synthetic import NovelClusterSpec, default_spec, generate_synthetic

# file name -> (header size, struct format and offset of its u32 fields)
BINARIES = {
    "pool.emb": (13, "<II", 4),
    "pca.bin": (12, "<II", 4),
    "clusters.bin": (12, "<II", 4),
    "iou_refs.bin": (16, "<III", 4),
}
FLIPS_PER_FILE = 30


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = replace(default_spec(seed=17), core_n=120, ft_n=90,
                   novel_clusters=(NovelClusterSpec(size=12),))
    core, pool, _ = generate_synthetic(spec)
    save_embeddings(core, root / "core.emb", "binary")
    save_embeddings(pool, root / "pool.emb", "binary")
    save_embeddings(pool, root / "pool.csv", "csv")
    assert main(["--out-dir", str(root), "fit", "--core", str(root / "core.emb")]) == 0
    return root


class _Rank:
    """Runs ``rank`` on a private copy of the inputs with one file replaced."""

    def __init__(self, pristine, tmp_path, capsys):
        self.dir = tmp_path
        self.capsys = capsys
        self.blobs = {}
        for name in (*BINARIES, "pool.csv"):
            shutil.copy(pristine / name, tmp_path / name)
            self.blobs[name] = (pristine / name).read_bytes()
        self.failures = []

    def run(self, name, blob, case):
        (self.dir / name).write_bytes(blob)
        pool = "pool.csv" if name == "pool.csv" else "pool.emb"
        self.capsys.readouterr()
        try:
            code = main(["--out-dir", str(self.dir), "rank", "--finetune", str(self.dir / pool)])
        finally:
            (self.dir / name).write_bytes(self.blobs[name])
        err = self.capsys.readouterr().err
        if not (code == 0 or (code == 2 and name in err)):
            self.failures.append(f"{name} {case}: exit {code}: {err.strip()}")

    def check(self):
        assert not self.failures, "\n".join(self.failures)


@pytest.fixture
def rank(pristine, tmp_path, capsys):
    return _Rank(pristine, tmp_path, capsys)


@pytest.mark.parametrize("name", BINARIES)
def test_truncated_at_every_header_offset(rank, name):
    for size in range(BINARIES[name][0] + 1):
        rank.run(name, rank.blobs[name][:size], f"cut at {size}")
    rank.check()


@pytest.mark.parametrize("name", BINARIES)
def test_huge_header_counts(rank, name):
    _, fmt, offset = BINARIES[name]
    for field in range(len(fmt) - 1):
        for huge in (2**31, 2**32 - 1):
            values = list(struct.unpack_from(fmt, rank.blobs[name], offset))
            values[field] = huge
            blob = bytearray(rank.blobs[name])
            struct.pack_into(fmt, blob, offset, *values)
            rank.run(name, bytes(blob), f"field {field} = {huge}")
    rank.check()


@pytest.mark.parametrize("name", [*BINARIES, "pool.csv"])
def test_seeded_byte_flips(rank, name):
    rng = np.random.default_rng([0xF122, *name.encode()])
    for _ in range(FLIPS_PER_FILE):
        blob = bytearray(rank.blobs[name])
        pos = int(rng.integers(len(blob)))
        blob[pos] ^= int(rng.integers(1, 256))
        rank.run(name, bytes(blob), f"byte {pos} -> {blob[pos]:#04x}")
    rank.check()


def _mask(magic, width="5", height="3", maxval="255"):
    """A 5x3 mask in one netpbm flavour, header fields given as text."""
    if magic == "P1":
        header, body = f"P1\n# plain bitmap\n{width} {height}\n", b"10110\n01001\n11100\n"
    elif magic == "P2":
        header = f"P2\n{width} {height}\n{maxval}\n"
        body = b"0 255 128 127 9\n200 1 0 255 30\n64 128 192 255 0\n"
    elif magic == "P4":
        header, body = f"P4\n# raw bitmap\n{width} {height}\n", bytes([0b10110000, 0b01001000, 0b11100000])
    else:
        header, body = f"P5\n{width} {height}\n{maxval}\n", bytes(range(0, 255, 17))
    return header.encode() + body


MASKS = ("P1", "P2", "P4", "P5")
MASK_FLIPS = 200
HEADER_VALUES = ("0", "-1", str(2**32), str(10**12))


class _MaskLoad:
    def __init__(self, path):
        self.path = path
        self.failures = []

    def run(self, blob, case):
        self.path.write_bytes(blob)
        try:
            mask = load_mask(self.path)
        except DataFormatError as exc:
            if str(self.path) not in str(exc):
                self.failures.append(f"{case}: unnamed DataFormatError: {exc}")
        except Exception as exc:  # anything else is a reader fault
            self.failures.append(f"{case}: {type(exc).__name__}: {exc}")
        else:
            if not isinstance(mask, BinaryMask):
                self.failures.append(f"{case}: returned {type(mask).__name__}")

    def check(self):
        assert not self.failures, "\n".join(self.failures)


@pytest.fixture
def mask_load(tmp_path):
    return _MaskLoad(tmp_path / "mask.pnm")


@pytest.mark.parametrize("magic", MASKS)
def test_mask_samples_load(magic, mask_load):
    mask_load.run(_mask(magic), "pristine")
    mask_load.check()
    assert load_mask(mask_load.path).bits.shape == (3, 5)


@pytest.mark.parametrize("magic", MASKS)
def test_mask_cut_at_every_offset(magic, mask_load):
    blob = _mask(magic)
    for size in range(len(blob)):
        mask_load.run(blob[:size], f"{magic} cut at {size}")
    mask_load.check()


@pytest.mark.parametrize("magic", MASKS)
def test_mask_seeded_byte_flips(magic, mask_load):
    rng = np.random.default_rng([0xF122, *magic.encode()])
    for _ in range(MASK_FLIPS):
        blob = bytearray(_mask(magic))
        pos = int(rng.integers(len(blob)))
        blob[pos] ^= int(rng.integers(1, 256))
        mask_load.run(bytes(blob), f"{magic} byte {pos} -> {blob[pos]:#04x}")
    mask_load.check()


@pytest.mark.parametrize("magic", MASKS)
def test_mask_extreme_header_values(magic, mask_load):
    fields = ("width", "height") + (("maxval",) if magic in ("P2", "P5") else ())
    for field in fields:
        for value in HEADER_VALUES:
            mask_load.run(_mask(magic, **{field: value}), f"{magic} {field} = {value}")
    mask_load.check()
