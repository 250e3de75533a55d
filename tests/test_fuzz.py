"""Seeded reader fuzz: corrupted inputs end in a clean exit or a named error, never a traceback.

``rank`` reads four binary files (the pool and three model files) and
optionally a CSV pool. Each case corrupts one of them and requires exit 0,
or exit 2 with the corrupted file's name on stderr. Any other exception
escapes ``main`` and fails the test.
"""

import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

from samplerank.cli import main
from samplerank.data import save_embeddings
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
