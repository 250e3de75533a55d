"""Output checks. Each returns a list of problems; an empty list means the output is correct.

The checks read the program's files with the benchmark's own code: the
queue CSV with the csv module, and ``pca.bin`` / ``iou_refs.bin`` with
numpy, so that a fault in the program's readers cannot hide a fault in its
writers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct

import numpy as np

QUEUE_HEADER = ["rank", "id", "score", "dist", "pred_iou", "loop", "orph", "err"]
FEATURES = ("dist", "pred_iou", "loop", "orph", "err")

# queue values are written with 9 significant digits, so a score recomputed
# from the written features can differ from the written score by ~1e-9
SCORE_TOLERANCE = 1e-8
# brute-force IoU prediction from the float32 model files, against the
# written pred_iou: float64 summation order plus 9-digit output rounding
PRED_IOU_TOLERANCE = 1e-6
PRED_IOU_SAMPLE = 64

BPS = (0.75, 0.25)
MPS = (0.50, 0.25, 0.20, 0.05)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Queue:
    """Columns of a queue CSV: ``rank``/``id`` as int64, the rest as float64."""

    def __init__(self, path: str):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != QUEUE_HEADER:
            raise ValueError(f"{path}: header {rows[0] if rows else None!r}, expected {QUEUE_HEADER}")
        body = rows[1:]
        if any(len(r) != len(QUEUE_HEADER) for r in body):
            raise ValueError(f"{path}: row with a wrong number of fields")
        self.rank = np.array([int(r[0]) for r in body], dtype=np.int64)
        self.id = np.array([int(r[1]) for r in body], dtype=np.int64)
        values = np.array([[float(x) for x in r[2:]] for r in body], dtype=np.float64).reshape(-1, 6)
        self.score = values[:, 0]
        self.features = {name: values[:, 1 + j] for j, name in enumerate(FEATURES)}

    def __len__(self) -> int:
        return self.id.size


def bps_score(f: dict) -> np.ndarray:
    a, b = BPS
    return a * f["dist"] + b * (1.0 - f["pred_iou"])


def mps_score(f: dict) -> np.ndarray:
    a, b, c, d = MPS
    inner = a * f["orph"] + b * f["err"] + c * f["dist"] + d * (1.0 - f["pred_iou"])
    return inner * (1.0 - f["loop"])


SCORE_OF = {"bps": bps_score, "mps": mps_score}


def order_by(queue: Queue, strategy: str) -> np.ndarray:
    """Ids by descending recomputed score, ties toward the smaller id."""
    score = SCORE_OF[strategy](queue.features)
    return queue.id[np.lexsort((queue.id, -score))]


def check_queue(queue: Queue, pool_ids: np.ndarray, strategy: str) -> list[str]:
    """Permutation, ranks, ordering, feature ranges and the score formula."""
    problems = []
    n = len(queue)
    if n != pool_ids.size or not np.array_equal(np.sort(queue.id), np.sort(pool_ids)):
        problems.append("queue ids are not a permutation of the pool ids")
    if not np.array_equal(queue.rank, np.arange(1, n + 1)):
        problems.append("queue ranks are not 1..n in order")
    for name, column in [("score", queue.score)] + list(queue.features.items()):
        if not np.all((column >= 0.0) & (column <= 1.0)):
            problems.append(f"queue column {name} leaves [0,1]")
    recomputed = SCORE_OF[strategy](queue.features)
    worst = float(np.max(np.abs(recomputed - queue.score))) if n else 0.0
    if worst > SCORE_TOLERANCE:
        problems.append(f"{strategy} score differs from its features by {worst:.3g} > {SCORE_TOLERANCE}")
    drops = np.diff(queue.score)
    if np.any(drops > 0.0):
        problems.append(f"scores increase at rank {int(np.argmax(drops > 0.0)) + 2}")
    # a tie is only visible where both the written score and the score
    # recomputed from the written features agree; distinct scores that the
    # 9-digit output happens to round together may keep any id order
    tied = (drops == 0.0) & (np.diff(recomputed) == 0.0)
    misordered = tied & (np.diff(queue.id) < 0)
    if np.any(misordered):
        problems.append(f"tie broken toward the larger id at rank {int(np.argmax(misordered)) + 1}")
    return problems


def _read_pca(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"PCA1":
        raise ValueError(f"{path}: bad magic")
    d, r = struct.unpack_from("<II", blob, 4)
    floats = np.frombuffer(blob, dtype="<f4", offset=12, count=1 + d + r * d + r).astype(np.float64)
    return floats[1 : 1 + d], floats[1 + d : 1 + d + r * d].reshape(r, d)


def _read_predictor(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"IOP1":
        raise ValueError(f"{path}: bad magic")
    n, r, k = struct.unpack_from("<III", blob, 4)
    points = np.frombuffer(blob, dtype="<f4", count=n * r, offset=16).astype(np.float64)
    ious = np.frombuffer(blob, dtype="<f4", count=n, offset=16 + 4 * n * r).astype(np.float64)
    return points.reshape(n, r), np.clip(ious, 0.0, 1.0), k


def brute_force_iou(model_dir: str, vectors: np.ndarray) -> np.ndarray:
    """Inverse-distance-weighted k-NN IoU of each row, one query at a time."""
    mean, components = _read_pca(os.path.join(model_dir, "pca.bin"))
    points, ious, k = _read_predictor(os.path.join(model_dir, "iou_refs.bin"))
    out = np.empty(vectors.shape[0])
    for i, v in enumerate(vectors.astype(np.float64)):
        q = components @ (v - mean)
        d = np.sqrt(((points - q) ** 2).sum(axis=1))
        near = np.argsort(d, kind="stable")[:k]
        zero = d[near] == 0.0
        if zero.any():
            out[i] = ious[near][zero].mean()
        else:
            w = 1.0 / d[near]
            out[i] = (w * ious[near]).sum() / w.sum()
    return np.clip(out, 0.0, 1.0)


def check_pred_iou(
    queue: Queue, model_dir: str, pool_ids: np.ndarray, pool_vectors: np.ndarray, seed: int
) -> list[str]:
    """Recompute pred_iou for a seeded sample of queue rows from the model files."""
    rng = np.random.default_rng([0xB1, seed])
    rows = rng.choice(len(queue), size=min(PRED_IOU_SAMPLE, len(queue)), replace=False)
    position = {int(i): p for p, i in enumerate(pool_ids)}
    try:
        picked = np.array([position[int(i)] for i in queue.id[rows]])
    except KeyError as exc:
        return [f"queue id {exc.args[0]} is not in the pool"]
    expected = brute_force_iou(model_dir, pool_vectors[picked])
    gap = np.abs(expected - queue.features["pred_iou"][rows])
    if gap.max() > PRED_IOU_TOLERANCE:
        bad = int(queue.id[rows][int(gap.argmax())])
        return [f"pred_iou of id {bad} is off by {gap.max():.3g} > {PRED_IOU_TOLERANCE}"]
    return []


def check_sweep(result, budgets, strategies) -> list[str]:
    """Row count, quality range, and full coverage when the whole pool is selected."""
    problems = []
    if len(result.rows) != len(budgets) * len(strategies):
        problems.append(f"sweep has {len(result.rows)} rows, expected {len(budgets) * len(strategies)}")
    if any(not 0.0 <= row.quality <= 1.0 for row in result.rows):
        problems.append("sweep quality leaves [0,1]")
    full = max(budgets)
    for strategy in strategies:
        quality = result.qualities(strategy, full)
        if quality.size != 1 or quality[0] != 1.0:
            problems.append(f"{strategy} coverage at budget {full} is {quality.tolist()}, not 1.0")
    return problems


def code_digest(package_dir: str) -> str:
    """sha256 over the program's sources (file names and bytes, in name order)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


class DigestBook:
    """sha256 of each output per (code, workload, seed), shared by every run in this checkout.

    The first run of a key records the digests; later iterations and runs
    of the same code must reproduce them byte for byte. Keys carry the
    digest of the program's sources, so other code starts a fresh record
    instead of being held to bytes that an earlier version wrote.
    """

    def __init__(self, path: str, code: str):
        self.path = path
        self.code = code
        self.entries: dict[str, dict[str, str]] = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.entries = json.load(fh)

    def check(self, key: str, name: str, digest: str) -> list[str]:
        key = f"code={self.code[:16]}/{key}"
        known = self.entries.setdefault(key, {}).setdefault(name, digest)
        if known != digest:
            return [f"{name} digest {digest[:12]} differs from {known[:12]} recorded for {key}"]
        return []

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.entries, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
