"""Intersection-over-union on masks and nearest-neighbour IoU prediction.

Samples without ground truth get their IoU estimated from the labelled
reference set: the k nearest references in reduced space vote with
inverse-distance weights, so the estimate always stays inside the range
spanned by the neighbours' IoU values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._dist import nearest
from .data import BinaryMask, read_f32, read_model_file

DEFAULT_KNN_K = 5

_IOP_MAGIC = b"IOP1"


def iou(a: BinaryMask, b: BinaryMask) -> float:
    """|a AND b| / |a OR b|; two empty masks agree perfectly and score 1.0."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"mask shapes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    union = np.count_nonzero(a.bits | b.bits)
    if union == 0:
        return 1.0
    return np.count_nonzero(a.bits & b.bits) / union


@dataclass(frozen=True)
class IouPredictor:
    """Reference embeddings with measured IoU; prediction is lazy k-NN."""

    points: np.ndarray  # (n, R)
    ious: np.ndarray    # (n,)
    k: int

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        ious = np.asarray(self.ious, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("reference points must be a non-empty (n, R) array")
        if ious.shape != (points.shape[0],):
            raise ValueError("need exactly one IoU per reference point")
        if np.any(ious < 0.0) or np.any(ious > 1.0):
            raise ValueError("reference IoUs must lie in [0,1]")
        if not 1 <= self.k <= points.shape[0]:
            raise ValueError(f"k={self.k} out of range [1, {points.shape[0]}]")
        points.setflags(write=False)
        ious.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "ious", ious)


def fit_iou_predictor(points: np.ndarray, ious: np.ndarray, k: int = DEFAULT_KNN_K) -> IouPredictor:
    return IouPredictor(points=points, ious=ious, k=k)


def predict_iou_batch(predictor: IouPredictor, x: np.ndarray) -> np.ndarray:
    """Inverse-distance-weighted IoU of the k nearest references, per row of an (m, R) matrix.

    Neighbour ties go to the lower reference index. At distance zero the
    weighting degenerates, so a row with exact matches gets the unweighted
    mean over its zero-distance neighbours instead.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != predictor.points.shape[1]:
        raise ValueError("query matrix dimension does not match references")
    order, d2 = nearest(x, predictor.points, predictor.k)
    near = np.sqrt(d2)
    vals = predictor.ious[order]
    zero = near == 0.0
    has_zero = zero.any(axis=1)
    with np.errstate(divide="ignore"):
        weights = 1.0 / near
    out = np.empty(x.shape[0])
    for i in np.flatnonzero(has_zero):
        out[i] = vals[i][zero[i]].mean()
    rest = ~has_zero
    if rest.any():
        out[rest] = (weights[rest] * vals[rest]).sum(axis=1) / weights[rest].sum(axis=1)
    return out


def save_predictor(predictor: IouPredictor, path) -> None:
    n, r = predictor.points.shape
    with open(path, "wb") as fh:
        fh.write(_IOP_MAGIC)
        fh.write(struct.pack("<III", n, r, predictor.k))
        fh.write(predictor.points.astype("<f4").tobytes())
        fh.write(predictor.ious.astype("<f4").tobytes())


def load_predictor(path) -> IouPredictor:
    with read_model_file(
        path, _IOP_MAGIC, "an IoU predictor", "<III", lambda n, r, k: 16 + 4 * (n * r + n)
    ) as (blob, (n, r, k)):
        points = read_f32(blob, 16, n * r).reshape(n, r)
        ious = read_f32(blob, 16 + 4 * n * r, n)
        # float32 storage may nudge values a hair past the bounds
        return IouPredictor(points=points, ious=np.clip(ious, 0.0, 1.0), k=k)
