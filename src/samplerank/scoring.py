"""Priority scores and the ranked annotation queue.

Two formulas, both mapping [0,1] features to a [0,1] priority:

    basic      = a*dist + b*(1 - iou)
    multiparty = (a*orph + b*err + c*dist + d*(1 - iou)) * (1 - loop)

The weights are ``Config`` fields (``bps_a`` ... ``mps_d``). ``Config``
requires each set to be nonnegative and to sum to 1, which is what keeps
the scores inside [0,1]. The multiparty form suppresses isolated samples via
the outlier probability and rewards membership in orphaned and error
clusters. Features and scores travel as columns: one array per feature,
aligned with the pool's sample order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import STRATEGIES, STRATEGY_BPS, Config
from .data import read_only


def _check_unit(ids, features: dict[str, np.ndarray]) -> None:
    """Reject the first sample, in order, with a feature outside [0,1] or NaN; *features* maps each
    name to its float64 column, all of one length and aligned with *ids*."""
    bad = np.stack([~((column >= 0.0) & (column <= 1.0)) for column in features.values()], axis=-1)
    if bad.any():
        sample, which = np.argwhere(bad)[0]
        name = list(features)[which]
        raise ValueError(f"sample {np.asarray(ids)[sample]}: {name}={features[name][sample]} outside [0,1]")


@dataclass(frozen=True)
class Scores:
    """Features and both priorities of a pool, one read-only column each.

    Entry i of every column belongs to sample ``ids[i]``; ids are uint64.
    """

    ids: np.ndarray
    dist: np.ndarray
    pred_iou: np.ndarray
    loop: np.ndarray
    orph: np.ndarray
    err: np.ndarray
    bps: np.ndarray
    mps: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        for f in fields(self):
            arr = read_only(getattr(self, f.name), np.uint64 if f.name == "ids" else np.float64)
            if arr.shape != (n,):
                raise ValueError(f"column {f.name} has shape {arr.shape}, expected ({n},)")
            object.__setattr__(self, f.name, arr)

    def __len__(self) -> int:
        return self.ids.size


def score_all(ids, dist, pred_iou, loop, orph, err, params: Config = Config()) -> Scores:
    """Evaluate both formulas over feature columns aligned with *ids*: the one place they are written."""
    features = dict(dist=dist, pred_iou=pred_iou, loop=loop, orph=orph, err=err)
    features = {name: np.asarray(column, dtype=np.float64) for name, column in features.items()}
    _check_unit(ids, features)
    dist, pred_iou, loop, orph, err = features.values()
    p = params
    return Scores(
        ids=ids, **features,
        bps=p.bps_a * dist + p.bps_b * (1.0 - pred_iou),
        mps=(p.mps_a * orph + p.mps_b * err + p.mps_c * dist + p.mps_d * (1.0 - pred_iou)) * (1.0 - loop),
    )


def _order(scores: Scores, which: str) -> np.ndarray:
    if which not in STRATEGIES:
        raise ValueError(f"unknown strategy {which!r}, expected one of {STRATEGIES}")
    if len(scores) == 0:
        raise ValueError("cannot rank an empty score list")
    return np.lexsort((scores.ids, -getattr(scores, which)))


def rank(scores: Scores, which: str = STRATEGY_BPS) -> list[int]:
    """Ids ordered by descending score; ties break toward the smaller id."""
    return scores.ids[_order(scores, which)].tolist()


def write_queue_csv(scores: Scores, which: str, path) -> None:
    """Export the ranked queue for annotation tooling."""
    order = _order(scores, which)
    names = (which, "dist", "pred_iou", "loop", "orph", "err")
    columns = [getattr(scores, name)[order].tolist() for name in names]
    rows = zip(range(1, len(order) + 1), scores.ids[order].tolist(), *columns)
    with open(path, "w", newline="") as fh:
        fh.write("rank,id,score,dist,pred_iou,loop,orph,err\r\n")
        fh.writelines(map("%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\r\n".__mod__, rows))
