"""Linear dimensionality reduction of activation vectors.

The reduction is a classical principal-component projection of the centred
data. For N >= D vectors it is the eigendecomposition of the (D, D) scatter
matrix, ~7x faster than an SVD of the (N, D) data at 12,200 x 512; that
squares the condition number, but the top r components still match the
SVD's subspace within eps * l_1 / (l_r - l_{r+1}) to first order, for
eigenvalues l_1 >= l_2 >= ... The rows may come in parts, never stacked: the
mean adds them in order in float64, and the scatter matrix sums row blocks,
each centred in float64 in one reused buffer and filled from both parts at a
seam, so parts give their concatenation's model bit for bit. Projection runs
block by block too. For N < D it is the economy SVD of one centred block.
Component signs are fixed so identical bytes refit to an identical model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import read_binary_file, read_only, write_binary_file

# header: dimension d, component count r; payload: total variance, mean, components, eigenvalues
_PCA_LAYOUT = b"PCA1", "<II", lambda d, r: [("<f4", ()), ("<f4", (d,)), ("<f4", (r, d)), ("<f4", (r,))]

DEFAULT_VARIANCE_THRESHOLD = 0.95
COMPONENT_CAP = 32  # the variance rule never picks a larger rank
_BLOCK_BUDGET = 1 << 19  # float64 elements of one centred row block (4 MiB); rows = this // D


@dataclass(frozen=True)
class PcaModel:
    """Fitted reduction: mean, orthonormal components and their variances.

    ``total_variance`` is the trace of the fitted covariance, kept so
    explained-variance ratios stay correct when fewer than D components
    are retained (and after reload from disk).
    """

    mean: np.ndarray          # (D,)
    components: np.ndarray    # (R, D), rows orthonormal, variance-ordered
    eigenvalues: np.ndarray   # (R,), nonincreasing, >= 0
    total_variance: float

    def __post_init__(self) -> None:
        mean, comp = read_only(self.mean, np.float64), read_only(self.components, np.float64)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if comp.ndim != 2 or mean.ndim != 1 or comp.shape[1] != mean.size:
            raise ValueError("components must be (R, D) with D matching mean")
        if comp.shape[0] < 1:
            raise ValueError("need at least one component")
        if eig.shape != (comp.shape[0],):
            raise ValueError("eigenvalues must have one entry per component")
        if np.any(eig < 0.0) or np.any(np.diff(eig) > 1e-12):
            raise ValueError("eigenvalues must be nonnegative and nonincreasing")
        if not self.total_variance > 0.0:
            raise ValueError("total variance must be positive")
        gram = comp @ comp.T
        if np.max(np.abs(gram - np.eye(comp.shape[0]))) > 1e-6:
            raise ValueError("component rows are not orthonormal within 1e-6")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "eigenvalues", read_only(eig, np.float64))

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def dimension(self) -> int:
        return self.components.shape[1]


def fit_pca(
    *parts: np.ndarray, r: int | None = None, variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD
) -> PcaModel:
    """Fit a reduction on the rows of one or more (N_i, D) arrays, taken as stacked in order.

    With ``r=None`` the rank is the smallest one whose cumulative explained
    variance reaches *variance_threshold*, capped at ``COMPONENT_CAP``.
    Raises on r outside [1, min(D, N)] and on zero total variance.
    """
    parts = [np.asarray(x) for x in parts]
    if not parts or any(x.ndim != 2 or x.shape[1] != parts[0].shape[1] for x in parts):
        raise ValueError("expected (N, D) matrices of vectors, all of one D")
    n, d = sum(map(len, parts)), parts[0].shape[1]
    if n < 2:
        raise ValueError("need at least 2 vectors to fit")
    max_r = min(d, n)
    if r is not None and not 1 <= r <= max_r:
        raise ValueError(f"r={r} out of range [1, {max_r}]")

    mean = np.full(d, -0.0)  # the running sum; -0.0 + x is x, so rows add as in x.mean(axis=0, dtype=float64)
    for _, rows in _centred_blocks(parts, 0.0, skip=1):
        rows[0] = mean  # the sum leads the block's rows, so one reduce adds them on in order
        np.add.reduce(rows, axis=0, out=mean)
    del rows  # the mean pass's buffer goes before the scatter pass takes its own
    mean /= n
    if n >= d:  # eigenvectors of the (D, D) scatter matrix, reordered largest first
        scatter, vectors = np.linalg.eigh(sum(c.T @ c for _, c in _centred_blocks(parts, mean)))
        eigenvalues = np.maximum(scatter[::-1], 0.0) / (n - 1)
        vh = vectors[:, ::-1].T
    else:  # economy SVD of one block holding every row: vh carries N rows, the most r can be
        _, singulars, vh = np.linalg.svd(next(_centred_blocks(parts, mean, rows=n))[1], full_matrices=False)
        eigenvalues = singulars**2 / (n - 1)
    total_variance = float(eigenvalues.sum())
    if total_variance <= 0.0:
        raise ValueError("zero total variance: all vectors are identical")

    if r is None:
        ratios = np.cumsum(eigenvalues) / total_variance
        r = int(np.searchsorted(ratios, variance_threshold - 1e-12) + 1)
        r = min(r, COMPONENT_CAP, max_r)

    components = vh[:r].copy()
    # sign convention: the largest-magnitude entry of each component is positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        eigenvalues=eigenvalues[:r],
        total_variance=total_variance,
    )


def _centred_blocks(parts: list[np.ndarray], mean, rows: int | None = None, skip: int = 0):
    """``(start, block)`` in one float64 buffer; rows *skip* on: the stacked *parts* from row *start*, minus *mean*."""
    n, d = sum(map(len, parts)), parts[0].shape[1]
    rows = rows or max(1, _BLOCK_BUDGET // d)
    buffer = np.empty((skip + min(rows, n), d))
    for start in range(0, n, rows):
        for x, lo in zip(parts, np.cumsum([0, *map(len, parts)])):  # a block that spans a seam takes rows from both
            a, b = max(start, lo), max(start, lo, min(start + rows, lo + len(x)))  # x's rows in it: a to b, or none
            np.subtract(x[a - lo : b - lo], mean, out=buffer[skip + a - start : skip + b - start])
        yield start, buffer[: skip + min(rows, n - start)]


def transform_batch(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project an (N, D) matrix of row vectors."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != model.dimension:
        raise ValueError(f"matrix shape {x.shape} does not match dimension {model.dimension}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite values")
    out = np.empty((len(x), model.n_components))
    for start, c in _centred_blocks([x], model.mean):
        np.matmul(c, model.components.T, out=out[start : start + len(c)])
    return out


def explained_variance_ratio(model: PcaModel) -> np.ndarray:
    """Per-component share of the fitted data's total variance."""
    return model.eigenvalues / model.total_variance


def save_pca(model: PcaModel, path) -> bytes | None:
    arrays = [model.total_variance, model.mean, model.components, model.eigenvalues]
    return write_binary_file(path, _PCA_LAYOUT, (model.dimension, model.n_components), arrays)


def load_pca(path, blob: bytes | None = None) -> PcaModel:
    with read_binary_file(path, "a PCA model", _PCA_LAYOUT, blob) as (_, (total, mean, components, eigenvalues)):
        return PcaModel(mean, components, eigenvalues, float(total))
