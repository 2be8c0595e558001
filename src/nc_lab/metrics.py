"""Collapse metrics for a linear classifier and its last-layer features.

The metric family measures, for a weight matrix W (K x p, one row per class)
and labeled feature vectors (p x N):

* nc0 family — size of the classifier row sums W^T 1,
* nc1 — within-class variability relative to between-class scatter,
* nc2 family — how close centered class means (or classifier rows) are to an
  equal-norm, equal-angle simplex frame,
* nc3 — alignment between the classifier and the centered class means,
* nc4 — agreement between the classifier's decisions and nearest-mean
  decisions.

Inputs are float64 ndarrays or nested lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import as_array, pseudo_inverse

__all__ = [
    "LabeledFeatures",
    "ClassStatistics",
    "simplex_etf",
    "compute_class_statistics",
    "nc0_metric",
    "nc0_alpha",
    "nc0_normalized",
    "nc1_variability",
    "nc2_structure",
    "nc2_norms",
    "nc2_angles",
    "nc2w_structure",
    "nc2w_norms",
    "nc2w_angles",
    "nc2m_duality",
    "nc3_alignment",
    "nc4_agreement",
    "all_metrics",
    "METRIC_KEYS",
]

# Row/mean norms below this are treated as degenerate for angle metrics.
_NORM_FLOOR = 1e-12

METRIC_KEYS = (
    "nc0",
    "nc0_alpha",
    "nc0_normalized",
    "nc1",
    "nc2",
    "nc2n",
    "nc2a",
    "nc2w",
    "nc2wn",
    "nc2wa",
    "nc2m",
    "nc3",
    "nc4",
)


def simplex_etf(num_classes: int) -> np.ndarray:
    """Return the K x K simplex ETF matrix for K >= 2 classes.

    Columns sum to zero, have equal norm 1/sqrt(K), and pairwise cosine
    -1/(K-1); the matrix is idempotent up to the 1/sqrt(K-1) scale and has
    unit Frobenius norm.
    """
    k = int(num_classes)
    if k < 2:
        raise DomainError(f"simplex ETF needs at least 2 classes, got {k}")
    return (np.eye(k) - np.full((k, k), 1.0 / k)) / np.sqrt(k - 1.0)


class LabeledFeatures:
    """Feature matrix (p x N, one column per sample) with integer labels.

    The class means and the ClassStatistics are computed on first request and
    kept, read-only, so every metric of a snapshot shares one computation.
    The features and labels must therefore not be changed after construction;
    build a new LabeledFeatures for new features.
    """

    def __init__(self, features, labels, num_classes: int):
        f = as_array(features)
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ShapeError("labels must be a flat sequence")
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == labels.astype(np.int64)):
                raise DomainError("labels must be integers")
            labels = labels.astype(np.int64)
        k = int(num_classes)
        if k < 2:
            raise DomainError(f"need at least 2 classes, got {k}")
        if labels.shape[0] != f.shape[1]:
            raise ShapeError(
                f"{labels.shape[0]} labels for {f.shape[1]} feature columns"
            )
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
            raise DomainError(f"labels must lie in [0, {k})")
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            empty = int(np.flatnonzero(counts == 0)[0])
            raise DomainError(f"class {empty} has no samples")
        self.features = f
        self.labels = labels
        self.num_classes = k
        self.per_class_counts = counts
        self._means: Optional[np.ndarray] = None
        self._stats: Optional[ClassStatistics] = None

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def num_samples(self) -> int:
        return self.features.shape[1]

    @property
    def class_means(self) -> np.ndarray:
        """p x K matrix whose column c is the mean feature of class c."""
        if self._means is None:
            self._means = _read_only(_class_means(self))
        return self._means


@dataclass
class ClassStatistics:
    """First/second-order class statistics of a labeled feature set.

    ``centered_means`` is class_means minus the mean-of-means; ``sigma_b`` is
    the scatter of the centered means (normalized by K); ``sigma_w`` is the
    within-class scatter averaged over all samples.
    """

    class_means: np.ndarray          # p x K
    global_mean: np.ndarray          # p
    centered_means: np.ndarray       # p x K
    sigma_b: np.ndarray              # p x p
    sigma_w: np.ndarray              # p x p
    per_class_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _class_means(data: LabeledFeatures) -> np.ndarray:
    """p x K matrix whose column c is the mean feature of class c."""
    h, y = data.features, data.labels
    means = np.empty((h.shape[0], data.num_classes))
    for c in range(data.num_classes):
        means[:, c] = h[:, y == c].mean(axis=1)
    return means


def _scatter(vectors: np.ndarray, count: int) -> np.ndarray:
    """p x p scatter ``vectors @ vectors.T / count`` of the given columns."""
    return vectors @ vectors.T / count


def compute_class_statistics(data: LabeledFeatures) -> ClassStatistics:
    """Class means, their centered versions, and both scatter matrices.

    They are computed on the first call for ``data`` and kept; later calls
    return the same read-only result.
    """
    if data._stats is None:
        means = data.class_means
        global_mean = means.mean(axis=1)
        centered = means - global_mean[:, None]
        # np.take gathers C-ordered like the features (means[:, y] is
        # Fortran-ordered and would be walked transposed); subtract in place.
        dev = np.take(means, data.labels, axis=1)
        np.subtract(data.features, dev, out=dev)
        data._stats = ClassStatistics(
            class_means=means,
            global_mean=_read_only(global_mean),
            centered_means=_read_only(centered),
            sigma_b=_read_only(_scatter(centered, data.num_classes)),
            sigma_w=_read_only(_scatter(dev, data.num_samples)),
            per_class_counts=_read_only(data.per_class_counts.copy()),
        )
    return data._stats


def nc0_metric(w) -> float:
    """(1/p) * ||W^T 1||_2 for a K x p classifier: the scaled row-sum norm."""
    w = as_array(w)
    return float(np.linalg.norm(w.sum(axis=0)) / w.shape[1])


def nc0_alpha(w) -> float:
    """(1/K) * ||W^T 1||_2^2, the quantity whose decay the step-size/decay
    closed forms describe."""
    w = as_array(w)
    s = w.sum(axis=0)
    return float(s @ s / w.shape[0])


def nc0_normalized(w) -> float:
    """nc0_metric divided by ||W||_F, making the row-sum size scale-free."""
    w = as_array(w)
    denom = np.linalg.norm(w)
    if denom <= 0.0:
        raise DomainError("nc0_normalized undefined for an all-zero matrix")
    return nc0_metric(w) / float(denom)


def nc1_variability(stats: ClassStatistics) -> float:
    """(1/K) * trace(sigma_w @ pinv(sigma_b)).

    A fully degenerate sigma_b (all zeros) pseudo-inverts to zero, so the
    result is 0.0; callers that need to distinguish that case should check
    ``sigma_b.any()``.
    """
    k = stats.num_classes
    pinv_b = pseudo_inverse(stats.sigma_b)
    return float(np.trace(stats.sigma_w @ pinv_b)) / k


def _gram_structure(vectors: np.ndarray) -> float:
    """||G/||G||_F - M*||_F / K^2 for the Gram matrix G of the given columns."""
    k = vectors.shape[1]
    gram = vectors.T @ vectors
    norm = np.linalg.norm(gram)
    if norm <= 0.0:
        raise DomainError("structure metric undefined for all-zero vectors")
    return float(np.linalg.norm(gram / norm - simplex_etf(k))) / k**2


def _norm_spread(vectors: np.ndarray) -> float:
    """std/mean of the column norms (population std)."""
    norms = np.linalg.norm(vectors, axis=0)
    mean = norms.mean()
    if mean <= 0.0:
        raise DomainError("norm spread undefined when all vectors are zero")
    return float(norms.std() / mean)


def _angle_deviation(vectors: np.ndarray) -> float:
    """Mean |cos(v_k, v_k') + 1/(K-1)| over distinct pairs of columns."""
    k = vectors.shape[1]
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms < _NORM_FLOOR):
        raise DomainError("angle metric undefined: a vector norm is below 1e-12")
    unit = vectors / norms
    cos = unit.T @ unit
    off = ~np.eye(k, dtype=bool)
    return float(np.abs(cos[off] + 1.0 / (k - 1)).mean())


def nc2_structure(stats: ClassStatistics) -> float:
    """Distance of the normalized centered-mean Gram matrix from the simplex ETF."""
    return _gram_structure(stats.centered_means)


def nc2_norms(stats: ClassStatistics) -> float:
    """Relative spread of the centered class-mean norms (0 = equinorm)."""
    return _norm_spread(stats.centered_means)


def nc2_angles(stats: ClassStatistics) -> float:
    """Mean deviation of centered-mean cosines from the ideal -1/(K-1)."""
    return _angle_deviation(stats.centered_means)


def nc2w_structure(w) -> float:
    """nc2 computed on classifier rows instead of class means."""
    return _gram_structure(as_array(w).T)


def nc2w_norms(w) -> float:
    return _norm_spread(as_array(w).T)


def nc2w_angles(w) -> float:
    return _angle_deviation(as_array(w).T)


def nc2m_duality(w, stats: ClassStatistics) -> float:
    """||WM/||WM||_F - M*||_F / K^2: cross-Gram version coupling W and means."""
    w = as_array(w)
    m = stats.centered_means
    if w.shape[1] != m.shape[0]:
        raise ShapeError(f"W is {w.shape} but means are {m.shape}")
    k = m.shape[1]
    prod = w @ m
    norm = np.linalg.norm(prod)
    if norm <= 0.0:
        raise DomainError("nc2m undefined: WM is zero")
    return float(np.linalg.norm(prod / norm - simplex_etf(k))) / k**2


def nc3_alignment(w, stats: ClassStatistics) -> float:
    """(1/(Kp)) * || W/||W||_F - M^T/||M^T||_F ||_F (0 = self-dual)."""
    w = as_array(w)
    mt = stats.centered_means.T
    if w.shape != mt.shape:
        raise ShapeError(f"W is {w.shape} but M^T is {mt.shape}")
    wn = np.linalg.norm(w)
    mn = np.linalg.norm(mt)
    if wn <= 0.0 or mn <= 0.0:
        raise DomainError("nc3 undefined when W or the centered means are zero")
    k, p = w.shape
    return float(np.linalg.norm(w / wn - mt / mn)) / (k * p)


# Columns per block when near-ties are settled by direct distances; bounds
# that block's p x K x columns difference tensor to 2**20 float64 values.
_DIRECT_BLOCK_VALUES = 2**20


def _nearest_mean(h: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Index of the nearest column of ``means`` for each column of ``h``.

    Distances are ranked in Gram form, ||mu_c||^2 - 2 mu_c^T h, which needs
    one K x p by p x N product and O(KN) memory. A sample whose best Gram
    value is within rounding of another class's (an exact tie, or cancellation
    when the features sit far from the origin) is decided by the direct
    squared distance sum_p (h - mu_c)^2 instead, so the result equals a
    direct-distance argmin, ties going to the lowest class index.
    """
    p, k = means.shape
    sq_norms = np.einsum("pk,pk->k", means, means)
    gram = sq_norms[:, None] - 2.0 * (means.T @ h)
    nearest = np.argmin(gram, axis=0)
    # The rounding error of either distance form is below (p + 3) * eps *
    # (||h|| + max ||mu||)^2, so a Gram gap above four times that bound is
    # a decision both forms share. A column holding a non-finite value has
    # no entry within the slack and is decided directly as well.
    reach = np.sqrt(np.einsum("pn,pn->n", h, h)) + np.sqrt(sq_norms.max())
    slack = 4.0 * (p + 3) * np.finfo(np.float64).eps * reach**2
    gram -= gram[nearest, np.arange(h.shape[1])]
    unsure = np.flatnonzero(np.count_nonzero(gram <= slack, axis=0) != 1)
    block = max(1, _DIRECT_BLOCK_VALUES // max(1, p * k))
    for start in range(0, unsure.size, block):
        cols = unsure[start:start + block]
        diff = h[:, None, cols] - means[:, :, None]
        nearest[cols] = np.argmin(np.einsum("pkn,pkn->kn", diff, diff), axis=0)
    return nearest


def nc4_agreement(w, data: LabeledFeatures, test_features=None) -> float:
    """Fraction of samples where argmax_k <w_k, h> equals the nearest
    (uncentered) training class-mean decision. Ties resolve to the lowest
    class index on both sides. ``test_features`` defaults to the training
    features.
    """
    w = as_array(w)
    h = data.features if test_features is None else as_array(test_features)
    if w.shape[1] != h.shape[0]:
        raise ShapeError(f"W is {w.shape} but features are {h.shape}")
    linear = np.argmax(w @ h, axis=0)
    return float(np.mean(linear == _nearest_mean(h, data.class_means)))


def all_metrics(w, data: LabeledFeatures, test_features=None) -> dict:
    """Evaluate the full metric suite, mapping degenerate metrics to None.

    Returns a dict with the 13 metric keys plus ``flags`` listing which
    metrics were skipped as degenerate and whether sigma_b was all-zero.
    """
    stats = compute_class_statistics(data)
    w = as_array(w)
    out: dict = {}
    skipped: list[str] = []

    def guarded(key, fn, *args):
        try:
            out[key] = fn(*args)
        except DomainError:
            out[key] = None
            skipped.append(key)

    out["nc0"] = nc0_metric(w)
    out["nc0_alpha"] = nc0_alpha(w)
    guarded("nc0_normalized", nc0_normalized, w)
    sigma_b_degenerate = not stats.sigma_b.any()
    out["nc1"] = nc1_variability(stats)
    guarded("nc2", nc2_structure, stats)
    guarded("nc2n", nc2_norms, stats)
    guarded("nc2a", nc2_angles, stats)
    guarded("nc2w", nc2w_structure, w)
    guarded("nc2wn", nc2w_norms, w)
    guarded("nc2wa", nc2w_angles, w)
    guarded("nc2m", nc2m_duality, w, stats)
    guarded("nc3", nc3_alignment, w, stats)
    out["nc4"] = nc4_agreement(w, data, test_features)
    out["flags"] = {"sigma_b_degenerate": sigma_b_degenerate, "skipped": skipped}
    return out
