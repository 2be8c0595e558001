"""Collapse metrics for a linear classifier and its last-layer features.

The metric family measures, for a weight matrix W (K x p, one row per class)
and labeled feature vectors (p x N):

* nc0 family — size of the classifier row sums W^T 1,
* nc1 — within-class variability relative to between-class scatter, in the
  rank-(K-1) coordinates of the centered class means (no p x p matrix),
* nc2 family — how close centered class means (or classifier rows) are to an
  equal-norm, equal-angle simplex frame,
* nc3 — alignment between the classifier and the centered class means,
* nc4 — agreement between the classifier's decisions and nearest-mean
  decisions.

Inputs are float64 ndarrays or nested lists. Every metric of W takes W of
shape (..., K, p), one classifier or a stack of them along any leading
axes, and gives float64 values of shape (...), each equal to the call on
its slice alone; the metrics of centered class means M take M of shape
(..., p, K) alike. A metric that a slice can leave undefined (a zero norm)
returns (values, defined) instead of raising. A LabeledFeatures keeps what
is computed from its features, and its ClassStatistics holds nc2, nc2n and
nc2a, so the metrics of one feature set share one computation. all_metrics
returns the suite as columns, one value per slice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .linalg import DEFAULT_RANK_TOLERANCE, as_array, as_matrices

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


@functools.lru_cache(maxsize=8)
def _etf_frame(k: int) -> np.ndarray:
    """The simplex_etf(k) that the structure metrics compare against, built
    once per K and read-only."""
    return _read_only(simplex_etf(k))


@functools.lru_cache(maxsize=8)
def _off_diagonal(k: int) -> np.ndarray:
    """The read-only K x K mask of the off-diagonal entries, built once per K."""
    return _read_only(~np.eye(k, dtype=bool))


class LabeledFeatures:
    """Feature matrix (p x N, one column per sample) with integer labels.

    What is computed from the features is computed on first request and
    kept, read-only: the class means, the ClassStatistics, the nearest-mean
    decisions and the linear decisions of the last classifier (or stack of
    classifiers) asked for. So every metric of a snapshot, and every
    snapshot of one fixed feature set, shares one computation. The features
    and labels must therefore not be changed after construction; build a new
    LabeledFeatures for new features.
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
        empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if empty.size:
            raise DomainError(f"class {int(empty[0])} has no samples")
        self.features = f
        self.labels = labels
        self.num_classes = k
        self._means: Optional[np.ndarray] = None
        self._stats: Optional[ClassStatistics] = None
        self._nearest: Optional[np.ndarray] = None
        self._linear: Optional[tuple] = None

    @property
    def class_means(self) -> np.ndarray:
        """p x K matrix whose column c is the mean feature of class c."""
        if self._means is None:
            self._means = _read_only(_class_means(self))
        return self._means

    def _linear_decisions(self, w: np.ndarray, logits=None) -> np.ndarray:
        """argmax_k (W H)_k of each sample for W (..., K, p), shape (..., N),
        ties to the lowest k, from the ``logits`` W H when the caller has
        them. Kept for the last W asked for, matched by shape and bytes (so a
        W that differs by a -0.0 or a NaN payload is computed afresh), so that
        a snapshot's train_acc and nc4 read one product W H."""
        key = w.tobytes()
        if self._linear is None or self._linear[0] != w.shape or self._linear[1] != key:
            if logits is None:
                logits = w @ self.features
            self._linear = (w.shape, key, _read_only(np.argmax(logits, axis=-2)))
        return self._linear[2]

    def _nearest_decisions(self) -> np.ndarray:
        """The nearest class mean of each sample (_nearest_mean), kept."""
        if self._nearest is None:
            self._nearest = _read_only(_nearest_mean(self.features, self.class_means))
        return self._nearest


@dataclass
class ClassStatistics:
    """The record of what the metrics read of a labeled feature set: its
    class means, and the rank-(K-1) coordinates and nc2 family of its
    centered class means M (``centered_means``, means minus mean-of-means).

    With the thin SVD M = U S V^T, Sigma_B = M M^T / K = U (S^2 / K) U^T.
    ``nc1_terms`` holds ||u_j^T D||^2 / (N s_j^2), D the deviations
    h_n - mu_(y_n), for each kept direction: s_j^2 > DEFAULT_RANK_TOLERANCE
    * s_0^2. ``nc2``, ``nc2n`` and ``nc2a`` are the values of nc2_structure,
    nc2_norms and nc2_angles of M, or None where M leaves them undefined;
    the arrays are read-only.
    """

    class_means: np.ndarray          # p x K
    centered_means: np.ndarray       # p x K
    singular_values: np.ndarray      # min(p, K), descending
    nc1_terms: np.ndarray            # one per kept direction; empty iff Sigma_B == 0
    nc2: Optional[float] = None      # nc2_structure, None where undefined
    nc2n: Optional[float] = None     # nc2_norms
    nc2a: Optional[float] = None     # nc2_angles


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _class_means(data: LabeledFeatures) -> np.ndarray:
    """p x K matrix of the class means, one class at a time, so that classes
    holding equal samples get equal means (a one-hot product's BLAS sums do not).
    The mask gather ``h[:, y == c]`` comes back Fortran-ordered, so numpy sums
    it one column after another in sample order; a pairwise sum along the
    samples or np.add.reduceat would change the last bit."""
    h, y = data.features, data.labels
    means = np.empty((h.shape[0], data.num_classes))
    for c in range(data.num_classes):
        means[:, c] = h[:, y == c].mean(axis=1)
    return means


def compute_class_statistics(data: LabeledFeatures) -> ClassStatistics:
    """The ClassStatistics of ``data``, with nc2, nc2n and nc2a, computed on
    the first call and kept on ``data``. Raises NumericError when the
    centered means, their squared singular values or the nc1 terms are not
    finite (a diverged run), and warns of nothing on the way there."""
    if data._stats is None:
        with np.errstate(over="ignore", invalid="ignore"):
            means = data.class_means
            centered = means - means.mean(axis=1)[:, None]
            if not np.all(np.isfinite(centered)):
                raise NumericError("class means are not finite")
            u, s, _ = np.linalg.svd(centered, full_matrices=False)
            squares = s * s
            if not np.isfinite(squares[0]):
                raise NumericError("between-class scatter overflows")
            kept = int(np.count_nonzero(squares > DEFAULT_RANK_TOLERANCE * squares[0]))
            # Deviations first, projected after (projecting first and subtracting
            # after cancels digits); np.take gathers C-ordered like the features.
            dev = np.take(means, data.labels, axis=1)
            np.subtract(data.features, dev, out=dev)
            proj = u[:, :kept].T @ dev
            terms = np.einsum("jn,jn->j", proj, proj) / (data.features.shape[1] * squares[:kept])
            del dev, proj           # freed before nc2 runs, so they do not raise the peak
            if not np.isfinite(terms.sum()):
                raise NumericError("nc1 terms are not finite")
        stats = ClassStatistics(
            class_means=means,
            centered_means=_read_only(centered),
            singular_values=_read_only(s),
            nc1_terms=_read_only(terms),
        )
        stats.nc2, stats.nc2n, stats.nc2a = (
            np.where(defined, values, None).tolist() for values, defined in
            (nc2_structure(centered), nc2_norms(centered), nc2_angles(centered)))
        data._stats = stats
    return data._stats


def _self_dots(x: np.ndarray) -> np.ndarray:
    """x_s . x_s of each matrix x_s of x (..., m, n), flattened in C order
    whatever order it is stored in: the dot product np.linalg.norm takes of
    a C-ordered matrix, made as one 1 x mn by mn x 1 product per slice, so
    each is bit-equal to that of the slice alone."""
    lead = x.shape[:-2]
    flat = x.reshape(lead + (1, -1))
    return (flat @ flat.swapaxes(-1, -2)).reshape(lead)


def _frobenius(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_self_dots(x))


def _nonzero(norms: np.ndarray) -> np.ndarray:
    """The norms with each one <= 0 replaced by 1, so that dividing by them
    warns of nothing in a slice whose metric is undefined anyway."""
    return np.where(norms <= 0.0, 1.0, norms)


def nc0_metric(w) -> np.ndarray:
    """(1/p) * ||W^T 1||_2 for each K x p classifier: the scaled row-sum norm."""
    w = as_matrices(w)
    return _frobenius(np.add.reduce(w, axis=-2, keepdims=True)) / w.shape[-1]


def nc0_alpha(w) -> np.ndarray:
    """(1/K) * ||W^T 1||_2^2, the quantity whose decay the step-size/decay
    closed forms describe."""
    w = as_matrices(w)
    return _self_dots(np.add.reduce(w, axis=-2, keepdims=True)) / w.shape[-2]


def nc0_normalized(w) -> tuple:
    """nc0_metric divided by ||W||_F, making the row-sum size scale-free;
    undefined for an all-zero W."""
    w = as_matrices(w)
    norms = _frobenius(w)
    return nc0_metric(w) / _nonzero(norms), ~(norms <= 0.0)


def nc1_variability(stats: ClassStatistics) -> float:
    """(1/K) * trace(Sigma_W @ pinv(Sigma_B)), the NC1 of Papyan, Han and
    Donoho, as (1/N) * sum_j ||u_j^T D||^2 / s_j^2 over the kept rank-(K-1)
    singular directions of the centered means, s_j^2 > 1e-10 * s_0^2 (see
    ClassStatistics). It is 0.0 when Sigma_B == 0 and no direction is kept.
    """
    return float(stats.nc1_terms.sum())


# The kernels below take sets of K vectors, (..., q, K) with the vectors as
# columns, and return (values, defined): the metric of each set, and where
# it is defined.


def _etf_distance(x: np.ndarray) -> tuple:
    """||X/||X||_F - M*||_F / K^2 for each K x K matrix X, M* the simplex
    ETF; undefined where X is zero."""
    k = x.shape[-1]
    norms = _frobenius(x)
    values = _frobenius(x / _nonzero(norms)[..., None, None] - _etf_frame(k)) / k**2
    return values, ~(norms <= 0.0)


def _gram_structure(vectors: np.ndarray) -> tuple:
    """_etf_distance of the Gram matrix G of each vector set."""
    return _etf_distance(vectors.swapaxes(-1, -2) @ vectors)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """The (..., K) vector norms, summed as np.linalg.norm(v, axis=0) sums them."""
    return np.sqrt(np.add.reduce(vectors * vectors, axis=-2))


def _norm_spread(vectors: np.ndarray) -> tuple:
    """std/mean of the vector norms (population std); undefined where every
    vector is zero."""
    norms = _norms(vectors)
    mean = norms.mean(axis=-1)
    return norms.std(axis=-1) / _nonzero(mean), ~(mean <= 0.0)


def _angle_deviation(vectors: np.ndarray) -> tuple:
    """Mean |cos(v_k, v_k') + 1/(K-1)| over distinct pairs of vectors;
    undefined where a vector norm is below 1e-12."""
    k = vectors.shape[-1]
    norms = _norms(vectors)
    short = norms < _NORM_FLOOR
    unit = vectors / np.where(short, 1.0, norms)[..., None, :]
    cos = unit.swapaxes(-1, -2) @ unit
    # The gather comes back strided; made contiguous, each slice's mean sums
    # in the pairwise order of the mean of one matrix's entries.
    off = np.ascontiguousarray(cos[..., _off_diagonal(k)])
    return np.abs(off + 1.0 / (k - 1)).mean(axis=-1), ~short.any(axis=-1)


def nc2_structure(means) -> tuple:
    """Distance of the normalized Gram matrix of the centered class means
    (..., p, K) from the simplex ETF."""
    return _gram_structure(as_matrices(means))


def nc2_norms(means) -> tuple:
    """Relative spread of the centered class-mean norms (0 = equinorm)."""
    return _norm_spread(as_matrices(means))


def nc2_angles(means) -> tuple:
    """Mean deviation of centered-mean cosines from the ideal -1/(K-1)."""
    return _angle_deviation(as_matrices(means))


def _rows(w) -> np.ndarray:
    """The classifier rows of W (..., K, p) as vector sets (..., p, K)."""
    return as_matrices(w).swapaxes(-1, -2)


def nc2w_structure(w) -> tuple:
    """nc2 computed on classifier rows instead of class means."""
    return _gram_structure(_rows(w))


def nc2w_norms(w) -> tuple:
    return _norm_spread(_rows(w))


def nc2w_angles(w) -> tuple:
    return _angle_deviation(_rows(w))


def nc2m_duality(w, means) -> tuple:
    """||WM/||WM||_F - M*||_F / K^2: cross-Gram version coupling W and the
    centered means M, p x K or a stack that broadcasts against W."""
    w, m = as_matrices(w), as_matrices(means)
    if w.shape[-1] != m.shape[-2]:
        raise ShapeError(f"W is {w.shape} but means are {m.shape}")
    return _etf_distance(w @ m)


def nc3_alignment(w, means) -> tuple:
    """(1/(Kp)) * || W/||W||_F - M^T/||M^T||_F ||_F (0 = self-dual), with
    the centered means M as nc2m_duality takes them."""
    w, m = as_matrices(w), as_matrices(means)
    if w.shape[-2:] != m.shape[:-3:-1]:
        raise ShapeError(f"W is {w.shape} but M^T is {m.shape[:-3:-1]}")
    # ||M^T||_F taken of M: a norm of the swapped view sums in another order
    wn, mn = _frobenius(w), _frobenius(m)
    diff = (w / _nonzero(wn)[..., None, None]
            - m.swapaxes(-1, -2) / _nonzero(mn)[..., None, None])
    k, p = w.shape[-2:]
    return _frobenius(diff) / (k * p), ~((wn <= 0.0) | (mn <= 0.0))


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


def nc4_agreement(w, data: LabeledFeatures) -> np.ndarray:
    """Fraction of samples where argmax_k <w_k, h> equals the nearest
    (uncentered) class-mean decision, for each classifier of W (..., K, p).
    Ties resolve to the lowest class index on both sides. Both decisions
    are kept on ``data``: the nearest-mean ones, and the linear ones of the
    last W asked for.
    """
    w = as_matrices(w)
    if w.shape[-1] != data.features.shape[0]:
        raise ShapeError(f"W is {w.shape} but features are {data.features.shape}")
    agree = np.count_nonzero(data._linear_decisions(w) == data._nearest_decisions(), axis=-1)
    return agree / data.features.shape[1]


def all_metrics(w, data) -> dict:
    """The full metric suite of each classifier of W (..., K, p), as
    columns: each of the 13 metric keys maps to np.where(defined, values,
    None).tolist(), and ``flags`` to the flags of each slice, which name the
    metrics skipped as degenerate and whether sigma_b was all-zero. For one
    K x p W that is a float or None per key and one flags dict; for a stack,
    a list per key.

    ``data`` is one LabeledFeatures that every slice reads, or, for an
    S x K x p stack, a sequence of one per slice. nc1, nc2, nc2n and nc2a
    are read from its ClassStatistics.
    """
    w = as_matrices(w)
    lead = w.shape[:-2]
    if isinstance(data, LabeledFeatures):
        stats = [compute_class_statistics(data)]
        means = stats[0].centered_means
        nc4 = nc4_agreement(w, data)
    else:
        data = list(data)
        if lead != (len(data),):
            raise ShapeError(f"{len(data)} feature sets for classifiers of shape {w.shape}")
        stats = [compute_class_statistics(d) for d in data]
        means = np.stack([s.centered_means for s in stats])
        # each slice as a stack of one, the key its decisions are kept under
        nc4 = np.array([nc4_agreement(w[i:i + 1], d)[0] for i, d in enumerate(data)])

    def column(values, defined=True) -> np.ndarray:
        return np.broadcast_to(np.where(defined, values, None), lead)

    def per_features(read) -> np.ndarray:
        return column(np.array([read(s) for s in stats], dtype=object).reshape(means.shape[:-2]))

    columns = {
        "nc0": column(nc0_metric(w)),
        "nc0_alpha": column(nc0_alpha(w)),
        "nc0_normalized": column(*nc0_normalized(w)),
        "nc1": per_features(nc1_variability),
        "nc2": per_features(lambda s: s.nc2),
        "nc2n": per_features(lambda s: s.nc2n),
        "nc2a": per_features(lambda s: s.nc2a),
        "nc2w": column(*nc2w_structure(w)),
        "nc2wn": column(*nc2w_norms(w)),
        "nc2wa": column(*nc2w_angles(w)),
        "nc2m": column(*nc2m_duality(w, means)),
        "nc3": column(*nc3_alignment(w, means)),
        "nc4": column(nc4),
    }
    degenerate = per_features(lambda s: s.nc1_terms.size == 0)
    skipped = np.stack([np.equal(columns[key], None) for key in METRIC_KEYS], axis=-1)
    flags = np.empty(lead, dtype=object)
    for i in np.ndindex(lead):
        flags[i] = {"sigma_b_degenerate": degenerate[i],
                    "skipped": [key for key, s in zip(METRIC_KEYS, skipped[i]) if s]}
    out = {key: values.tolist() for key, values in columns.items()}
    out["flags"] = flags.tolist()
    return out
