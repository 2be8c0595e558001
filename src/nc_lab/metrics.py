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

Inputs are float64 ndarrays or nested lists. A LabeledFeatures keeps what is
computed from its features, and its ClassStatistics holds nc2, nc2n and nc2a,
so the metrics of one feature set share one computation. The metrics of W,
and all_metrics, also take an S x K x p stack of W and run once over it,
giving one value per slice, equal to the call on that slice alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .linalg import DEFAULT_RANK_TOLERANCE, as_array

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
    snapshot of one fixed feature set, shares one computation. The features and labels must therefore not be
    changed after construction; build a new LabeledFeatures for new features.
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
        """argmax_k (W H)_k for each sample, ties to the lowest k, from the
        ``logits`` W H when the caller has them; of a stack of W, one row
        per slice. Kept for the last W asked
        for, matched by shape and bytes (so a W that differs by a -0.0 or a
        NaN payload is computed afresh), so that a snapshot's train_acc and
        nc4 read one product W H."""
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
    centered class means M (means minus mean-of-means).

    With the thin SVD M = U S V^T, Sigma_B = M M^T / K = U (S^2 / K) U^T.
    ``nc1_terms`` holds ||u_j^T D||^2 / (N s_j^2), D the deviations
    h_n - mu_(y_n), for each kept direction: s_j^2 > DEFAULT_RANK_TOLERANCE
    * s_0^2. ``nc2``, ``nc2n`` and ``nc2a`` are nc2_structure, nc2_norms and
    nc2_angles of M, or None where M leaves them undefined; the arrays are
    read-only.
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


def _or_none(fn, *args) -> Optional[float]:
    """fn(*args), or None where it raises DomainError (a degenerate metric)."""
    try:
        return fn(*args)
    except DomainError:
        return None


def compute_class_statistics(data: LabeledFeatures) -> ClassStatistics:
    """The ClassStatistics of ``data``, with nc2, nc2n and nc2a, computed on
    the first call and kept on ``data``. Raises NumericError when the
    centered means, their squared singular values or the nc1 terms are not
    finite (a diverged run)."""
    if data._stats is None:
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
        stats.nc2 = _or_none(nc2_structure, stats)
        stats.nc2n = _or_none(nc2_norms, stats)
        stats.nc2a = _or_none(nc2_angles, stats)
        data._stats = stats
    return data._stats


def _as_stack(w) -> tuple:
    """(``w`` as an S x K x p float64 stack, whether it came as one): a
    K x p matrix is a stack of one slice."""
    a = np.asarray(w, dtype=np.float64)
    if a.ndim == 3:
        return a, True
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix or a stack of them, got ndim={a.ndim}")
    return a[None], False


def _per_slice(stacked: bool, values, defined=None, undefined: str = ""):
    """A metric's values over a stack as its function returns them: for a
    stack, a list with one float per slice and None where ``defined`` is
    False; for one matrix, its float, or DomainError(undefined)."""
    if stacked:
        if defined is None:
            return values.tolist()
        return [v if ok else None for v, ok in zip(values.tolist(), defined.tolist())]
    if defined is not None and not defined[0]:
        raise DomainError(undefined)
    return float(values[0])


def _self_dots(x: np.ndarray) -> np.ndarray:
    """x_s . x_s of each slice x_s of a stack, flattened in the order it is
    stored (C or Fortran): the dot product np.linalg.norm takes of one
    matrix, made as S products 1 x n by n x 1, so each is bit-equal to the
    norm of that slice alone."""
    flat = x.reshape(x.shape[0], 1, -1, order="A")
    return (flat @ flat.transpose(0, 2, 1)).reshape(-1)


def _frobenius(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_self_dots(x))


def _nonzero(norms: np.ndarray) -> np.ndarray:
    """The norms with each one <= 0 replaced by 1, so that dividing by them
    warns of nothing in a slice whose metric is undefined anyway."""
    return np.where(norms <= 0.0, 1.0, norms)


def nc0_metric(w):
    """(1/p) * ||W^T 1||_2 for a K x p classifier: the scaled row-sum norm.
    Of an S x K x p stack, a list with the value of each slice."""
    ws, stacked = _as_stack(w)
    return _per_slice(stacked, _frobenius(ws.sum(axis=1)) / ws.shape[2])


def nc0_alpha(w):
    """(1/K) * ||W^T 1||_2^2, the quantity whose decay the step-size/decay
    closed forms describe; per slice of a stack."""
    ws, stacked = _as_stack(w)
    return _per_slice(stacked, _self_dots(ws.sum(axis=1)) / ws.shape[1])


def nc0_normalized(w):
    """nc0_metric divided by ||W||_F, making the row-sum size scale-free;
    per slice of a stack, None where the slice is all zero."""
    ws, stacked = _as_stack(w)
    norms = _frobenius(ws)
    nc0 = _frobenius(ws.sum(axis=1)) / ws.shape[2]
    return _per_slice(stacked, nc0 / _nonzero(norms), ~(norms <= 0.0),
                      "nc0_normalized undefined for an all-zero matrix")


def nc1_variability(stats: ClassStatistics) -> float:
    """(1/K) * trace(Sigma_W @ pinv(Sigma_B)), the NC1 of Papyan, Han and
    Donoho, as (1/N) * sum_j ||u_j^T D||^2 / s_j^2 over the kept rank-(K-1)
    singular directions of the centered means, s_j^2 > 1e-10 * s_0^2 (see
    ClassStatistics). It is 0.0 when Sigma_B == 0 and no direction is kept.
    """
    return float(stats.nc1_terms.sum())


# The helpers below take a stack of vector sets, S x q x K (the K vectors
# of each set are its columns), and return (values, defined): the metric of
# each slice, and where it is defined.


def _etf_distance(x: np.ndarray) -> tuple:
    """||X/||X||_F - M*||_F / K^2 for each K x K slice X, M* the simplex
    ETF; undefined where X is zero."""
    k = x.shape[-1]
    norms = _frobenius(x)
    values = _frobenius(x / _nonzero(norms)[:, None, None] - _etf_frame(k)) / k**2
    return values, ~(norms <= 0.0)


def _gram_structure(vectors: np.ndarray) -> tuple:
    """_etf_distance of the Gram matrix G of each vector set."""
    return _etf_distance(vectors.transpose(0, 2, 1) @ vectors)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """The S x K vector norms, summed as np.linalg.norm(v, axis=0) sums them."""
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
    unit = vectors / np.where(short, 1.0, norms)[:, None, :]
    cos = unit.transpose(0, 2, 1) @ unit
    # The gather comes back strided; made contiguous, each slice's mean sums
    # in the pairwise order of the mean of one matrix's entries.
    off = np.ascontiguousarray(cos[:, _off_diagonal(k)])
    return np.abs(off + 1.0 / (k - 1)).mean(axis=-1), ~short.any(axis=-1)


_STRUCTURE_UNDEFINED = "structure metric undefined for all-zero vectors"
_SPREAD_UNDEFINED = "norm spread undefined when all vectors are zero"
_ANGLE_UNDEFINED = "angle metric undefined: a vector norm is below 1e-12"


def _stats_metric(kernel, stats: ClassStatistics, undefined: str) -> float:
    """A vector-set metric of the centered class means."""
    return _per_slice(False, *kernel(stats.centered_means[None]), undefined)


def nc2_structure(stats: ClassStatistics) -> float:
    """Distance of the normalized centered-mean Gram matrix from the simplex ETF."""
    return _stats_metric(_gram_structure, stats, _STRUCTURE_UNDEFINED)


def nc2_norms(stats: ClassStatistics) -> float:
    """Relative spread of the centered class-mean norms (0 = equinorm)."""
    return _stats_metric(_norm_spread, stats, _SPREAD_UNDEFINED)


def nc2_angles(stats: ClassStatistics) -> float:
    """Mean deviation of centered-mean cosines from the ideal -1/(K-1)."""
    return _stats_metric(_angle_deviation, stats, _ANGLE_UNDEFINED)


def _rows_metric(kernel, w, undefined: str):
    """A vector-set metric of the classifier rows, per slice of a stack."""
    ws, stacked = _as_stack(w)
    return _per_slice(stacked, *kernel(ws.transpose(0, 2, 1)), undefined)


def nc2w_structure(w):
    """nc2 computed on classifier rows instead of class means; per slice of
    a stack, None where undefined."""
    return _rows_metric(_gram_structure, w, _STRUCTURE_UNDEFINED)


def nc2w_norms(w):
    return _rows_metric(_norm_spread, w, _SPREAD_UNDEFINED)


def nc2w_angles(w):
    return _rows_metric(_angle_deviation, w, _ANGLE_UNDEFINED)


def _centered_stack(stats, slices: int) -> np.ndarray:
    """The centered means of ``stats`` as a stack: of one ClassStatistics,
    a stack of one that every W slice reads, else one per W slice."""
    if isinstance(stats, ClassStatistics):
        return stats.centered_means[None]
    if len(stats) != slices:
        raise ShapeError(f"{len(stats)} class statistics for {slices} classifiers")
    return np.stack([s.centered_means for s in stats])


def nc2m_duality(w, stats):
    """||WM/||WM||_F - M*||_F / K^2: cross-Gram version coupling W and means.
    Of a stack, per slice: ``stats`` is one ClassStatistics for every slice
    or a sequence with one per slice."""
    ws, stacked = _as_stack(w)
    ms = _centered_stack(stats, len(ws))
    if ws.shape[2] != ms.shape[1]:
        raise ShapeError(f"W is {np.shape(w)} but means are {ms.shape[1:]}")
    return _per_slice(stacked, *_etf_distance(ws @ ms), "nc2m undefined: WM is zero")


def nc3_alignment(w, stats):
    """(1/(Kp)) * || W/||W||_F - M^T/||M^T||_F ||_F (0 = self-dual). Of a
    stack, per slice, with ``stats`` as nc2m_duality takes them."""
    ws, stacked = _as_stack(w)
    ms = _centered_stack(stats, len(ws))
    if ws.shape[1:] != ms.shape[:0:-1]:
        raise ShapeError(f"W is {np.shape(w)} but M^T is {ms.shape[:0:-1]}")
    wn, mn = _frobenius(ws), _frobenius(ms)
    diff = ws / _nonzero(wn)[:, None, None] - ms.transpose(0, 2, 1) / _nonzero(mn)[:, None, None]
    _, k, p = ws.shape
    return _per_slice(stacked, _frobenius(diff) / (k * p), ~((wn <= 0.0) | (mn <= 0.0)),
                      "nc3 undefined when W or the centered means are zero")


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


def nc4_agreement(w, data: LabeledFeatures):
    """Fraction of samples where argmax_k <w_k, h> equals the nearest
    (uncentered) class-mean decision, per slice of a stack of W. Ties
    resolve to the lowest class index on both sides. Both decisions are
    kept on ``data``: the nearest-mean ones, and the linear ones of the last
    W or stack.
    """
    w = np.asarray(w, dtype=np.float64)
    ws, stacked = _as_stack(w)
    if ws.shape[2] != data.features.shape[0]:
        raise ShapeError(f"W is {w.shape} but features are {data.features.shape}")
    agree = np.count_nonzero(data._linear_decisions(w) == data._nearest_decisions(), axis=-1)
    return _per_slice(stacked, np.reshape(agree / data.features.shape[1], -1))


def all_metrics(w, data):
    """Evaluate the full metric suite, mapping degenerate metrics to None.

    Returns a dict with the 13 metric keys plus ``flags`` listing which
    metrics were skipped as degenerate and whether sigma_b was all-zero.
    nc2, nc2n and nc2a are read from the ClassStatistics of ``data``.

    ``w`` may also be an S x K x p stack, with ``data`` one LabeledFeatures
    that every slice reads or a sequence of one per slice. Each W-side
    metric then runs once over the stack, and the result is a list of the
    dicts, each equal to the call on its slice alone.
    """
    ws, stacked = _as_stack(w)
    if isinstance(data, LabeledFeatures):
        stats = compute_class_statistics(data)
        distinct, repeat = [stats], len(ws)
        nc4 = nc4_agreement(ws, data)
    else:
        data = list(data)
        if len(data) != len(ws):
            raise ShapeError(f"{len(data)} feature sets for {len(ws)} classifiers")
        stats = distinct = [compute_class_statistics(d) for d in data]
        repeat = 1
        # each slice as a stack of one, the key its decisions are kept under
        nc4 = [nc4_agreement(ws[i:i + 1], d)[0] for i, d in enumerate(data)]
    columns = {
        "nc0": nc0_metric(ws),
        "nc0_alpha": nc0_alpha(ws),
        "nc0_normalized": nc0_normalized(ws),
        "nc1": [nc1_variability(s) for s in distinct] * repeat,
        "nc2": [s.nc2 for s in distinct] * repeat,
        "nc2n": [s.nc2n for s in distinct] * repeat,
        "nc2a": [s.nc2a for s in distinct] * repeat,
        "nc2w": nc2w_structure(ws),
        "nc2wn": nc2w_norms(ws),
        "nc2wa": nc2w_angles(ws),
        "nc2m": nc2m_duality(ws, stats),
        "nc3": nc3_alignment(ws, stats),
        "nc4": nc4,
    }
    degenerate = [s.nc1_terms.size == 0 for s in distinct] * repeat
    out = []
    for i, sigma_b_degenerate in enumerate(degenerate):
        bundle = {key: columns[key][i] for key in METRIC_KEYS}
        bundle["flags"] = {"sigma_b_degenerate": sigma_b_degenerate,
                           "skipped": [key for key in METRIC_KEYS if bundle[key] is None]}
        out.append(bundle)
    return out if stacked else out[0]
