"""Trainable models and data generators for desk-scale collapse experiments.

Two model families:

* ``UFMModel`` -- a linear classifier W over free feature columns H, with the
  option of freezing H at the simplex frame (square geometry), which is the
  setting the closed-form step-size/decay predictions describe.
* ``MLPModel`` -- a rectifier network whose final linear layer (no bias) is
  the classifier W; everything below it is the feature map.

The cross-entropy gradient with respect to W always has zero column sums
(softmax columns and one-hot labels both sum to one), which is what makes the
row-sum recursions exact regardless of batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import as_array
from .metrics import LabeledFeatures, simplex_etf

__all__ = [
    "one_hot",
    "softmax_columns",
    "ce_loss_and_grad",
    "ce_loss_from_logits",
    "UFMModel",
    "ufm_loss_and_grads",
    "MLPModel",
    "mlp_forward_backward",
    "SyntheticDataset",
    "make_blob_dataset",
    "make_nc_solution",
]


def one_hot(labels, num_classes: int) -> np.ndarray:
    """K x N one-hot indicator matrix for integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise DomainError(f"labels must lie in [0, {num_classes})")
    y = np.zeros((num_classes, labels.shape[0]))
    y[labels, np.arange(labels.shape[0])] = 1.0
    return y


def softmax_columns(z: np.ndarray) -> np.ndarray:
    """Column-wise softmax with per-column max subtraction."""
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def ce_loss_and_grad(w, x, y):
    """Mean cross-entropy of softmax(W X) against one-hot targets Y.

    Returns (loss, grad_w, grad_x) with
        grad_w = (1/N) (S - Y) X^T      (zero column sums),
        grad_x = (1/N) W^T (S - Y).
    """
    w, x, y = as_array(w), as_array(x), as_array(y)
    if w.shape[1] != x.shape[0]:
        raise ShapeError(f"W {w.shape} does not left-multiply X {x.shape}")
    if y.shape != (w.shape[0], x.shape[1]):
        raise ShapeError(f"Y must be {w.shape[0]}x{x.shape[1]}, got {y.shape}")
    loss, e, total = _ce_terms(w @ x, y)
    delta = (e / total - y) / x.shape[1]
    return loss, delta @ x.T, w.T @ delta


def _ce_terms(z: np.ndarray, y: np.ndarray):
    """(mean cross-entropy, exp of the max-shifted logits, their column sums)."""
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=0, keepdims=True)
    log_p = shifted - np.log(total)
    return -float((y * log_p).sum()) / z.shape[1], e, total


def ce_loss_from_logits(z, y) -> float:
    """Mean cross-entropy of softmax(Z) against one-hot targets Y, for
    logits Z = W X already computed; equal to ce_loss_and_grad's loss."""
    return _ce_terms(as_array(z), as_array(y))[0]


class UFMModel:
    """Linear classifier over directly trainable feature columns.

    W is K x P, H is P x N with one column per sample. ``l2_lambda`` records
    the decay constant associated with the run; it never enters the loss --
    regularization acts through the optimizer's weight-decay step.
    """

    def __init__(self, w, h, labels, num_classes: int,
                 feature_trainable: bool = True, l2_lambda: float = 0.0):
        self.W = as_array(w).copy()
        self.H = as_array(h).copy()
        self.labels = np.asarray(labels, dtype=np.int64)
        self.num_classes = int(num_classes)
        self.feature_trainable = bool(feature_trainable)
        self.l2_lambda = float(l2_lambda)
        if self.W.shape[1] != self.H.shape[0]:
            raise ShapeError(f"W {self.W.shape} does not match H {self.H.shape}")
        if self.W.shape[0] != self.num_classes:
            raise ShapeError("W must have one row per class")
        if self.labels.shape[0] != self.H.shape[1]:
            raise ShapeError("one label per feature column required")
        self.Y = one_hot(self.labels, self.num_classes)

    @classmethod
    def create(cls, num_classes: int, feature_dim: int, per_class: int = 1,
               seed: int = 0, init_scale: float = 0.1,
               feature_trainable: bool = True, l2_lambda: float = 0.0) -> "UFMModel":
        """Gaussian-initialized model with balanced labels 0..K-1 repeated."""
        rng = np.random.default_rng(seed)
        n = num_classes * per_class
        w = init_scale * rng.standard_normal((num_classes, feature_dim))
        h = init_scale * rng.standard_normal((feature_dim, n))
        labels = np.repeat(np.arange(num_classes), per_class)
        return cls(w, h, labels, num_classes, feature_trainable, l2_lambda)

    @classmethod
    def fixed_features(cls, num_classes: int, init: str = "zero", seed: int = 0,
                       init_scale: float = 0.1, l2_lambda: float = 0.0) -> "UFMModel":
        """Square geometry P = N = K with H frozen at the simplex frame.

        ``init`` is "zero" (the closed-form trajectories start here) or
        "gaussian".
        """
        k = int(num_classes)
        h = simplex_etf(k)
        if init == "zero":
            w = np.zeros((k, k))
        elif init == "gaussian":
            w = init_scale * np.random.default_rng(seed).standard_normal((k, k))
        else:
            raise DomainError(f"unknown init {init!r}")
        return cls(w, h, np.arange(k), k, feature_trainable=False, l2_lambda=l2_lambda)

    def loss_and_grads(self, columns: Optional[np.ndarray] = None):
        """(loss, grad_W, grad_H-or-None), optionally restricted to a column
        subset (mini-batch). grad_H is None when features are frozen."""
        if columns is None:
            h, y = self.H, self.Y
        else:
            h, y = self.H[:, columns], self.Y[:, columns]
        loss, grad_w, grad_h = ce_loss_and_grad(self.W, h, y)
        return loss, grad_w, (grad_h if self.feature_trainable else None)

    def features(self) -> np.ndarray:
        return self.H


def ufm_loss_and_grads(model: UFMModel):
    return model.loss_and_grads()


class MLPModel:
    """Rectifier network: hidden affine+ReLU layers, then a bias-free linear
    classifier over the last hidden activations (the feature map)."""

    def __init__(self, hidden_weights: Sequence[np.ndarray],
                 hidden_biases: Sequence[np.ndarray], final_weight: np.ndarray):
        if len(hidden_weights) != len(hidden_biases):
            raise ShapeError("one bias vector per hidden layer required")
        self.hidden_weights = [as_array(w).copy() for w in hidden_weights]
        self.hidden_biases = [as_array(b).copy() for b in hidden_biases]
        self.final_weight = as_array(final_weight).copy()

    @classmethod
    def create(cls, input_dim: int, hidden_sizes: Sequence[int], num_classes: int,
               seed: int = 0, init_scale: float = 0.1) -> "MLPModel":
        rng = np.random.default_rng(seed)
        ws, bs = [], []
        fan_in = input_dim
        for h in hidden_sizes:
            ws.append(init_scale * rng.standard_normal((h, fan_in)))
            bs.append(init_scale * rng.standard_normal((h, 1)))
            fan_in = h
        final = init_scale * rng.standard_normal((num_classes, fan_in))
        return cls(ws, bs, final)

    def parameters(self) -> list:
        """Flat parameter list: W1, b1, ..., WL, bL, final W."""
        out = []
        for w, b in zip(self.hidden_weights, self.hidden_biases):
            out.extend([w, b])
        out.append(self.final_weight)
        return out

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        expected = 2 * len(self.hidden_weights) + 1
        if len(params) != expected:
            raise ShapeError(f"expected {expected} parameter arrays, got {len(params)}")
        it = iter(params)
        for i in range(len(self.hidden_weights)):
            self.hidden_weights[i] = next(it)
            self.hidden_biases[i] = next(it)
        self.final_weight = next(it)

    def features(self, x) -> np.ndarray:
        a = as_array(x)
        for w, b in zip(self.hidden_weights, self.hidden_biases):
            a = np.maximum(w @ a + b, 0.0)
        return a

    def forward_backward(self, x, y):
        """Full forward pass and backprop.

        Returns (loss, grads, features): ``grads`` aligns with
        ``parameters()``; ``features`` is the last hidden activation matrix.
        """
        x, y = as_array(x), as_array(y)
        activations = [x]
        pre = []
        a = x
        for w, b in zip(self.hidden_weights, self.hidden_biases):
            z = w @ a + b
            pre.append(z)
            a = np.maximum(z, 0.0)
            activations.append(a)
        feats = a
        loss, grad_final, d_feats = ce_loss_and_grad(self.final_weight, feats, y)
        grads_rev = [grad_final]
        d_a = d_feats
        for i in range(len(self.hidden_weights) - 1, -1, -1):
            d_z = d_a * (pre[i] > 0.0)
            grads_rev.append(d_z.sum(axis=1, keepdims=True))   # bias grad
            grads_rev.append(d_z @ activations[i].T)           # weight grad
            if i > 0:
                d_a = self.hidden_weights[i].T @ d_z
        return loss, grads_rev[::-1], feats

    def logits(self, x) -> np.ndarray:
        return self.final_weight @ self.features(x)

    def accuracy(self, x, labels) -> float:
        pred = np.argmax(self.logits(x), axis=0)
        return float(np.mean(pred == np.asarray(labels)))


def mlp_forward_backward(model: MLPModel, x, y):
    return model.forward_backward(x, y)


@dataclass
class SyntheticDataset:
    """Gaussian class blobs: features d x N (columns are samples)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    seed: int

    def as_labeled_features(self) -> LabeledFeatures:
        return LabeledFeatures(self.features, self.labels, self.num_classes)

    @property
    def num_samples(self) -> int:
        return self.features.shape[1]


def _etf_directions(num_classes: int, dim: int, rng) -> np.ndarray:
    """K maximally separated unit-scale directions embedded in R^dim.

    The K frame columns span a (K-1)-dimensional subspace, so they fit in any
    dim >= K-1 via a random orthonormal embedding.
    """
    etf = simplex_etf(num_classes)
    u, s, _ = np.linalg.svd(etf)
    basis = u[:, : num_classes - 1]          # spans the frame's column space
    coords = basis.T @ etf                   # (K-1) x K, same Gram as etf
    g = rng.standard_normal((dim, num_classes - 1))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return q @ coords                        # dim x K


def make_blob_dataset(num_classes: int, dim: int, per_class: int, margin: float = 1.0,
                      seed: int = 0, noise_std: float = 1.0) -> SyntheticDataset:
    """Isotropic Gaussian blobs around maximally separated class centers.

    Centers are scaled so the minimum inter-center distance equals
    4 * margin * sqrt(dim); with unit noise_std the RMS noise radius is
    sqrt(dim), so margin = 1 leaves a 4x gap and any margin > 0 keeps the
    classes linearly separable in expectation. noise_std = 0 collapses every
    sample onto its class center. Deterministic for a fixed seed.
    """
    if num_classes < 2:
        raise DomainError("need at least 2 classes")
    if dim < num_classes - 1:
        raise DomainError(f"dim must be >= num_classes - 1, got {dim} < {num_classes - 1}")
    if per_class < 1:
        raise DomainError("per_class must be >= 1")
    if margin < 0 or noise_std < 0:
        raise DomainError("margin and noise_std must be >= 0")
    rng = np.random.default_rng(seed)
    directions = _etf_directions(num_classes, dim, rng)
    min_dist = np.sqrt(2.0 / (num_classes - 1))  # min pairwise distance of the frame
    centers = directions * (4.0 * margin * np.sqrt(dim) / min_dist)
    labels = np.repeat(np.arange(num_classes), per_class)
    noise = rng.standard_normal((dim, labels.shape[0]))
    features = centers[:, labels] + noise_std * noise
    return SyntheticDataset(features, labels, num_classes, seed)


def make_nc_solution(num_classes: int, feature_dim: int, scale_w: float = 1.0,
                     scale_h: float = 1.0, isometry_seed: int = 0):
    """A collapsed configuration: (W, H, labels) with H columns on an
    isometrically embedded simplex frame and W proportional to H^T.

    Requires feature_dim >= num_classes. Any positive scales leave the
    collapse metrics at zero and classifier/nearest-mean agreement at one.
    """
    k, p = int(num_classes), int(feature_dim)
    if p < k:
        raise DomainError(f"feature_dim must be >= num_classes, got {p} < {k}")
    if scale_w <= 0 or scale_h <= 0:
        raise DomainError("scales must be positive")
    rng = np.random.default_rng(isometry_seed)
    g = rng.standard_normal((p, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    base = q @ simplex_etf(k)                # p x k, isometric frame copy
    w = scale_w * base.T
    h = scale_h * base
    labels = np.arange(k)
    return w, h, labels
