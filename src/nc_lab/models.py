"""Trainable models and data generators for desk-scale collapse experiments.

Two model families:

* ``UFMModel`` -- a linear classifier W over free feature columns H, both
  trained.
* ``MLPModel`` -- a rectifier network whose final linear layer (no bias) is
  the classifier W; everything below it is the feature map. With no hidden
  layer it is a linear classifier over fixed inputs: trained on the K columns
  of the simplex frame, that is the square geometry the closed-form
  step-size/decay predictions describe.

Both list their trained arrays with ``parameters()``, the classifier last,
and take them back with ``set_parameters``.

The cross-entropy gradient with respect to W always has zero column sums
(softmax columns and one-hot labels both sum to one), which is what makes the
row-sum recursions exact regardless of batching.

The training arithmetic also runs on stacks: the arrays of G models of one
shape stacked on a leading cell axis. Each cell's slice of a stacked result
equals the 2-D computation on that cell bit for bit, because numpy's matmul
makes one BLAS call per slice and every other operation is elementwise or
reduces within a slice.

The forward and backward passes write their elementwise steps (bias add,
ReLU, max shift, log-probabilities, the one-hot product, the softmax delta
and the ReLU mask) into arrays they allocated themselves, with ``out=`` or
an augmented assignment. That is the same arithmetic in the same order, so
the bits do not change; no argument a caller passes is ever written.

``ce_loss_and_grad`` coerces its operands to float64 and checks their
shapes on every call, also when a model's pass calls it. It makes the
gradient with respect to its input X only when asked (``input_grad``): an
MLP with no hidden layer trains on its fixed input, so its pass asks for
none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .metrics import simplex_etf

__all__ = [
    "one_hot",
    "gather_columns",
    "ce_loss_and_grad",
    "ce_loss_from_logits",
    "UFMModel",
    "MLPModel",
    "SyntheticDataset",
    "make_blob_dataset",
]


def one_hot(labels, num_classes: int) -> np.ndarray:
    """K x N one-hot indicator matrix for integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise DomainError(f"labels must lie in [0, {num_classes})")
    y = np.zeros((num_classes, labels.shape[0]))
    y[labels, np.arange(labels.shape[0])] = 1.0
    return y


def _as_matrices(m) -> np.ndarray:
    """Coerce to a float64 matrix, or to a stack of matrices on a leading axis."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ShapeError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    return a


def gather_columns(m: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The batch columns ``m[:, columns]``. A (G, B) ``columns`` picks one
    batch per cell, from a shared matrix or from a (G, P, N) stack, and gives
    (G, P, B). Each cell's slice has the Fortran-ordered layout of the 2-D
    gather, so the products it feeds make the same BLAS calls."""
    if columns.ndim == 1:
        return m[:, columns]
    if m.ndim == 2:
        return m[:, columns].transpose(1, 0, 2)
    return m[np.arange(m.shape[0])[:, None], :, columns].swapaxes(-1, -2)


def ce_loss_and_grad(w, x, y, input_grad: bool = True):
    """Mean cross-entropy of softmax(W X) against one-hot targets Y.

    Returns (loss, grad_w, grad_x) with
        grad_w = (1/N) (S - Y) X^T      (zero column sums),
        grad_x = (1/N) W^T (S - Y),
    or None for grad_x without ``input_grad``, for inputs that are not
    trained (the product is then not made; loss and grad_w keep their bits).
    Operands may be stacks on a leading cell axis (a shared operand
    broadcasts); the loss is then one value per cell. The operands are
    coerced to float64 and their shapes checked here, on every call.
    """
    w, x, y = _as_matrices(w), _as_matrices(x), _as_matrices(y)
    if w.shape[-1] != x.shape[-2]:
        raise ShapeError(f"W {w.shape} does not left-multiply X {x.shape}")
    if y.shape[-2:] != (w.shape[-2], x.shape[-1]):
        raise ShapeError(f"Y must be {w.shape[-2]}x{x.shape[-1]}, got {y.shape}")
    z = w @ x
    loss, delta, total = _ce_terms(z, y)
    del z
    delta /= total            # the softmax S, then (S - Y) / N
    delta -= y
    delta /= x.shape[-1]
    grad_x = w.swapaxes(-1, -2) @ delta if input_grad else None
    return loss, delta @ x.swapaxes(-1, -2), grad_x


def _ce_terms(z: np.ndarray, y: np.ndarray):
    """(mean cross-entropy, exp of the max-shifted logits, their column sums);
    the loss is a float for a matrix and one value per cell for a stack.
    Overwrites ``z``, which the caller allocated for this call, so Y may not
    carry a cell axis that Z lacks."""
    if y.ndim > z.ndim:
        raise ShapeError(f"Y {y.shape} is a stack but the logits {z.shape} are not")
    # the ufunc reductions that ndarray.max and ndarray.sum call, without
    # their Python wrappers
    z -= np.maximum.reduce(z, axis=-2, keepdims=True)
    e = np.exp(z)
    total = np.add.reduce(e, axis=-2, keepdims=True)
    z -= np.log(total)        # the log-probabilities
    z *= y
    if z.ndim == 2:
        return -float(np.add.reduce(z, axis=None)) / z.shape[1], e, total
    return -np.add.reduce(z.reshape(z.shape[0], -1), axis=1) / z.shape[-1], e, total


def ce_loss_from_logits(z, y) -> float:
    """Mean cross-entropy of softmax(Z) against one-hot targets Y, for
    logits Z = W X already computed; equal to ce_loss_and_grad's loss.
    Z is read, not written."""
    return _ce_terms(_as_matrices(z).copy(), _as_matrices(y))[0]


def _affine_relu(w: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """relu(W a + b), computed in the buffer of the product W a."""
    z = w @ a
    z += b
    return np.maximum(z, 0.0, out=z)


class UFMModel:
    """Linear classifier over directly trainable feature columns.

    W is K x P, H is P x N with one column per sample. Nothing in the loss
    regularizes; weight decay acts through the optimizer's step. In a stack
    W is G x K x P and H is G x P x N.
    """

    def __init__(self, w, h, labels, num_classes: int):
        self.W = _as_matrices(w).copy()
        self.H = _as_matrices(h).copy()
        self.labels = np.asarray(labels, dtype=np.int64)
        self.num_classes = int(num_classes)
        if self.W.shape[-1] != self.H.shape[-2]:
            raise ShapeError(f"W {self.W.shape} does not match H {self.H.shape}")
        if self.W.shape[-2] != self.num_classes:
            raise ShapeError("W must have one row per class")
        if self.labels.shape[0] != self.H.shape[-1]:
            raise ShapeError("one label per feature column required")
        self.Y = one_hot(self.labels, self.num_classes)

    @classmethod
    def stack(cls, models) -> "UFMModel":
        """Models of one shape and labels as one stacked model."""
        first = models[0]
        return cls(np.stack([m.W for m in models]), np.stack([m.H for m in models]),
                   first.labels, first.num_classes)

    def cell(self, i: int) -> "UFMModel":
        """A standalone copy of cell i of a stacked model."""
        return UFMModel(self.W[i], self.H[i], self.labels, self.num_classes)

    def parameters(self) -> list:
        """Parameter list: H, then the classifier W."""
        return [self.H, self.W]

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        self.H, self.W = params

    @classmethod
    def create(cls, num_classes: int, feature_dim: int, per_class: int = 1,
               seed: int = 0, init_scale: float = 0.1) -> "UFMModel":
        """Gaussian-initialized model with balanced labels 0..K-1 repeated."""
        rng = np.random.default_rng(seed)
        n = num_classes * per_class
        w = init_scale * rng.standard_normal((num_classes, feature_dim))
        h = init_scale * rng.standard_normal((feature_dim, n))
        labels = np.repeat(np.arange(num_classes), per_class)
        return cls(w, h, labels, num_classes)

    def loss_and_grads(self, columns: Optional[np.ndarray] = None):
        """(loss, grad_W, grad_H), optionally restricted to a column subset
        (mini-batch; G x B in a stack, one batch per cell); grad_H then holds
        the batch columns only."""
        if columns is None:
            return ce_loss_and_grad(self.W, self.H, self.Y)
        return ce_loss_and_grad(self.W, gather_columns(self.H, columns),
                                gather_columns(self.Y, columns))


class MLPModel:
    """Rectifier network: hidden affine+ReLU layers, then a bias-free linear
    classifier over the last hidden activations (the feature map). In a stack
    every weight and bias carries a leading cell axis."""

    def __init__(self, hidden_weights: Sequence[np.ndarray],
                 hidden_biases: Sequence[np.ndarray], final_weight: np.ndarray):
        if len(hidden_weights) != len(hidden_biases):
            raise ShapeError("one bias vector per hidden layer required")
        self.hidden_weights = [_as_matrices(w).copy() for w in hidden_weights]
        self.hidden_biases = [_as_matrices(b).copy() for b in hidden_biases]
        self.final_weight = _as_matrices(final_weight).copy()

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

    @classmethod
    def stack(cls, models) -> "MLPModel":
        """Models of one shape as one stacked model."""
        return cls([np.stack(ws) for ws in zip(*(m.hidden_weights for m in models))],
                   [np.stack(bs) for bs in zip(*(m.hidden_biases for m in models))],
                   np.stack([m.final_weight for m in models]))

    def cell(self, i: int) -> "MLPModel":
        """A standalone copy of cell i of a stacked model."""
        return MLPModel([w[i] for w in self.hidden_weights], [b[i] for b in self.hidden_biases],
                        self.final_weight[i])

    def parameters(self) -> list:
        """Flat parameter list: W1, b1, ..., WL, bL, the classifier (final W)."""
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
        a = _as_matrices(x)
        for w, b in zip(self.hidden_weights, self.hidden_biases):
            a = _affine_relu(w, b, a)
        return a

    def forward_backward(self, x, y):
        """Full forward pass and backprop.

        Returns (loss, grads, features): ``grads`` aligns with
        ``parameters()``; ``features`` is the last hidden activation matrix.
        A stacked model takes stacked batches and returns one loss per cell.
        """
        x = _as_matrices(x)        # Y is coerced and checked by ce_loss_and_grad
        activations = [x]
        a = x
        for w, b in zip(self.hidden_weights, self.hidden_biases):
            a = _affine_relu(w, b, a)
            activations.append(a)
        feats = a
        # with no hidden layer the features are the fixed input: no d_feats
        loss, grad_final, d_feats = ce_loss_and_grad(self.final_weight, feats, y,
                                                     input_grad=bool(self.hidden_weights))
        grads_rev = [grad_final]
        d_a = d_feats
        for i in range(len(self.hidden_weights) - 1, -1, -1):
            # relu(z) > 0 exactly where z > 0, NaN included; d_a is a
            # product made in this pass, so it takes the mask in place
            d_z = d_a
            d_z *= activations[i + 1] > 0.0
            grads_rev.append(np.add.reduce(d_z, axis=-1, keepdims=True))     # bias grad
            grads_rev.append(d_z @ activations[i].swapaxes(-1, -2))          # weight grad
            if i > 0:
                d_a = self.hidden_weights[i].swapaxes(-1, -2) @ d_z
        return loss, grads_rev[::-1], feats


@dataclass
class SyntheticDataset:
    """Gaussian class blobs: features d x N (columns are samples)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    seed: int


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
    features = np.take(centers, labels, axis=1) + noise_std * noise
    return SyntheticDataset(features, labels, num_classes, seed)
