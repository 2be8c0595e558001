import math

import numpy as np
import pytest

from nc_lab.errors import DomainError, ShapeError
from nc_lab.metrics import simplex_etf
from nc_lab.models import (
    MLPModel,
    UFMModel,
    ce_loss_and_grad,
    ce_loss_from_logits,
    make_blob_dataset,
    make_nc_solution,
    one_hot,
)
from nc_lab.oracles import coupled_sign_psi


def test_one_hot_shape_and_content():
    y = one_hot([0, 2, 1], 3)
    assert y.shape == (3, 3)
    assert np.array_equal(y[:, 0], [1.0, 0.0, 0.0])
    assert np.array_equal(y[:, 1], [0.0, 0.0, 1.0])


def test_softmax_stable_at_large_logits():
    # W X = [[1000, -1000], [999, -999]]: exp of the raw logits overflows.
    w = np.array([[1000.0], [999.0]])
    x = np.array([[1.0, -1.0]])
    y = one_hot([1, 0], 2)
    loss, grad_w, grad_x = ce_loss_and_grad(w, x, y)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_x))
    assert loss == pytest.approx(1.0 + math.log1p(math.exp(-1.0)), rel=1e-12)
    assert np.max(np.abs(grad_w.sum(axis=0))) < 1e-12


def test_ce_loss_at_zero_weights_is_log_k():
    x = np.random.default_rng(1).standard_normal((6, 9))
    y = one_hot(np.arange(9) % 10 % 3, 3)
    loss, _, _ = ce_loss_and_grad(np.zeros((3, 6)), x, y)
    assert loss == pytest.approx(math.log(3.0), abs=1e-14)
    loss10, _, _ = ce_loss_and_grad(np.zeros((10, 6)), x, one_hot(np.arange(9) % 10, 10))
    assert loss10 == pytest.approx(2.302585092994046, abs=1e-12)


def test_ce_grad_hand_case_two_classes():
    # one sample x=[1], zero weights: softmax is (1/2, 1/2), true class 0
    loss, grad_w, grad_x = ce_loss_and_grad(
        np.zeros((2, 1)), np.array([[1.0]]), one_hot([0], 2)
    )
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(grad_w, [[-0.5], [0.5]], atol=1e-15)
    assert grad_w.sum(axis=0) == pytest.approx(0.0, abs=1e-15)


def test_ce_grad_column_sums_vanish():
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = rng.standard_normal((4, 6))
        x = rng.standard_normal((6, 8))
        y = one_hot(rng.integers(0, 4, size=8), 4)
        _, grad_w, _ = ce_loss_and_grad(w, x, y)
        assert np.max(np.abs(grad_w.sum(axis=0))) < 1e-12


def test_ce_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 6)) * 0.5
    x = rng.standard_normal((6, 8))
    y = one_hot(rng.integers(0, 4, size=8), 4)
    _, grad_w, grad_x = ce_loss_and_grad(w, x, y)
    eps = 1e-5
    for idx in [(0, 0), (1, 3), (3, 5), (2, 2)]:
        wp, wm = w.copy(), w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        num = (ce_loss_and_grad(wp, x, y)[0] - ce_loss_and_grad(wm, x, y)[0]) / (2 * eps)
        assert grad_w[idx] == pytest.approx(num, rel=1e-6)
    for idx in [(0, 0), (5, 7), (3, 4)]:
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        num = (ce_loss_and_grad(w, xp, y)[0] - ce_loss_and_grad(w, xm, y)[0]) / (2 * eps)
        assert grad_x[idx] == pytest.approx(num, rel=1e-6)


def test_ce_shape_errors():
    with pytest.raises(ShapeError):
        ce_loss_and_grad(np.zeros((2, 3)), np.zeros((4, 5)), one_hot([0] * 5, 2))
    with pytest.raises(ShapeError):
        ce_loss_and_grad(np.zeros((2, 3)), np.zeros((3, 5)), one_hot([0] * 4, 2))


def test_frame_zero_weights_loss_and_sign_pattern():
    k = 6
    loss, grad_w, _ = ce_loss_and_grad(np.zeros((k, k)), simplex_etf(k), np.eye(k))
    assert loss == pytest.approx(math.log(k), abs=1e-14)
    expected = np.ones((k, k)) - 2.0 * np.eye(k)
    assert np.array_equal(np.sign(grad_w), expected)


def test_ufm_all_zero_model_loss():
    model = UFMModel(np.zeros((3, 5)), np.zeros((5, 6)), [0, 0, 1, 1, 2, 2], 3)
    loss, _, _ = model.loss_and_grads()
    assert loss == math.log(3.0)


def test_frame_two_parameter_family_gradient():
    """For W = (a+b)I - bJ against the simplex frame the gradient collapses
    to psi * (J - KI) with a scalar psi shared by every entry."""
    rng = np.random.default_rng(4)
    for k in (3, 4, 7):
        for _ in range(8):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            w = (a + b) * np.eye(k) - b * np.ones((k, k))
            _, grad_w, _ = ce_loss_and_grad(w, simplex_etf(k), np.eye(k))
            psi = coupled_sign_psi(a, b, k, k)
            expected = psi * (np.ones((k, k)) - k * np.eye(k))
            assert np.max(np.abs(grad_w - expected)) < 1e-12


def test_ufm_trainable_returns_feature_grad():
    model = UFMModel.create(3, 5, per_class=4, seed=0)
    loss, grad_w, grad_h = model.loss_and_grads()
    assert grad_h is not None and grad_h.shape == model.H.shape
    assert np.isfinite(loss)
    sub = model.loss_and_grads(np.array([0, 3, 5]))
    assert sub[2].shape == (5, 3)


def test_ce_loss_from_logits_equals_ce_loss_and_grad_bits():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k, p, n = (int(v) for v in rng.integers(2, 12, size=3))
        w = rng.standard_normal((k, p)) * rng.uniform(0.1, 30.0)
        x = rng.standard_normal((p, n))
        y = one_hot(rng.integers(0, k, size=n), k)
        assert ce_loss_from_logits(w @ x, y) == ce_loss_and_grad(w, x, y)[0]


def test_mlp_zero_depth_reduces_to_linear_classifier():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 10))
    labels = rng.integers(0, 3, size=10)
    y = one_hot(labels, 3)
    model = MLPModel.create(6, (), 3, seed=7)
    loss, grads, feats = model.forward_backward(x, y)
    ref_loss, ref_grad, _ = ce_loss_and_grad(model.final_weight, x, y)
    assert loss == pytest.approx(ref_loss, abs=1e-13)
    assert np.max(np.abs(grads[-1] - ref_grad)) < 1e-13
    assert np.array_equal(feats, x)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 12))
    y = one_hot(rng.integers(0, 3, size=12), 3)
    model = MLPModel.create(5, (8, 8), 3, seed=1)
    params = model.parameters()
    _, grads, _ = model.forward_backward(x, y)
    assert len(grads) == len(params)
    eps = 1e-5
    rng_idx = np.random.default_rng(7)
    for pi, p in enumerate(params):
        flat = p.ravel()
        for _ in range(3):
            j = int(rng_idx.integers(flat.size))
            orig = flat[j]
            flat[j] = orig + eps
            model.set_parameters(params)
            lp = model.forward_backward(x, y)[0]
            flat[j] = orig - eps
            model.set_parameters(params)
            lm = model.forward_backward(x, y)[0]
            flat[j] = orig
            model.set_parameters(params)
            num = (lp - lm) / (2 * eps)
            got = grads[pi].ravel()[j]
            if abs(num) > 1e-7:
                assert got == pytest.approx(num, rel=1e-6)
            else:
                assert got == pytest.approx(num, abs=1e-8)


def test_mlp_final_grad_rowsums_vanish():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal((4, 9))
        y = one_hot(rng.integers(0, 3, size=9), 3)
        model = MLPModel.create(4, (10,), 3, seed=int(rng.integers(1000)))
        _, grads, _ = model.forward_backward(x, y)
        assert np.max(np.abs(grads[-1].sum(axis=0))) < 1e-12


def test_mlp_accuracy_and_features_shapes():
    data = make_blob_dataset(3, 4, 5, seed=2)
    model = MLPModel.create(4, (8,), 3, seed=3)
    feats = model.features(data.features)
    assert feats.shape[1] == data.features.shape[1]
    acc = float(np.mean(np.argmax(model.final_weight @ feats, axis=0) == data.labels))
    assert 0.0 <= acc <= 1.0


def test_blob_dataset_determinism_and_separability():
    d1 = make_blob_dataset(4, 8, 25, margin=1.0, seed=11)
    d2 = make_blob_dataset(4, 8, 25, margin=1.0, seed=11)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)
    # nearest-class-center classification is perfect at this margin
    means = np.stack([d1.features[:, d1.labels == c].mean(axis=1) for c in range(4)])
    dists = ((d1.features.T[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), d1.labels)


def test_blob_dataset_zero_noise_puts_samples_on_centers():
    data = make_blob_dataset(3, 4, 1, margin=1.0, seed=5, noise_std=0.0)
    assert data.features.shape == (4, 3)
    # distinct centers, one sample each
    gram = data.features.T @ data.features
    assert np.linalg.matrix_rank(gram) >= 2


def test_blob_dataset_validation():
    with pytest.raises(DomainError):
        make_blob_dataset(4, 2, 5)
    with pytest.raises(DomainError):
        make_blob_dataset(1, 4, 5)
    with pytest.raises(DomainError):
        make_blob_dataset(3, 4, 0)
    with pytest.raises(DomainError):
        make_blob_dataset(3, 4, 5, margin=-1.0)


def test_nc_solution_geometry():
    """W and H are built from one shared isometric image of the simplex
    frame, so the logits equal the frame Gram matrix up to scale."""
    k, p = 4, 7
    w, h, labels = make_nc_solution(k, p, scale_w=2.0, scale_h=0.5, isometry_seed=9)
    assert w.shape == (k, p) and h.shape[0] == p
    assert np.array_equal(labels, np.arange(k))
    etf = simplex_etf(k)
    target = 2.0 * 0.5 * (etf.T @ etf)
    assert np.max(np.abs(w @ h - target)) < 1e-12
    # isometry: columns of H/scale_h have the frame's norms
    assert np.allclose(np.linalg.norm(h / 0.5, axis=0), np.linalg.norm(etf, axis=0))


def test_nc_solution_requires_enough_dimensions():
    with pytest.raises(DomainError):
        make_nc_solution(5, 4)
    with pytest.raises(DomainError):
        make_nc_solution(4, 4, scale_w=0.0)
