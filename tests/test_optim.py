import numpy as np
import pytest

from nc_lab import optim
from nc_lab.errors import DomainError
from nc_lab.optim import (
    _COUPLED_ONLY,
    _DECOUPLED_ONLY,
    OPTIMIZER_KINDS,
    LRSchedule,
    Optimizer,
    OptimizerConfig,
    OptimizerState,
    lr_at,
    step_adam_family,
    step_sgd_coupled,
    step_sgd_decoupled,
    step_signgd_coupled,
    step_signgd_decoupled,
    step_signum,
)


def _zero_colsum_grad(rng, shape):
    g = rng.standard_normal(shape)
    return g - g.mean(axis=0)


def test_sgd_decoupled_plain_gd_reduction():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    out, _ = step_sgd_decoupled(p, g, OptimizerState.initial(p), 0.2, 0.0, 0.0)
    assert np.max(np.abs(out - (p - 0.2 * g))) < 1e-15


def test_sgd_decoupled_pure_shrink():
    p = np.array([[1.0]])
    out, _ = step_sgd_decoupled(p, np.zeros((1, 1)), OptimizerState.initial(p), 0.1, 0.0, 0.5)
    assert out[0, 0] == pytest.approx(0.95, abs=1e-16)


def test_sgd_decoupled_two_step_unroll():
    rng = np.random.default_rng(1)
    p0 = rng.standard_normal((2, 3))
    g = rng.standard_normal((2, 3))
    lr, beta, wd = 0.1, 0.9, 0.5
    state = OptimizerState.initial(p0)
    p1, state = step_sgd_decoupled(p0, g, state, lr, beta, wd)
    p2, state = step_sgd_decoupled(p1, g, state, lr, beta, wd)
    shrink = 1.0 - lr * wd
    expected = shrink**2 * p0 - lr * shrink * g - 1.9 * lr * g
    assert np.max(np.abs(p2 - expected)) < 1e-14
    assert np.max(np.abs(state.v - 1.9 * g)) < 1e-14


def test_sgd_coupled_hand_iteration():
    p = np.array([[2.0]])
    state = OptimizerState.initial(p)
    p, state = step_sgd_coupled(p, np.zeros((1, 1)), state, 0.1, 0.9, 0.5)
    assert state.v[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert p[0, 0] == pytest.approx(1.9, abs=1e-15)
    p, state = step_sgd_coupled(p, np.zeros((1, 1)), state, 0.1, 0.9, 0.5)
    assert state.v[0, 0] == pytest.approx(1.85, abs=1e-15)
    assert p[0, 0] == pytest.approx(1.715, abs=1e-15)


def test_sgd_coupled_beta_zero_matches_decoupled_one_step():
    rng = np.random.default_rng(2)
    p = rng.standard_normal((4, 5))
    g = rng.standard_normal((4, 5))
    a, _ = step_sgd_coupled(p, g, OptimizerState.initial(p), 0.05, 0.0, 0.3)
    b, _ = step_sgd_decoupled(p, g, OptimizerState.initial(p), 0.05, 0.0, 0.3)
    assert np.max(np.abs(a - b)) < 1e-14


def test_sgd_coupled_fixed_point_without_decay():
    p = np.array([[3.0, -1.0]])
    state = OptimizerState.initial(p)
    for _ in range(5):
        p, state = step_sgd_coupled(p, np.zeros((1, 2)), state, 0.1, 0.9, 0.0)
    assert np.array_equal(p, [[3.0, -1.0]])


def test_signgd_decoupled_examples():
    p = np.zeros((2, 2))
    out, _ = step_signgd_decoupled(p, np.ones((2, 2)), OptimizerState.initial(p), 0.1, 0.0)
    assert np.array_equal(out, -0.1 * np.ones((2, 2)))
    p = np.array([[-2.0]])
    out, _ = step_signgd_decoupled(p, np.array([[3.0]]), OptimizerState.initial(p), 0.1, 0.5)
    assert out[0, 0] == pytest.approx(-2.0, abs=1e-16)


def test_signgd_decoupled_scalar_trajectory():
    """Fixed off-diagonal-positive sign pattern: each off-diagonal entry
    follows w_t = -(1/wd)(1 - (1-lr*wd)^t)."""
    k, lr, wd = 4, 0.1, 0.5
    pattern = np.ones((k, k)) - 2.0 * np.eye(k)
    w = np.zeros((k, k))
    state = OptimizerState.initial(w)
    for t in range(1, 30):
        w, state = step_signgd_decoupled(w, pattern, state, lr, wd)
        expected = -(1.0 / wd) * (1.0 - (1.0 - lr * wd) ** t)
        assert w[0, 1] == pytest.approx(expected, rel=1e-12)
        assert w[0, 0] == pytest.approx(-expected, rel=1e-12)


def test_signgd_coupled_examples():
    p = np.zeros((3, 3))
    g = np.random.default_rng(3).standard_normal((3, 3))
    a, _ = step_signgd_coupled(p, g, OptimizerState.initial(p), 0.1, 0.7)
    b, _ = step_signgd_decoupled(p, g, OptimizerState.initial(p), 0.1, 0.7)
    assert np.array_equal(a, b)
    p = np.array([[-10.0]])
    out, _ = step_signgd_coupled(p, np.array([[0.1]]), OptimizerState.initial(p), 0.1, 0.5)
    assert out[0, 0] == pytest.approx(-9.9, abs=1e-16)


def test_signgd_coupled_step_quantization():
    rng = np.random.default_rng(4)
    p = rng.standard_normal((5, 5))
    g = rng.standard_normal((5, 5))
    out, _ = step_signgd_coupled(p, g, OptimizerState.initial(p), 0.1, 0.3)
    deltas = np.abs(out - p)
    assert np.all(np.isin(np.round(deltas, 15), [0.0, 0.1]))


def test_signum_reductions_and_momentum():
    rng = np.random.default_rng(5)
    p = rng.standard_normal((3, 3))
    g = rng.standard_normal((3, 3))
    a, _ = step_signum(p, g, OptimizerState.initial(p), 0.1, 0.0, 0.2, coupled=True)
    b, _ = step_signgd_coupled(p, g, OptimizerState.initial(p), 0.1, 0.2)
    assert np.array_equal(a, b)
    a, _ = step_signum(p, g, OptimizerState.initial(p), 0.1, 0.0, 0.2, coupled=False)
    b, _ = step_signgd_decoupled(p, g, OptimizerState.initial(p), 0.1, 0.2)
    assert np.array_equal(a, b)
    # constant positive gradient with momentum: buffer stays positive, so the
    # parameter moves down by exactly lr each step
    p = np.array([[1.0]])
    g = np.array([[2.0]])
    state = OptimizerState.initial(p)
    p1, state = step_signum(p, g, state, 0.1, 0.9, 0.0, coupled=True)
    assert state.v[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert p1[0, 0] == pytest.approx(0.9, abs=1e-15)
    p2, state = step_signum(p1, g, state, 0.1, 0.9, 0.0, coupled=True)
    assert p2[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_adam_sign_limit_bitwise():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = rng.standard_normal((4, 6))
        g = rng.standard_normal((4, 6))
        wd = float(rng.uniform(0.0, 1.0))
        ca, _ = step_adam_family(p, g, OptimizerState.initial(p, True), 0.1, 0.0, 0.0, 0.0, wd, 0.0)
        cb, _ = step_signgd_coupled(p, g, OptimizerState.initial(p), 0.1, wd)
        assert np.array_equal(ca, cb)
        da, _ = step_adam_family(p, g, OptimizerState.initial(p, True), 0.1, 0.0, 0.0, 0.0, 0.0, wd)
        db, _ = step_signgd_decoupled(p, g, OptimizerState.initial(p), 0.1, wd)
        assert np.array_equal(da, db)


def test_adam_standard_first_step():
    """t=1 bias correction makes the update sign(g)-like at magnitude
    lr / (1 + eps_hat); verify against a literal hand evaluation."""
    p = np.array([[1.0, -2.0]])
    g = np.array([[0.5, 0.25]])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    out, state = step_adam_family(p, g, OptimizerState.initial(p, True), lr, b1, b2, eps, 0.0, 0.0)
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g**2 / (1 - b2)
    expected = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.max(np.abs(out - expected)) < 1e-15
    assert state.t == 1


def test_adam_interpolated_combines_both_decays():
    p = np.array([[2.0]])
    g = np.array([[0.0]])
    lr, lam_c, lam_d = 0.1, 0.3, 0.2
    out, _ = step_adam_family(p, g, OptimizerState.initial(p, True), lr, 0.0, 0.0, 0.0, lam_c, lam_d)
    # coupled part enters through sign(g + lam_c p) = +1, decoupled shrinks
    expected = (p - lr * 1.0) - lr * lam_d * p
    assert out == pytest.approx(expected, abs=1e-15)


def test_decoupled_rowsum_power_law():
    rng = np.random.default_rng(7)
    lr, beta, wd = 0.05, 0.9, 0.1
    w = rng.standard_normal((4, 6))
    m0 = w.sum(axis=0)
    state = OptimizerState.initial(w)
    for t in range(1, 40):
        g = _zero_colsum_grad(rng, (4, 6))
        w, state = step_sgd_decoupled(w, g, state, lr, beta, wd)
        expected = (1.0 - lr * wd) ** t * m0
        assert np.max(np.abs(w.sum(axis=0) - expected)) < 1e-12


def test_coupled_rowsum_recursion_per_step():
    rng = np.random.default_rng(8)
    lr, beta, wd = 0.05, 0.9, 0.1
    w = rng.standard_normal((4, 6))
    history = [w.sum(axis=0)]
    state = OptimizerState.initial(w)
    for t in range(40):
        g = _zero_colsum_grad(rng, (4, 6))
        w, state = step_sgd_coupled(w, g, state, lr, beta, wd)
        history.append(w.sum(axis=0))
        if t == 0:
            expected = (1.0 - lr * wd) * history[0]
        else:
            expected = (1.0 + beta - lr * wd) * history[-2] - beta * history[-3]
        assert np.max(np.abs(history[-1] - expected)) < 1e-12


def test_lr_schedule_step_decay_milestones():
    sched = LRSchedule(kind="step_decay", base_lr=0.01, decay_factor=10.0)
    assert lr_at(sched, 0, 200) == 0.01
    assert lr_at(sched, 100, 200) == pytest.approx(0.001)
    assert lr_at(sched, 140, 200) == pytest.approx(0.0001)
    assert lr_at(sched, 65, 200) == 0.01
    assert lr_at(sched, 66, 200) == pytest.approx(0.001)


def test_lr_schedule_constant_and_oscillation():
    const = LRSchedule(kind="constant", base_lr=0.3)
    assert lr_at(const, 150, 200) == 0.3
    osc = LRSchedule(kind="oscillation_decay", base_lr=0.4, shrink_factor=0.5)
    assert lr_at(osc, 10, 100) == 0.4
    with pytest.raises(DomainError):
        lr_at(const, -1, 10)


def test_lr_schedule_validation():
    with pytest.raises(DomainError):
        LRSchedule(kind="warmup", base_lr=0.1)
    with pytest.raises(DomainError):
        LRSchedule(kind="constant", base_lr=0.0)
    with pytest.raises(DomainError):
        LRSchedule(kind="step_decay", base_lr=0.1, decay_factor=1.0)
    with pytest.raises(DomainError):
        LRSchedule(kind="oscillation_decay", base_lr=0.1, shrink_factor=1.0)


def test_optimizer_config_validation():
    with pytest.raises(DomainError):
        OptimizerConfig(kind="sgd_coupled", momentum=1.0)
    with pytest.raises(DomainError):
        OptimizerConfig(kind="unknown_kind")
    with pytest.raises(DomainError):
        OptimizerConfig(kind="sgd_coupled", decoupled_wd=0.1)
    with pytest.raises(DomainError):
        OptimizerConfig(kind="adam_w", coupled_wd=0.1)
    with pytest.raises(DomainError):
        OptimizerConfig(kind="adam", lr=-0.1)
    with pytest.raises(DomainError):
        OptimizerConfig(kind="adam", eps=0.0)  # beta2 nonzero needs eps > 0
    cfg = OptimizerConfig(
        kind="adam_interpolated", coupled_wd=0.0003, decoupled_wd=0.0002, total_wd=0.0005
    )
    assert cfg.weight_decay == pytest.approx(0.0005)
    with pytest.raises(DomainError):
        OptimizerConfig(
            kind="adam_interpolated", coupled_wd=0.0003, decoupled_wd=0.0002, total_wd=0.001
        )


def test_stability_warning_outside_guarantee_range():
    p = np.array([[1.0]])
    with pytest.warns(RuntimeWarning):
        step_sgd_decoupled(p, np.zeros((1, 1)), OptimizerState.initial(p), 1.0, 0.0, 2.5)


def test_optimizer_object_drives_all_kinds():
    rng = np.random.default_rng(9)
    params = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]
    grads = [_zero_colsum_grad(rng, (3, 4)), rng.standard_normal((4, 2))]
    for kind in OPTIMIZER_KINDS:
        wd = {"coupled_wd": 0.01} if kind in (
            "sgd_coupled", "signgd_coupled", "signum", "adam",
        ) else {"decoupled_wd": 0.01} if kind in (
            "sgd_decoupled", "signgd_decoupled", "signum_w", "adam_w",
        ) else {"coupled_wd": 0.005, "decoupled_wd": 0.005}
        cfg = OptimizerConfig(kind=kind, lr=0.05, momentum=0.5, **wd)
        opt = Optimizer(cfg, params)
        new_params = opt.step(params, grads, 0.05)
        assert all(a.shape == b.shape for a, b in zip(params, new_params))
        assert any(np.any(a != b) for a, b in zip(params, new_params))
        needs_second = kind.startswith("adam")
        assert (opt.states[0].second_moment is not None) == needs_second


def _direct_step(c, p, g, s, lr):
    """The step function call that each optimizer kind stands for."""
    if c.kind == "sgd_coupled":
        return step_sgd_coupled(p, g, s, lr, c.momentum, c.coupled_wd)
    if c.kind == "sgd_decoupled":
        return step_sgd_decoupled(p, g, s, lr, c.momentum, c.decoupled_wd)
    if c.kind == "signgd_coupled":
        return step_signgd_coupled(p, g, s, lr, c.coupled_wd)
    if c.kind == "signgd_decoupled":
        return step_signgd_decoupled(p, g, s, lr, c.decoupled_wd)
    if c.kind in ("signum", "signum_w"):
        wd = c.coupled_wd if c.kind == "signum" else c.decoupled_wd
        return step_signum(p, g, s, lr, c.momentum, wd, coupled=c.kind == "signum")
    return step_adam_family(p, g, s, lr, c.momentum, c.beta2, c.eps,
                            c.coupled_wd, c.decoupled_wd)


def test_optimizer_steps_equal_direct_step_calls_bitwise():
    rng = np.random.default_rng(29)
    shapes = [(3, 4), (4, 1)]
    for kind in OPTIMIZER_KINDS:
        wd = {"coupled_wd": 0.01} if kind in _COUPLED_ONLY else {
            "decoupled_wd": 0.01} if kind in _DECOUPLED_ONLY else {
            "coupled_wd": 0.005, "decoupled_wd": 0.005}
        cfg = OptimizerConfig(kind=kind, lr=0.05, momentum=0.5, **wd)
        params = [rng.standard_normal(s) for s in shapes]
        opt = Optimizer(cfg, params)
        direct = list(params)
        states = [OptimizerState.initial(p, kind.startswith("adam")) for p in params]
        for lr in (0.05, 0.02, 0.01):
            grads = [rng.standard_normal(s) for s in shapes]
            params = opt.step(params, grads, lr)
            for i, g in enumerate(grads):
                direct[i], states[i] = _direct_step(cfg, direct[i], g, states[i], lr)
            for got, want, got_s, want_s in zip(params, direct, opt.states, states):
                assert np.array_equal(got, want), kind
                assert np.array_equal(got_s.v, want_s.v), kind
                assert got_s.t == want_s.t
                if want_s.second_moment is not None:
                    assert np.array_equal(got_s.second_moment, want_s.second_moment), kind


def test_optimizer_step_looks_up_the_step_function_when_it_runs(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return step_signgd_coupled(*args)

    cfg = OptimizerConfig(kind="signgd_coupled", lr=0.1, coupled_wd=0.01)
    params = [np.ones((2, 2)), np.ones((2, 1))]
    opt = Optimizer(cfg, params)
    monkeypatch.setattr(optim, "step_signgd_coupled", spy)
    opt.step(params, [np.ones((2, 2)), np.ones((2, 1))], 0.1)
    assert len(calls) == 2
    assert calls[0][3] == 0.1 and calls[0][4] == 0.01


def test_sign_step_displacement_bound():
    rng = np.random.default_rng(10)
    p = rng.standard_normal((4, 4)) * 3.0
    g = rng.standard_normal((4, 4))
    lr, wd = 0.1, 0.2
    out, _ = step_signgd_decoupled(p, g, OptimizerState.initial(p), lr, wd)
    bound = lr * (1.0 + wd * np.max(np.abs(p))) + 1e-15
    assert np.max(np.abs(out - p)) <= bound
