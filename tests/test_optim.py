import numpy as np
import pytest

from nc_lab import optim
from nc_lab.errors import DomainError
from nc_lab.optim import (
    _STEPS,
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
    opt = OptimizerConfig(lr=0.01, schedule=LRSchedule(kind="step_decay", decay_factor=10.0))
    assert lr_at(opt, 0, 200) == 0.01
    assert lr_at(opt, 100, 200) == pytest.approx(0.001)
    assert lr_at(opt, 140, 200) == pytest.approx(0.0001)
    assert lr_at(opt, 65, 200) == 0.01
    assert lr_at(opt, 66, 200) == pytest.approx(0.001)


def test_lr_schedule_constant_and_oscillation():
    const = OptimizerConfig(lr=0.3)
    assert const.schedule == LRSchedule(kind="constant")
    assert lr_at(const, 150, 200) == 0.3
    osc = OptimizerConfig(kind="signgd_coupled", lr=0.4,
                          schedule=LRSchedule(kind="oscillation_decay", shrink_factor=0.5))
    assert lr_at(osc, 10, 100) == 0.4
    with pytest.raises(DomainError):
        lr_at(const, -1, 10)


def test_lr_schedule_validation():
    with pytest.raises(DomainError):
        LRSchedule(kind="warmup")
    with pytest.raises(DomainError):
        LRSchedule(kind="step_decay", decay_factor=1.0)
    with pytest.raises(DomainError):
        LRSchedule(kind="oscillation_decay", shrink_factor=1.0)


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
        OptimizerConfig(kind="adam", lr=0.0)
    with pytest.raises(DomainError):
        OptimizerConfig(kind="adam", eps=0.0)  # beta2 nonzero needs eps > 0


_ADAM_KINDS = [kind for kind in OPTIMIZER_KINDS if "beta2" in _STEPS[kind][0]]
_OFF_THE_SIGN_LIMIT = [(0.9, 0.0), (0.0, 0.5), (0.9, 0.5)]   # (momentum, beta2) at eps = 0


@pytest.mark.parametrize("kind", _ADAM_KINDS)
@pytest.mark.parametrize("momentum, beta2", _OFF_THE_SIGN_LIMIT)
def test_config_refuses_eps_zero_off_the_sign_limit(kind, momentum, beta2):
    with pytest.raises(DomainError, match="^eps = 0 is only valid in the momentum = beta2 = 0 "
                                          "sign limit$"):
        OptimizerConfig(kind=kind, momentum=momentum, beta2=beta2, eps=0.0)
    assert OptimizerConfig(kind=kind, eps=0.0, momentum=0.0, beta2=0.0).eps == 0.0


@pytest.mark.parametrize("momentum, beta2", _OFF_THE_SIGN_LIMIT)
def test_adam_step_refuses_eps_zero_off_the_sign_limit(momentum, beta2):
    """Called directly, for plain arrays and for a stack in which only one
    cell is off the sign limit."""
    p = np.ones((2, 1, 3))
    message = "^eps = 0 is only valid in the momentum = beta2 = 0 sign limit$"
    with pytest.raises(DomainError, match=message):
        step_adam_family(p[0], p[0], OptimizerState.initial(p[0], True), 0.1, momentum, beta2,
                         0.0, 0.0, 0.0)
    column = np.array([0.0, 1.0]).reshape(2, 1, 1)
    with pytest.raises(DomainError, match=message):
        step_adam_family(p, p, OptimizerState.initial(p, True), 0.1, momentum * column,
                         beta2 * column, 0.0, 0.0, 0.0)


def test_stability_warning_outside_guarantee_range():
    p = np.array([[1.0]])
    with pytest.warns(RuntimeWarning):
        step_sgd_decoupled(p, np.zeros((1, 1)), OptimizerState.initial(p), 1.0, 0.0, 2.5)


def _reading_config(kind, momentum, wd):
    """kind's config at lr 0.05: the momentum if it reads one, and wd split
    evenly over the decay fields it reads."""
    reads = _STEPS[kind][0]
    decay = [name for name in reads if name.endswith("_wd")]
    values = {"momentum": momentum, **{name: wd / len(decay) for name in decay}}
    return OptimizerConfig(kind=kind, lr=0.05, **{k: v for k, v in values.items() if k in reads})


def test_optimizer_object_drives_all_kinds():
    rng = np.random.default_rng(9)
    param = rng.standard_normal((3, 4))
    grad = _zero_colsum_grad(rng, (3, 4))
    for kind in OPTIMIZER_KINDS:
        cfg = _reading_config(kind, 0.5, 0.01)
        opt = Optimizer([cfg], [param[None]])
        opt.step([grad[None]])
        (stepped,) = opt.params
        assert stepped.shape == (1, *param.shape)
        assert np.any(stepped[0] != param)
        needs_second = kind.startswith("adam")
        (group,) = opt._groups
        assert (group.state.second_moment is not None) == needs_second


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
    for kind in OPTIMIZER_KINDS:
        cfg = _reading_config(kind, 0.5, 0.01)
        for shape in [(3, 4), (4, 1)]:
            param = rng.standard_normal(shape)
            opt = Optimizer([cfg], [param[None]])
            direct, state = param, OptimizerState.initial(param, kind.startswith("adam"))
            for lr in (0.05, 0.02, 0.01):
                grad = rng.standard_normal(shape)
                opt.set_step_sizes([lr])
                opt.step([grad[None]])
                direct, state = _direct_step(cfg, direct, grad, state, lr)
                (group,) = opt._groups
                assert opt.params[0][0].tobytes() == direct.tobytes(), kind
                assert group.state.v[0].tobytes() == state.v.tobytes(), kind
                assert group.state.t == state.t
                if state.second_moment is not None:
                    assert group.state.second_moment[0].tobytes() == state.second_moment.tobytes()


# Two values of each hyperparameter, both off the adam sign limit.
_HYPER = dict(momentum=0.5, beta2=0.9, eps=1e-3, coupled_wd=0.2, decoupled_wd=0.3)
_OTHER = dict(momentum=0.8, beta2=0.6, eps=1e-1, coupled_wd=1.5, decoupled_wd=2.0)


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_a_step_reads_exactly_the_fields_its_kind_declares(kind):
    """From nonzero buffers and parameter, changing a field outside the
    kind's list in _STEPS leaves its Optimizer step bit-identical, and
    changing one on the list changes it. The fields are set on a frozen
    config with object.__setattr__, which skips its validation, so it can
    hold values in the fields its kind does not read."""
    rng = np.random.default_rng(31)
    # the optimizer holds a one-array stack as its G x 1 x P buffer
    param, grad, v = (rng.standard_normal((1, 1, 12)) for _ in range(3))
    second = rng.uniform(0.1, 1.0, (1, 1, 12))

    def step(**changed):
        cfg = OptimizerConfig(kind=kind, lr=0.05)
        for name, value in {**_HYPER, **changed}.items():
            object.__setattr__(cfg, name, value)
        opt = Optimizer([cfg], [param])
        (group,) = opt._groups
        group.state = OptimizerState(v=v.copy(), second_moment=second.copy(), t=3)
        opt.step([grad])
        moments = (group.state.v, group.state.second_moment)
        return [opt.params[0].tobytes()] + [m.tobytes() for m in moments if m is not None]

    reads = _STEPS[kind][0]
    assert set(reads) <= set(_HYPER)
    same = step()
    for name, value in _OTHER.items():
        assert (step(**{name: value}) != same) == (name in reads), name


def test_optimizer_step_looks_up_the_step_function_when_it_runs(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return step_signgd_coupled(*args)

    cfg = OptimizerConfig(kind="signgd_coupled", lr=0.1, coupled_wd=0.01)
    param, grad = np.ones((1, 2, 2)), np.ones((1, 2, 2))
    opt = Optimizer([cfg], [param])
    monkeypatch.setattr(optim, "step_signgd_coupled", spy)
    opt.step([grad])
    assert len(calls) == 1
    assert calls[0][3] == 0.1 and calls[0][4] == 0.01
    assert opt.params[0].tobytes() == step_signgd_coupled(
        param, grad, OptimizerState.initial(param), 0.1, 0.01)[0].tobytes()


def test_sign_step_displacement_bound():
    rng = np.random.default_rng(10)
    p = rng.standard_normal((4, 4)) * 3.0
    g = rng.standard_normal((4, 4))
    lr, wd = 0.1, 0.2
    out, _ = step_signgd_decoupled(p, g, OptimizerState.initial(p), lr, wd)
    bound = lr * (1.0 + wd * np.max(np.abs(p))) + 1e-15
    assert np.max(np.abs(out - p)) <= bound


def test_optimizer_groups_split_on_step_branches():
    def cfg(kind, **kw):
        return OptimizerConfig(kind=kind, lr=0.1, **kw)

    configs = [cfg("sgd_coupled"), cfg("sgd_coupled", momentum=0.9, coupled_wd=0.1),
               cfg("adam"), cfg("adam", coupled_wd=0.01), cfg("adam", momentum=0.5, coupled_wd=0.1),
               cfg("adam", momentum=0.0, beta2=0.0, eps=0.0), cfg("sgd_coupled")]
    groups = Optimizer(configs, [np.zeros((7, 1, 2))])._groups
    assert [(g.cells.start, g.cells.stop) for g in groups] == [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]
    sgd = dict(zip(groups[0].reads, groups[0].hyper))
    assert groups[0].step is _STEPS["sgd_coupled"][1] and "beta2" not in sgd
    assert sgd["momentum"].shape == (2, 1, 1) and sgd["momentum"].ravel().tolist() == [0.0, 0.9]
    assert dict(zip(groups[2].reads, groups[2].hyper))["coupled_wd"].ravel().tolist() == [0.01, 0.1]
    assert all(g.lr == 0.1 for g in groups)


def test_optimizer_keep_drops_cells_and_empty_groups():
    """Dropping every cell of a group removes it; the groups around it stay
    apart, each with its own state, and every kept cell steps on as alone."""
    configs = [OptimizerConfig(kind="sgd_coupled", lr=0.1, momentum=0.9, coupled_wd=0.1),
               OptimizerConfig(kind="adam", lr=0.2),
               OptimizerConfig(kind="sgd_coupled", lr=0.3, momentum=0.5, coupled_wd=0.2),
               OptimizerConfig(kind="sgd_coupled", lr=0.4, momentum=0.0),
               OptimizerConfig(kind="sgd_coupled", lr=0.5, momentum=0.7)]
    rng = np.random.default_rng(5)
    alone = [Optimizer([c], [rng.standard_normal((1, 1, 3))]) for c in configs]
    stacked = Optimizer(configs, [np.concatenate([opt.params[0] for opt in alone])])
    live = [0, 1, 2, 3, 4]
    for step in range(4):
        grads = rng.standard_normal((5, 1, 3))
        for opt, grad in zip(alone, grads):
            opt.step([grad[None]])
        stacked.step([grads[live]])
        if step == 0:
            stacked.keep(np.array([True, False, True, False, True]))
            live = [0, 2, 4]
            assert [(g.cells.start, g.cells.stop) for g in stacked._groups] == [(0, 1), (1, 3)]
            assert stacked._groups[1].hyper[0].ravel().tolist() == [0.5, 0.7]
            assert stacked._groups[1].lr.ravel().tolist() == [0.3, 0.5]
        for j, i in enumerate(live):
            assert stacked.params[0][j].tobytes() == alone[i].params[0][0].tobytes()
    v = [alone[i]._groups[0].state.v[0] for i in live]
    assert stacked._groups[0].state.v.tobytes() == v[0].tobytes()
    assert stacked._groups[1].state.v.tobytes() == np.stack(v[1:]).tobytes()


def test_optimizer_params_are_views_of_its_buffer_before_and_after_keep():
    """The optimizer copies the stacked arrays into one buffer and hands out
    views of it in their shapes; a step shows through them, and after keep
    they are views of the new buffer holding the kept cells' values."""
    rng = np.random.default_rng(8)
    arrays = [rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 5, 1))]
    configs = [OptimizerConfig(kind="sgd_decoupled", lr=lr) for lr in (0.1, 0.2, 0.3)]
    opt = Optimizer(configs, arrays)
    views = opt.params
    assert [v.shape for v in views] == [(3, 2, 4), (3, 5, 1)]
    assert all(np.shares_memory(v, opt._buffer) and not np.shares_memory(v, a)
               for v, a in zip(views, arrays))
    assert all(np.array_equal(v, a) for v, a in zip(views, arrays))
    grads = [rng.standard_normal(a.shape) for a in arrays]
    opt.step(grads)
    lrs = np.array([0.1, 0.2, 0.3])
    for v, a, g in zip(views, arrays, grads):
        assert np.array_equal(v, a - lrs.reshape(3, 1, 1) * g)
    stepped = [v.copy() for v in views]
    opt.keep(np.array([True, False, True]))
    assert [v.shape for v in opt.params] == [(2, 2, 4), (2, 5, 1)]
    assert all(np.shares_memory(v, opt._buffer) for v in opt.params)
    assert all(np.array_equal(v, s[[0, 2]]) for v, s in zip(opt.params, stepped))
    opt.step([g[[0, 2]] for g in grads])
    assert all(np.shares_memory(v, opt._buffer) for v in opt.params)


def test_stacked_step_rejects_cells_on_different_branches():
    p = np.ones((2, 1, 3))
    wd = np.array([0.0, 0.1]).reshape(2, 1, 1)
    with pytest.raises(DomainError, match="different branches"):
        step_adam_family(p, p, OptimizerState.initial(p, True), 0.1, 0.9, 0.999, 1e-8, wd, 0.0)
