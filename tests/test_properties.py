"""Properties of the training arithmetic over random shapes, stack sizes and
hyperparameters (hypothesis, profile in conftest.py).

A stack of G cells must compute, slice by slice, exactly the bits that G
separate 2-D calls compute: that is what lets a sweep train its cells
together and still write the CSV bytes of a serial run. The one-step alpha
decomposition holds to rounding, and the metric CSV, the sweep summary CSV
and the config echo read back what they wrote.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from nc_lab.harness import (
    CSV_COLUMNS,
    MODEL_KINDS,
    ExperimentConfig,
    MetricRecord,
    SweepResult,
    SweepSpec,
    config_from_mapping,
    config_to_mapping,
    format_metric_csv,
    _SWEEP_COLUMNS,
    parse_csv,
    sweep_summary_csv,
)
from nc_lab.metrics import METRIC_KEYS
from nc_lab.models import MLPModel, ce_loss_and_grad, gather_columns, one_hot
from nc_lab.optim import (
    _STEPS,
    OPTIMIZER_KINDS,
    Optimizer,
    OptimizerConfig,
    LRSchedule,
    OptimizerState,
    step_adam_family,
    step_signgd_coupled,
    step_signgd_decoupled,
    step_signum,
)
from helpers import alpha_increment_decomposition, metric_records
from test_golden import sweep_cell_configs

seeds = st.integers(0, 2**32 - 1)
cells = st.integers(1, 4)


def _batches(rng, g, n, b):
    """One batch of b column indices per cell, as a G x B array."""
    return np.stack([rng.permutation(n)[:b] for _ in range(g)])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(seed=seeds, g=cells, k=st.integers(2, 6), p=st.integers(1, 7), n=st.integers(1, 12),
       data=st.data())
def test_stacked_ce_equals_per_cell_calls(seed, g, k, p, n, data):
    b = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((g, k, p)) * rng.uniform(0.1, 10.0)
    h = rng.standard_normal((g, p, n))
    y = one_hot(rng.integers(0, k, n), k)
    cols = _batches(rng, g, n, b)
    loss, grad_w, grad_x = ce_loss_and_grad(w, gather_columns(h, cols), gather_columns(y, cols))
    assert loss.shape == (g,)
    for i in range(g):
        ref = ce_loss_and_grad(w[i], h[i][:, cols[i]], y[:, cols[i]])
        assert _same_bits(loss[i], ref[0])
        assert _same_bits(grad_w[i], ref[1])
        assert _same_bits(grad_x[i], ref[2])


@given(seed=seeds, g=cells, k=st.integers(2, 8), p=st.integers(1, 8), n=st.integers(1, 16),
       scale=st.floats(0.01, 100.0))
def test_ce_weight_gradient_has_zero_column_sums(seed, g, k, p, n, scale):
    rng = np.random.default_rng(seed)
    w = scale * rng.standard_normal((g, k, p))
    x = rng.standard_normal((g, p, n))
    y = one_hot(rng.integers(0, k, n), k)
    _, grad_w, _ = ce_loss_and_grad(w, x, y)
    # Each column sum is (1/N) sum_b x_jb sum_k (S - Y)_kb, and sum_k (S - Y)_kb
    # is zero up to rounding in K terms of size at most 1.
    bound = 8 * k * np.finfo(float).eps * (np.abs(x).sum(axis=-1) / n + np.abs(grad_w).sum(axis=-2))
    assert np.all(np.abs(grad_w.sum(axis=-2)) <= bound)


@given(seed=seeds, g=cells, d=st.integers(1, 6), k=st.integers(2, 5), n=st.integers(1, 12),
       hidden=st.lists(st.integers(1, 8), max_size=3), data=st.data())
def test_stacked_forward_backward_equals_per_cell_calls(seed, g, d, k, n, hidden, data):
    b = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    models = [MLPModel.create(d, hidden, k, seed=int(s), init_scale=1.0)
              for s in rng.integers(0, 2**31, g)]
    x = rng.standard_normal((d, n))
    y = one_hot(rng.integers(0, k, n), k)
    cols = _batches(rng, g, n, b)
    loss, grads, feats = MLPModel.stack(models).forward_backward(gather_columns(x, cols),
                                                                 gather_columns(y, cols))
    for i, model in enumerate(models):
        ref_loss, ref_grads, ref_feats = model.forward_backward(x[:, cols[i]], y[:, cols[i]])
        assert _same_bits(loss[i], ref_loss)
        assert all(_same_bits(a[i], r) for a, r in zip(grads, ref_grads))
        assert _same_bits(feats[i], ref_feats)


@given(seed=seeds, g=cells, d=st.integers(1, 6), k=st.integers(2, 5), n=st.integers(1, 12),
       hidden=st.lists(st.integers(1, 8), max_size=3))
def test_stacked_features_equal_per_cell_calls(seed, g, d, k, n, hidden):
    """On a shared 2-D input each cell's slice of the stacked features is its
    own features, also when the stack holds views of an Optimizer's buffer,
    as in training. With no hidden layer the features are the input itself,
    which a snapshot broadcasts over the cells."""
    rng = np.random.default_rng(seed)
    models = [MLPModel.create(d, hidden, k, seed=int(s), init_scale=1.0)
              for s in rng.integers(0, 2**31, g)]
    x = rng.standard_normal((d, n))
    stacked = MLPModel.stack(models)
    in_buffer = MLPModel.stack(models)
    in_buffer.set_parameters(Optimizer([OptimizerConfig()] * g, in_buffer.parameters()).params)
    for model in (stacked, in_buffer):
        feats = model.features(x)
        feats = np.broadcast_to(feats, (g, *feats.shape[-2:]))
        for i, alone in enumerate(models):
            assert _same_bits(feats[i], alone.features(x))


def _cell_configs(kind, g, rng, data):
    """g optimizer configs of one kind that take the same step branches, with
    per-cell learning rates, momenta and decay constants."""
    reads = _STEPS[kind][0]
    adam = "beta2" in reads
    sign_limit = adam and data.draw(st.booleans())
    coupled = "coupled_wd" in reads and data.draw(st.booleans())
    decoupled = "decoupled_wd" in reads and data.draw(st.booleans())
    configs = []
    for _ in range(g):
        def wd(on):
            # outside the adam family a zero decay takes no branch, so it may
            # differ from cell to cell
            return float(rng.uniform(0.001, 0.5)) if on and (adam or rng.random() < 0.7) else 0.0
        if sign_limit:
            momentum, beta2, eps = 0.0, 0.0, 0.0
        else:
            momentum = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.99))
            beta2, eps = float(rng.uniform(0.5, 0.999)), float(10.0 ** rng.uniform(-10, -4))
        values = dict(momentum=momentum, beta2=beta2, eps=eps, coupled_wd=wd(coupled),
                      decoupled_wd=wd(decoupled))
        configs.append(OptimizerConfig(kind=kind, lr=float(rng.uniform(0.001, 0.5)),
                                       **{k: v for k, v in values.items() if k in reads}))
    return configs


def _stack_configs(rng, data):
    """The optimizer configs of a stack of 1 to 3 groups, each from
    _cell_configs of a drawn kind. A group after an adam-family group may be
    its twin, the same cells with one decay constant zero where it was not,
    or the other way round, which takes other step branches."""
    groups = []
    for _ in range(data.draw(st.integers(1, 3))):
        reads = _STEPS[groups[-1][0].kind][0] if groups else ()
        if "beta2" in reads and data.draw(st.booleans()):
            name = data.draw(st.sampled_from([n for n in reads if n.endswith("_wd")]))
            groups.append([replace(c, **{name: 0.0 if getattr(c, name) else 0.1})
                           for c in groups[-1]])
        else:
            kind = data.draw(st.sampled_from(OPTIMIZER_KINDS))
            groups.append(_cell_configs(kind, data.draw(cells), rng, data))
    return [config for group in groups for config in group]


def _cell_states(opt):
    """Per cell of an Optimizer's stack, in order: its group's state and its
    row in that state."""
    out = []
    for group in opt._groups:
        assert group.cells.start == len(out) < group.cells.stop
        out += [(group.state, row) for row in range(group.cells.stop - group.cells.start)]
    assert len(out) == len(opt.params[0])
    return out


@given(seed=seeds, data=st.data())
def test_stacked_steps_equal_per_cell_calls(seed, data):
    """One Optimizer over a stack of mixed groups divides by no zero and
    gives every cell the param and state of its lone step. After each step
    a drawn set of cells is dropped through Optimizer.keep, as diverged
    cells leave a training stack, and every kept cell stays bit-equal to its
    lone run."""
    rng = np.random.default_rng(seed)
    configs = _stack_configs(rng, data)
    shape = tuple(rng.integers(1, 5, 2))
    alone = [Optimizer([c], [rng.standard_normal((1, *shape))]) for c in configs]
    stacked = Optimizer(configs, [np.concatenate([opt.params[0] for opt in alone])])
    live = list(range(len(configs)))     # the lone run of each cell of the stack

    def assert_cells_equal_their_lone_runs():
        for j, (s, row) in enumerate(_cell_states(stacked)):
            r = alone[live[j]]
            (r_state, _), = _cell_states(r)
            assert _same_bits(stacked.params[0][j], r.params[0][0])
            assert s.t == r_state.t
            assert _same_bits(s.v[row], r_state.v[0])
            if r_state.second_moment is not None:
                assert _same_bits(s.second_moment[row], r_state.second_moment[0])

    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(3):
            grads = [rng.standard_normal(shape) * (rng.random(shape) < 0.8) for _ in configs]
            lrs = [float(rng.uniform(0.001, 0.5)) for _ in configs]
            for opt, gr, lr in zip(alone, grads, lrs):
                opt.set_step_sizes([lr])
                opt.step([gr[None]])
            stacked.set_step_sizes([lrs[i] for i in live])
            stacked.step([np.stack([grads[i] for i in live])])
            assert_cells_equal_their_lone_runs()
            kept = rng.random(len(live)) < 0.75
            kept[rng.integers(len(live))] = True
            stacked.keep(kept)
            live = [i for i, k in zip(live, kept) if k]
            assert_cells_equal_their_lone_runs()


@given(seed=seeds, r=st.integers(1, 6), c=st.integers(1, 6), lr=st.floats(1e-4, 1.0),
       wd=st.floats(1e-4, 1.0), zeros=st.floats(0.0, 0.5))
def test_sign_limits_are_bitwise(seed, r, c, lr, wd, zeros):
    """adam at beta1 = beta2 = eps = 0 and signum at momentum 0 take exactly
    the sign-descent steps."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((r, c))
    g = rng.standard_normal((r, c)) * (rng.random((r, c)) >= zeros)

    def state(second=False):
        return OptimizerState.initial(p, second)

    coupled = step_signgd_coupled(p, g, state(), lr, wd)[0]
    decoupled = step_signgd_decoupled(p, g, state(), lr, wd)[0]
    assert _same_bits(step_adam_family(p, g, state(True), lr, 0.0, 0.0, 0.0, wd, 0.0)[0], coupled)
    assert _same_bits(step_adam_family(p, g, state(True), lr, 0.0, 0.0, 0.0, 0.0, wd)[0],
                      decoupled)
    assert _same_bits(step_signum(p, g, state(), lr, 0.0, wd, coupled=True)[0], coupled)
    assert _same_bits(step_signum(p, g, state(), lr, 0.0, wd, coupled=False)[0], decoupled)


def _j_abs(x, y) -> float:
    """<|X| |Y|^T, J-hat>: the J-hat inner product with no cancellation."""
    return float(np.abs(x).sum(axis=0) @ np.abs(y).sum(axis=0)) / x.shape[0]


@given(seed=seeds, k=st.integers(2, 8), p=st.integers(1, 8), scale=st.floats(0.01, 100.0),
       lr=st.floats(1e-3, 1.0), momentum=st.floats(0.0, 0.99), wd=st.floats(0.0, 1.0))
def test_alpha_increment_decomposition_holds_to_rounding(seed, k, p, scale, lr, momentum, wd):
    rng = np.random.default_rng(seed)
    w, v, g = (scale * rng.standard_normal((k, p)) for _ in range(3))
    lhs, rhs = alpha_increment_decomposition(w, v, g, lr, momentum, wd)
    # Every term of either side is a J-hat inner product bounded by
    # _j_abs(s, s) / lr, and each carries a relative rounding error of
    # about (K + P) eps from its K-row column sums and P-term dot product.
    v1 = momentum * v + g + wd * w
    w1 = w - lr * v1
    s = np.abs(w) + np.abs(w1) + lr * (np.abs(v) + np.abs(g) + np.abs(v1))
    assert abs(lhs - rhs) <= 4 * (k + p) * np.finfo(float).eps * _j_abs(s, s) / lr


finite = st.floats(allow_nan=False, allow_infinity=False)
maybe = st.none() | finite


@given(data=st.data(), epochs=st.lists(st.integers(0, 10**6), max_size=4))
def test_metric_csv_round_trips(data, epochs):
    records = [MetricRecord(epoch=epoch, lr=data.draw(finite), train_loss=data.draw(finite),
                            train_acc=data.draw(finite),
                            values={key: data.draw(maybe) for key in METRIC_KEYS},
                            sigma_min_w=data.draw(maybe), sigma_avg_w=data.draw(maybe),
                            sigma_min_m=data.draw(maybe), sigma_avg_m=data.draw(maybe))
               for epoch in epochs]
    text = format_metric_csv(records)
    assert metric_records(text) == records
    assert format_metric_csv(metric_records(text)) == text


@given(data=st.data(), size=st.integers(0, 4))
def test_sweep_summary_csv_round_trips(data, size):
    statuses = st.sampled_from(("ok", "diverged", "did_not_train", "error"))
    ints = st.none() | st.integers(0, 2**63 - 1)
    rows = [{"kind": data.draw(st.sampled_from(OPTIMIZER_KINDS)), "lr": data.draw(finite),
             "momentum": data.draw(finite), "wd": data.draw(finite),
             "seed": data.draw(ints), "status": data.draw(statuses), "epoch": data.draw(ints)}
            | {col: data.draw(maybe) for col in CSV_COLUMNS if col not in ("epoch", "lr")}
            for _ in range(size)]
    sweep = SweepResult(spec=SweepSpec(), base_config=ExperimentConfig(), rows=rows, results=[])
    text = sweep_summary_csv(sweep)
    assert parse_csv(text) == (list(_SWEEP_COLUMNS), rows)
    sweep.rows = parse_csv(text)[1]
    assert sweep_summary_csv(sweep) == text


@st.composite
def configs(draw):
    """Valid configs over every model kind, optimizer kind and schedule."""
    model_kind = draw(st.sampled_from(MODEL_KINDS))
    kind = draw(st.sampled_from(OPTIMIZER_KINDS))
    decay = st.sampled_from((0.0,)) | st.floats(1e-4, 1.0)
    schedule = draw(st.sampled_from(("constant", "step_decay", "oscillation_decay")))
    lr = draw(st.floats(1e-4, 10.0))
    # only the fields its kind reads, which are the ones the echo holds
    extra = {}
    if schedule == "step_decay":
        extra = dict(decay_factor=draw(st.floats(1.5, 100.0)),
                     milestone_fractions=tuple(draw(st.lists(st.floats(0.0, 1.0), max_size=3))))
    if schedule == "oscillation_decay":
        extra = dict(shrink_factor=draw(st.floats(0.01, 0.99)))
    hyper = dict(momentum=draw(st.floats(0.0, 0.99)), beta2=draw(st.floats(0.0, 0.999)),
                 eps=draw(st.floats(1e-12, 1e-3)), coupled_wd=draw(decay),
                 decoupled_wd=draw(decay))
    opt = OptimizerConfig(kind=kind, lr=lr, schedule=LRSchedule(kind=schedule, **extra),
                          **{k: v for k, v in hyper.items() if k in _STEPS[kind][0]})
    data = {}
    if model_kind != "ufm_fixed_features":
        data = dict(dim=draw(st.integers(1, 64)), per_class=draw(st.integers(1, 50)))
    if model_kind == "mlp":
        data |= dict(hidden_sizes=tuple(draw(st.lists(st.integers(1, 64), max_size=3))),
                     data_seed=draw(st.integers(0, 2**31)), margin=draw(st.floats(0.0, 4.0)),
                     noise_std=draw(st.floats(0.0, 4.0)))
    inits = ("default", "gaussian") if model_kind == "mlp" else ("default", "gaussian", "zero")
    return ExperimentConfig(
        model_kind=model_kind, init_scale=draw(st.floats(1e-3, 10.0)), init=draw(st.sampled_from(inits)),
        num_classes=draw(st.integers(2, 20)), optimizer=opt, epochs=draw(st.integers(1, 10**4)),
        batch_size=draw(st.none() | st.integers(1, 500)), seed=draw(st.integers(0, 2**31)),
        metric_period=draw(st.integers(1, 100)), **data)


def _with_sweep_cells(test):
    """``test`` with the config of every pinned sweep cell as a further example."""
    for _, config in sweep_cell_configs():
        test = example(config=config)(test)
    return test


@_with_sweep_cells
@given(config=configs())
def test_config_echo_is_a_fixed_point(config):
    echo = config_to_mapping(config)
    again = config_from_mapping({k: str(v) for k, v in echo.items()})
    assert config_to_mapping(again) == echo
    assert again == config
