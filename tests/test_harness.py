import gc
import inspect
import json
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from nc_lab import harness, metrics, optim, oracles
from nc_lab.errors import BudgetExceededError, DomainError
from nc_lab.harness import (
    CSV_HEADER,
    ExperimentConfig,
    MetricRecord,
    SweepSpec,
    TrainResult,
    check_coupled_rowsum_recursion,
    check_coupled_sign_oscillation,
    check_decoupled_rowsum_decay,
    check_decoupled_sign_plateau,
    config_from_mapping,
    config_to_mapping,
    derive_run_seed,
    emit_csv,
    emit_summary_json,
    format_metric_csv,
    load_config,
    load_sweep,
    parse_config_text,
    parse_csv,
    pivot_csv,
    regress_rows,
    regress_runs,
    run_sweep,
    run_training,
    sweep_summary_csv,
    write_sweep_outputs,
)
from nc_lab.metrics import METRIC_KEYS, simplex_etf
from nc_lab.models import MLPModel, one_hot
from nc_lab.optim import LRSchedule, OptimizerConfig
from helpers import metric_records, snapshot, weight_trajectory


def _ufm_sign_config(kind, lr, wd, steps, schedule="constant", shrink=0.5, k=4,
                     metric_period=None):
    wd_field = {"coupled_wd": wd} if kind.endswith("_coupled") else {"decoupled_wd": wd}
    sched = LRSchedule(kind=schedule, shrink_factor=shrink)
    return ExperimentConfig(
        model_kind="ufm_fixed_features",
        init="zero",
        num_classes=k,
        epochs=steps,
        metric_period=metric_period or max(1, steps // 20),
        optimizer=OptimizerConfig(kind=kind, lr=lr, schedule=sched, **wd_field),
    )


def _mlp_config(**overrides):
    opt = overrides.pop("optimizer", None) or OptimizerConfig(
        kind="sgd_coupled", lr=0.05, momentum=0.9, coupled_wd=0.01
    )
    base = dict(model_kind="mlp", num_classes=4, dim=8, per_class=25,
                epochs=60, metric_period=10, optimizer=opt)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_csv_header_contract():
    assert CSV_HEADER == (
        "epoch,lr,train_loss,train_acc,nc0,nc0_alpha,nc0_normalized,nc1,nc2,nc2n,"
        "nc2a,nc2w,nc2wn,nc2wa,nc2m,nc3,nc4,sigma_min_w,sigma_avg_w,sigma_min_m,sigma_avg_m"
    )


def test_config_parse_round_trip():
    text = """
# experiment file
model.kind = mlp
model.hidden_sizes = 16,16
data.k = 4
data.per_class = 25
optimizer.kind = sgd_decoupled
optimizer.lr = 0.05
optimizer.momentum = 0.9
optimizer.decoupled_wd = 0.1
optimizer.schedule = step_decay
optimizer.decay_factor = 10
optimizer.milestone_fractions = 1/3,2/3
train.epochs = 300
train.batch_size = full
train.seed = 7
train.metric_period = 10
"""
    mapping = parse_config_text(text)
    cfg = config_from_mapping(mapping)
    assert cfg.model_kind == "mlp"
    assert cfg.hidden_sizes == (16, 16)
    assert cfg.optimizer.kind == "sgd_decoupled"
    assert cfg.optimizer.schedule.kind == "step_decay"
    assert cfg.optimizer.schedule.milestone_fractions == pytest.approx((1 / 3, 2 / 3))
    assert cfg.batch_size is None
    assert cfg.seed == 7
    echo = config_to_mapping(cfg)
    # step_decay's own keys are echoed, oscillation_decay's is not
    assert echo["optimizer.decay_factor"] == 10.0
    assert echo["optimizer.milestone_fractions"] == "0.3333333333333333,0.6666666666666666"
    assert "optimizer.shrink_factor" not in echo
    # the output paths say where a run writes, not what it runs
    assert config_to_mapping(replace(cfg, output_csv="a.csv", output_summary="a.json")) == echo
    again = config_from_mapping({k: str(v) for k, v in echo.items()})
    assert again == cfg


def test_config_errors():
    with pytest.raises(DomainError):
        parse_config_text("train.epochs = 5\ntrain.epochs = 6\n")
    with pytest.raises(DomainError):
        parse_config_text("not a key value line\n")
    with pytest.raises(DomainError):
        config_from_mapping({"bogus.key": "1"})
    with pytest.raises(DomainError):
        config_from_mapping({"train.epochs": "0"})
    with pytest.raises(DomainError):
        config_from_mapping({"train.epochs": "many"})
    with pytest.raises(DomainError):
        ExperimentConfig(model_kind="mlp", init="zero")
    with pytest.raises(DomainError):
        ExperimentConfig(model_kind="submarine")


def test_only_a_tuple_key_may_have_an_empty_value(tmp_path):
    mapping = parse_config_text("model.kind = mlp\nmodel.hidden_sizes =  # none\n")
    assert mapping == {"model.kind": "mlp", "model.hidden_sizes": ""}
    assert config_from_mapping(mapping).hidden_sizes == ()
    for key in ("data.k", "data.margin", "model.kind", "train.batch_size", "output.csv"):
        with pytest.raises(DomainError, match=f"^config key {key}: empty value$"):
            config_from_mapping(parse_config_text(f"train.epochs = 5\n{key} =\n"))
    with pytest.raises(DomainError, match="^config line 1: empty key$"):
        parse_config_text("= 5\n")
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("sweep.outdir =\n")
    with pytest.raises(DomainError, match="^config key sweep.outdir: empty value$"):
        load_sweep(sweep)
    sweep.write_text("sweep.lrs =\n")
    with pytest.raises(DomainError, match="sweep grid lrs must be non-empty"):
        load_sweep(sweep)


_ECHOED = [ExperimentConfig(model_kind=kind) for kind in harness.MODEL_KINDS] + [
    ExperimentConfig(model_kind="mlp", hidden_sizes=()),
    ExperimentConfig(model_kind="mlp", hidden_sizes=(3,), batch_size=10, optimizer=OptimizerConfig(
        kind="adam_w", lr=0.01, schedule=LRSchedule(kind="step_decay",
                                                    milestone_fractions=(1 / 3, 0.5)))),
]


@pytest.mark.parametrize("config", _ECHOED, ids=lambda c: f"{c.model_kind}-{c.hidden_sizes}")
def test_the_config_echo_replays_as_a_config_file(config):
    text = "".join(f"{key} = {value}\n" for key, value in config_to_mapping(config).items())
    assert config_from_mapping(parse_config_text(text)) == config


def test_config_defaults_live_in_the_dataclasses():
    assert config_from_mapping({}) == ExperimentConfig()
    for kind, schedule in (("adam", "step_decay"), ("signgd_coupled", "oscillation_decay"),
                           ("signum_w", "constant")):
        cfg = config_from_mapping({"optimizer.kind": kind, "optimizer.schedule": schedule})
        assert cfg == ExperimentConfig(
            optimizer=OptimizerConfig(kind=kind, schedule=LRSchedule(kind=schedule)))


def test_config_rejects_the_schedule_keys_its_kind_does_not_read():
    with pytest.raises(DomainError, match="^schedule constant reads no "
                                          "optimizer.decay_factor, optimizer.shrink_factor$"):
        config_from_mapping({"optimizer.shrink_factor": "0.3", "optimizer.decay_factor": "5"})
    with pytest.raises(DomainError, match="^schedule step_decay reads no optimizer.shrink_factor$"):
        config_from_mapping({"optimizer.schedule": "step_decay", "optimizer.shrink_factor": "0.3"})
    with pytest.raises(DomainError, match="^schedule oscillation_decay reads no "
                                          "optimizer.milestone_fractions$"):
        config_from_mapping({"optimizer.schedule": "oscillation_decay",
                             "optimizer.milestone_fractions": "1/2"})
    with pytest.raises(DomainError, match="unknown schedule kind"):
        config_from_mapping({"optimizer.schedule": "cosine", "optimizer.shrink_factor": "0.3"})
    step = config_from_mapping({"optimizer.schedule": "step_decay", "optimizer.decay_factor": "5",
                                "optimizer.milestone_fractions": "1/2"}).optimizer.schedule
    assert (step.decay_factor, step.milestone_fractions) == (5.0, (0.5,))
    osc = config_from_mapping({"optimizer.schedule": "oscillation_decay",
                               "optimizer.shrink_factor": "0.3"}).optimizer.schedule
    assert osc.shrink_factor == 0.3


def test_ufm_fixed_features_rejects_the_data_keys_it_does_not_read():
    base = {"model.kind": "ufm_fixed_features", "data.k": "4"}
    assert config_from_mapping(base).num_classes == 4
    for keys in (["data.d"], ["data.per_class", "data.d"],
                 ["data.seed", "data.margin", "data.noise_std"]):
        with pytest.raises(DomainError) as exc:
            config_from_mapping({**base, **{key: "3" for key in keys}})
        for key in keys:
            assert key in str(exc.value)
    assert config_from_mapping({"model.kind": "ufm", "data.d": "3"}).dim == 3
    cfg = config_from_mapping(base)
    echo = config_to_mapping(cfg)
    assert [key for key in echo if key.startswith("data.")] == ["data.k"]
    assert config_from_mapping({k: str(v) for k, v in echo.items()}) == cfg


def test_ufm_fixed_features_rejects_the_fields_it_does_not_read():
    assert ExperimentConfig(model_kind="ufm_fixed_features", dim=8, per_class=25).dim == 8
    with pytest.raises(DomainError, match="reads no dim$"):
        ExperimentConfig(model_kind="ufm_fixed_features", dim=64, per_class=25)
    with pytest.raises(DomainError, match="reads no dim, per_class, data_seed, margin, noise_std"):
        ExperimentConfig(model_kind="ufm_fixed_features", dim=3, per_class=1, data_seed=1,
                         margin=2.0, noise_std=0.5)
    with pytest.raises(DomainError, match="reads no per_class"):
        replace(ExperimentConfig(model_kind="ufm_fixed_features"), per_class=2)


# The config keys each model kind does not read.
UNREAD_KEYS = {
    "mlp": [],
    "ufm": ["data.margin", "data.noise_std", "data.seed", "model.hidden_sizes"],
    "ufm_fixed_features": ["data.d", "data.margin", "data.noise_std", "data.per_class",
                           "data.seed", "model.hidden_sizes"],
}


@pytest.mark.parametrize("kind", sorted(UNREAD_KEYS))
def test_each_model_kind_refuses_and_does_not_echo_the_keys_it_does_not_read(kind):
    # Every key at its default value: a key is refused for being set at all.
    every_key = config_to_mapping(ExperimentConfig(model_kind="mlp"))
    for key in UNREAD_KEYS[kind]:
        with pytest.raises(DomainError, match=f"^model {kind} reads no {key}$"):
            config_from_mapping({"model.kind": kind, key: str(every_key[key])})
    echo = config_to_mapping(ExperimentConfig(model_kind=kind))
    assert sorted(set(every_key) - set(echo)) == UNREAD_KEYS[kind]
    changed = dict(hidden_sizes=(8,), dim=3, per_class=2, data_seed=1, margin=2.0, noise_std=0.5)
    for key in UNREAD_KEYS[kind]:
        field_name = harness._CONFIG_CASTS[key][0]
        with pytest.raises(DomainError, match=f"^model {kind} reads no {field_name}$"):
            ExperimentConfig(model_kind=kind, **{field_name: changed[field_name]})


@pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
def test_each_optimizer_kind_refuses_and_does_not_echo_the_keys_it_does_not_read(kind):
    reads = optim._STEPS[kind][0]
    unread = [name for name in ("momentum", "beta2", "eps", "coupled_wd", "decoupled_wd")
              if name not in reads]
    defaults = OptimizerConfig()
    for name in unread:
        key = "optimizer." + name
        # a key is refused for being set at all, even at its default
        with pytest.raises(DomainError, match=f"^optimizer {kind} reads no {key}$"):
            config_from_mapping({"optimizer.kind": kind, key: repr(getattr(defaults, name))})
        with pytest.raises(DomainError, match=f"^optimizer {kind} reads no {name}$"):
            OptimizerConfig(kind=kind, **{name: 0.5})
    echo = config_to_mapping(ExperimentConfig(optimizer=OptimizerConfig(kind=kind)))
    assert sorted(key for key in echo if key.startswith("optimizer.")) == sorted(
        ["optimizer.kind", "optimizer.lr", "optimizer.schedule"]
        + ["optimizer." + name for name in reads])


def test_schedule_refuses_the_fields_its_kind_does_not_read():
    with pytest.raises(DomainError, match="^schedule constant reads no decay_factor, shrink_factor$"):
        LRSchedule(decay_factor=5.0, shrink_factor=0.3)
    with pytest.raises(DomainError, match="^schedule oscillation_decay reads no milestone_fractions$"):
        LRSchedule(kind="oscillation_decay", milestone_fractions=(0.5,))
    assert LRSchedule(kind="step_decay", decay_factor=5.0).decay_factor == 5.0


def test_config_names_every_part_whose_kind_does_not_read_a_key():
    with pytest.raises(DomainError, match="^model ufm reads no data.seed; optimizer signgd_coupled "
                                          "reads no optimizer.momentum$"):
        config_from_mapping({"data.seed": "1", "optimizer.kind": "signgd_coupled",
                             "optimizer.momentum": "0.9"})


def test_sweep_cell_sets_the_fields_its_kind_reads():
    base = _mlp_config(optimizer=OptimizerConfig(
        kind="adam", lr=0.01, momentum=0.5, beta2=0.9, eps=1e-6,
        schedule=LRSchedule(kind="step_decay", decay_factor=4.0)))
    cells = [harness._cell_config(base, kind, 0.02, 0.9, 0.01, 7).optimizer
             for kind in ("signgd_coupled", "signum_w", "adam_interpolated")]
    schedule = base.optimizer.schedule
    assert cells == [
        OptimizerConfig(kind="signgd_coupled", lr=0.02, coupled_wd=0.01, schedule=schedule),
        OptimizerConfig(kind="signum_w", lr=0.02, momentum=0.9, decoupled_wd=0.01,
                        schedule=schedule),
        OptimizerConfig(kind="adam_interpolated", lr=0.02, momentum=0.9, beta2=0.9, eps=1e-6,
                        coupled_wd=0.005, decoupled_wd=0.005, schedule=schedule)]


def test_config_without_a_model_kind_is_ufm_and_refuses_what_ufm_does_not_read():
    with pytest.raises(DomainError, match="^model ufm reads no data.seed, model.hidden_sizes$"):
        config_from_mapping({"data.seed": "3", "model.hidden_sizes": "8"})


def test_configs_are_frozen():
    cfg = _mlp_config()
    for name, value in (("init", "zero"), ("model_kind", "submarine"), ("batch_size", 3)):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
    with pytest.raises(FrozenInstanceError):
        cfg.optimizer.lr = 0.5
    assert cfg == _mlp_config()


@pytest.mark.parametrize("kind", harness.MODEL_KINDS)
def test_config_refuses_sizes_that_cannot_train(kind):
    with pytest.raises(DomainError, match="num_classes must be >= 2"):
        ExperimentConfig(model_kind=kind, num_classes=1)
    for name in ("dim", "per_class"):
        if name in harness._UNREAD_FIELDS[kind]:
            continue
        with pytest.raises(DomainError, match=f"^{name} must be >= 1$"):
            ExperimentConfig(model_kind=kind, **{name: 0})
    with pytest.raises(DomainError):
        config_from_mapping({"model.kind": kind, "data.k": "1"})


@pytest.mark.parametrize("build, name, value", [
    (lambda v: ExperimentConfig(init_scale=v), "init_scale", math.nan),
    (lambda v: ExperimentConfig(model_kind="mlp", margin=v), "margin", math.inf),
    (lambda v: ExperimentConfig(model_kind="mlp", noise_std=v), "noise_std", math.nan),
    (lambda v: OptimizerConfig(lr=v), "lr", math.nan),
    (lambda v: OptimizerConfig(lr=v), "lr", math.inf),
    (lambda v: OptimizerConfig(kind="adam", eps=v), "eps", math.nan),
    (lambda v: OptimizerConfig(kind="sgd_coupled", coupled_wd=v), "coupled_wd", math.inf),
    (lambda v: OptimizerConfig(decoupled_wd=v), "decoupled_wd", math.nan),
    (lambda v: LRSchedule(kind="step_decay", decay_factor=v), "decay_factor", math.inf),
    (lambda v: LRSchedule(kind="step_decay", decay_factor=v), "decay_factor", math.nan),
    (lambda v: LRSchedule(kind="step_decay", milestone_fractions=(0.5, v)),
     "milestone_fractions", math.nan),
])
def test_config_refuses_a_non_finite_number_naming_its_field(build, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
        build(value)


def test_config_refuses_non_finite_text_values():
    for key, text, name in (("optimizer.lr", "nan", "lr"), ("optimizer.lr", "1e400", "lr"),
                            ("model.init_scale", "-inf", "init_scale")):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
            config_from_mapping({key: text})


def test_config_names_the_key_of_a_fraction_over_zero():
    with pytest.raises(DomainError, match=r"^config key optimizer.milestone_fractions: "
                                          r"cannot parse '1/0'$"):
        config_from_mapping({"optimizer.schedule": "step_decay",
                             "optimizer.milestone_fractions": "1/0"})


@pytest.mark.parametrize("hidden", [(0,), (16, -1), (16, 0, 16)])
def test_config_refuses_a_hidden_width_below_one(hidden):
    with pytest.raises(DomainError, match=r"^hidden_sizes must be >= 1, got \("):
        ExperimentConfig(model_kind="mlp", hidden_sizes=hidden)
    with pytest.raises(DomainError, match="^hidden_sizes must be >= 1"):
        config_from_mapping({"model.kind": "mlp",
                             "model.hidden_sizes": ",".join(map(str, hidden))})


@pytest.mark.parametrize("kind", ["mlp", "ufm"])
@pytest.mark.parametrize("scale", [0.0, -0.0])
def test_config_refuses_a_zero_init_scale_naming_the_field(kind, scale):
    """At init_scale 0 an mlp or ufm starts as the all-zero network, whose
    gradient is zero, so it could never train."""
    message = f"^init_scale = 0 leaves the {kind} network all zero, without gradient flow$"
    for init in ("default", "gaussian") + (("zero",) if kind == "ufm" else ()):
        with pytest.raises(DomainError, match=message):
            ExperimentConfig(model_kind=kind, init=init, init_scale=scale)
    with pytest.raises(DomainError, match=message):
        config_from_mapping({"model.kind": kind, "model.init_scale": str(scale)})


def test_a_gaussian_frame_classifier_may_start_at_scale_zero():
    """ufm_fixed_features is linear in W, so W = 0 has a gradient and trains."""
    config = ExperimentConfig(model_kind="ufm_fixed_features", init="gaussian", init_scale=0.0,
                              epochs=20)
    result = run_training(config)
    assert not weight_trajectory(config)[0].any()
    assert result.status == "ok" and result.records[-1].train_acc == 1.0


def test_sweep_refuses_a_base_with_a_zero_hidden_width():
    """A zero width stops the base config before any cell trains."""
    with pytest.raises(DomainError, match="hidden_sizes"):
        run_sweep(_mlp_config(hidden_sizes=(0,)), SweepSpec())


def test_sweep_spec_refuses_a_non_finite_grid_value_or_a_threshold_off_0_1():
    """A non-finite grid value would train only error cells, and at a nan
    threshold no row would qualify: every pivot cell would be blank and
    regress_runs would find no runs. The CLI tests cover the other axes."""
    with pytest.raises(DomainError, match=r"^lrs must be finite, got \(0.05, inf\)$"):
        SweepSpec(lrs=(0.05, math.inf))
    with pytest.raises(DomainError, match=r"^wds must be finite, got \(0.01, nan\)$"):
        SweepSpec(wds=(0.01, math.nan))
    with pytest.raises(DomainError, match=r"^accuracy_threshold must lie in \[0, 1\], got -0.1$"):
        SweepSpec(accuracy_threshold=-0.1)
    for edge in (0.0, 1.0):
        assert SweepSpec(accuracy_threshold=edge).accuracy_threshold == edge


def test_load_sweep_splits_a_sweep_file_into_base_spec_and_outdir(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("model.kind = mlp\noptimizer.lr = 0.05\nsweep.kinds = sgd_coupled, adam\n"
                    "sweep.lrs = 0.1,0.2\nsweep.accuracy_threshold = 0.5\nsweep.base_seed = 3\n")
    base, spec, outdir = load_sweep(path)
    assert base == config_from_mapping({"model.kind": "mlp", "optimizer.lr": "0.05"})
    assert spec == SweepSpec(kinds=("sgd_coupled", "adam"), lrs=(0.1, 0.2),
                             accuracy_threshold=0.5, base_seed=3)
    assert outdir == "sweep_output"
    path.write_text("sweep.outdir = elsewhere\n")
    assert load_sweep(path) == (ExperimentConfig(), SweepSpec(), "elsewhere")
    with pytest.raises(OSError, match="cannot read sweep config from .*missing.cfg"):
        load_sweep(tmp_path / "missing.cfg")


def test_load_config_path_error(tmp_path):
    with pytest.raises(OSError) as exc:
        load_config(tmp_path / "missing.cfg")
    assert "missing.cfg" in str(exc.value)


def test_metric_csv_round_trip_and_empty():
    assert format_metric_csv([]) == CSV_HEADER + "\n"
    values = {k: v for k, v in zip(METRIC_KEYS, np.random.default_rng(26).uniform(0, 1, 13))}
    values["nc2a"] = None
    rec = MetricRecord(epoch=3, lr=0.012345678901234567, train_loss=1.0 / 3.0,
                       train_acc=0.99, values=values,
                       sigma_min_w=1e-17, sigma_avg_w=2.5, sigma_min_m=None, sigma_avg_m=0.5)
    text = format_metric_csv([rec])
    back = metric_records(text)
    assert len(back) == 1
    got = back[0]
    assert got.epoch == 3
    assert got.lr == rec.lr
    assert got.train_loss == rec.train_loss
    for k in METRIC_KEYS:
        assert got.values[k] == values[k]
    assert got.values["nc2a"] is None
    assert got.sigma_min_w == 1e-17
    assert got.sigma_min_m is None
    row = text.splitlines()[1]
    assert ",," in row  # empty cells, not zeros
    # the reader hands any header back for its caller to check
    assert parse_csv("epoch,lr\n1,0.1\n") == (["epoch", "lr"], [{"epoch": 1, "lr": 0.1}])
    with pytest.raises(DomainError):
        parse_csv(CSV_HEADER + "\n1,0.1\n")


def test_run_training_deterministic_csv(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        cfg = _mlp_config(batch_size=10, epochs=30,
                          output_csv=str(tmp_path / name))
        run_training(cfg)
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(CSV_HEADER.encode())


def test_run_training_records_and_summary(tmp_path):
    csv_path = tmp_path / "run.csv"
    summary_path = tmp_path / "run.json"
    cfg = _mlp_config(epochs=40, metric_period=10,
                      output_csv=str(csv_path), output_summary=str(summary_path))
    result = run_training(cfg)
    assert result.status == "ok"
    epochs = [r.epoch for r in result.records]
    assert epochs == [0, 10, 20, 30, 40]
    summary = json.loads(summary_path.read_text())
    assert summary["status"] == "ok"
    assert summary["num_records"] == 5
    assert summary["config"]["model.kind"] == "mlp"
    assert summary["final"]["epoch"] == 40
    assert summary["wall_time_s"] >= 0.0
    parsed = metric_records(csv_path.read_text())
    assert [r.epoch for r in parsed] == epochs


def test_run_training_batch_size_errors():
    with pytest.raises(DomainError):
        run_training(_mlp_config(batch_size=101))
    with pytest.raises(DomainError):
        ExperimentConfig(model_kind="mlp", batch_size=0)


def test_run_training_did_not_train():
    cfg = _mlp_config(
        epochs=40, metric_period=5,
        optimizer=OptimizerConfig(kind="sgd_coupled", lr=0.1, coupled_wd=10.0),
    )
    result = run_training(cfg)
    assert result.status == "did_not_train"
    assert result.records[-1].train_acc <= 0.25 + 0.05


def test_run_training_divergence_diagnostic():
    cfg = _mlp_config(
        epochs=10, metric_period=2,
        optimizer=OptimizerConfig(kind="sgd_coupled", lr=1e8, momentum=0.9),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_training(cfg)
    assert result.status == "diverged"
    last = result.records[-1]
    assert not math.isfinite(last.train_loss)
    assert last.epoch < 10


def test_degenerate_metrics_serialize_as_empty(tmp_path):
    # zero-init classifier: the normalized metrics are undefined at epoch 0
    cfg = _ufm_sign_config("signgd_decoupled", 0.1, 0.5, steps=4)
    cfg = replace(cfg, output_csv=str(tmp_path / "degen.csv"))
    result = run_training(cfg)
    first = result.records[0]
    assert first.values["nc0"] == 0.0
    assert first.values["nc0_normalized"] is None
    text = (tmp_path / "degen.csv").read_text()
    first_row = text.splitlines()[1]
    assert ",," in first_row
    parsed = metric_records(text)
    assert parsed[0].values["nc0_normalized"] is None


def test_ufm_decoupled_sign_plateau_run():
    cfg = _ufm_sign_config("signgd_decoupled", 0.1, 0.5, steps=2000, k=4)
    result = run_training(cfg)
    final = result.records[-1].values["nc0_alpha"]
    limit = oracles.alpha_signgd_decoupled_limit(4, 0.5)
    assert limit == 16.0
    assert abs(final - limit) <= 0.01 * limit


def test_ufm_oscillation_decay_run():
    cfg = _ufm_sign_config("signgd_coupled", 0.1, 0.5, steps=400,
                           schedule="oscillation_decay", shrink=0.5, k=4,
                           metric_period=1)
    result = run_training(cfg)
    alphas = [r.values["nc0_alpha"] for r in result.records]
    assert max(alphas) > 1e-4
    assert alphas[-1] < 1e-4
    assert result.records[-1].lr < 0.1
    assert result.records[-1].epoch == 400


def test_oscillation_routing_errors():
    osc = LRSchedule(kind="oscillation_decay", shrink_factor=0.5)
    bad_model = _mlp_config(
        optimizer=OptimizerConfig(kind="signgd_coupled", lr=0.1, coupled_wd=0.5,
                                  schedule=osc),
    )
    with pytest.raises(DomainError):
        run_training(bad_model)
    bad_opt = _ufm_sign_config("signgd_decoupled", 0.1, 0.5, steps=10,
                               schedule="oscillation_decay")
    with pytest.raises(DomainError):
        run_training(bad_opt)


def test_oscillation_decay_rejects_gaussian_init():
    # The (a, b) dynamics that set the step size start from W = 0.
    cfg = _ufm_sign_config("signgd_coupled", 0.1, 0.5, steps=10,
                           schedule="oscillation_decay")
    cfg = replace(cfg, init="gaussian")
    with pytest.raises(DomainError, match="gaussian"):
        run_training(cfg)


def test_ufm_fixed_features_trains_full_batch_only():
    for kind, schedule in (("signgd_decoupled", "constant"),
                           ("signgd_coupled", "oscillation_decay")):
        cfg = _ufm_sign_config(kind, 0.1, 0.5, steps=2, schedule=schedule, k=4)
        for batch_size in (1, 2, 3, 5):
            with pytest.raises(DomainError, match="full batch"):
                run_training(replace(cfg, batch_size=batch_size))
        full = run_training(replace(cfg, batch_size=4))
        assert np.array_equal(full.model.final_weight,
                              run_training(replace(cfg, batch_size=None)).model.final_weight)


def test_ufm_fixed_features_is_a_linear_mlp_over_the_simplex_frame():
    # No hidden layer, the K frame columns as data, and a classifier that
    # starts at zero unless the init is gaussian.
    k = 5
    for init in ("default", "zero", "gaussian"):
        cfg = replace(_ufm_sign_config("signgd_decoupled", 0.1, 0.5, steps=1, k=k), init=init,
                      init_scale=0.2, seed=3)
        result = run_training(cfg)
        assert result.model.hidden_weights == [] and result.dataset is None
        assert np.array_equal(result.model.features(simplex_etf(k)), simplex_etf(k))
        drawn = 0.2 * np.random.default_rng(3).standard_normal((k, k))
        expected = drawn if init == "gaussian" else np.zeros((k, k))
        assert np.array_equal(weight_trajectory(cfg)[0], expected)
        assert np.array_equal(MLPModel.create(k, (), k, seed=3, init_scale=0.2).final_weight,
                              drawn)
    with pytest.raises(DomainError, match="unknown init"):
        replace(cfg, init="bogus")


def test_oscillation_run_ends_on_the_scalar_dynamics():
    # The trained K x K weight stays (a+b) I - b J, with (a, b) the state of
    # the dynamics after as many steps as the run has epochs.
    k, epochs = 5, 60
    cfg = _ufm_sign_config("signgd_coupled", 0.05, 0.5, steps=epochs,
                           schedule="oscillation_decay", k=k, metric_period=10)
    result = run_training(cfg)
    dynamics = oracles.coupled_signgd_steps(k, 0.05, 0.5, 0.5)
    for _ in range(epochs):
        state, _ = next(dynamics)
    family = (state.a + state.b) * np.eye(k) - state.b * np.ones((k, k))
    assert np.max(np.abs(result.model.final_weight - family)) <= 1e-12
    assert result.records[-1].lr < 0.05


@pytest.mark.parametrize("schedule", ["constant", "step_decay", "oscillation_decay"])
def test_optimizer_lr_is_the_learning_rate_training_uses(tmp_path, schedule):
    # Every schedule starts from OptimizerConfig.lr, and the summary echoes it.
    if schedule == "oscillation_decay":
        cfg = _ufm_sign_config("signgd_coupled", 0.3, 0.5, steps=3, schedule=schedule,
                               metric_period=1)
    else:
        # only step_decay reads milestone fractions
        fractions = {"milestone_fractions": (0.5,)} if schedule == "step_decay" else {}
        cfg = _mlp_config(epochs=3, metric_period=1, optimizer=OptimizerConfig(
            kind="sgd_coupled", lr=0.3, momentum=0.9, coupled_wd=0.01,
            schedule=LRSchedule(kind=schedule, **fractions)))
    path = tmp_path / "run.json"
    cfg = replace(cfg, output_summary=str(path))
    result = run_training(cfg)
    lrs = [r.lr for r in result.records]
    assert lrs[:2] == [0.3, 0.3]
    if schedule == "constant":
        assert lrs == [0.3] * 4
    if schedule == "step_decay":
        assert lrs[2:] == [0.3 / 10.0] * 2
    if schedule == "oscillation_decay":
        # The first coupled sign step from W = 0 moves every entry by lr.
        assert np.max(np.abs(weight_trajectory(cfg)[1])) == pytest.approx(0.3, abs=1e-15)
    assert config_to_mapping(result.config)["optimizer.lr"] == 0.3
    assert json.loads(path.read_text())["config"]["optimizer.lr"] == 0.3


@pytest.mark.parametrize("settings, steps", [
    ({}, 2),
    ({"k": 5, "lr": 0.05, "wd": 0.5}, 17),
    ({"lr": 0.01, "wd": 0.01}, 252),
])
def test_coupled_sign_check_runs_the_scalar_dynamics_once(monkeypatch, settings, steps):
    # One pass of T scalar steps sets the step count and gives every s_t;
    # training draws the T - 1 step sizes after lr from a second pass.
    calls = []
    step = oracles.coupled_signgd_scalar_step

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(oracles, "coupled_signgd_scalar_step", counted)
    res = check_coupled_sign_oscillation(**settings)
    assert res.passed
    assert res.details["terminated_at"] == steps
    assert len(calls) == 2 * steps - 1


def test_coupled_sign_check_raises_when_the_budget_runs_out():
    with pytest.raises(BudgetExceededError) as exc:
        check_coupled_sign_oscillation(max_steps=1)
    trajectory = exc.value.trajectory
    assert [t for t, _ in trajectory] == [0, 1]
    assert trajectory[1][1] > 0.0


def test_derive_run_seed_stable_and_distinct():
    a = derive_run_seed(0, "sgd_coupled", 0.05, 0.9, 0.1)
    assert a == derive_run_seed(0, "sgd_coupled", 0.05, 0.9, 0.1)
    others = {
        derive_run_seed(0, "sgd_coupled", 0.05, 0.9, 0.2),
        derive_run_seed(0, "sgd_decoupled", 0.05, 0.9, 0.1),
        derive_run_seed(1, "sgd_coupled", 0.05, 0.9, 0.1),
    }
    assert a not in others
    assert a >= 0


def test_sweep_single_cell_matches_run_training():
    base = _mlp_config(epochs=50, metric_period=10)
    spec = SweepSpec(kinds=("sgd_coupled",), lrs=(0.05,), momenta=(0.9,), wds=(0.01,))
    sweep = run_sweep(base, spec)
    assert len(sweep.rows) == 1
    row = sweep.rows[0]
    assert row["status"] == "ok"
    direct_cfg = _mlp_config(
        epochs=50, metric_period=10,
        seed=derive_run_seed(0, "sgd_coupled", 0.05, 0.9, 0.01),
        optimizer=OptimizerConfig(kind="sgd_coupled", lr=0.05, momentum=0.9, coupled_wd=0.01),
    )
    direct = run_training(direct_cfg)
    final = direct.records[-1]
    assert row["nc0_alpha"] == final.values["nc0_alpha"]
    assert row["train_acc"] == final.train_acc
    assert row["epoch"] == final.epoch


def test_sweep_cell_keeps_the_base_beta2_and_eps():
    opt = OptimizerConfig(kind="adam", lr=0.01, momentum=0.5, beta2=0.5, eps=1e-3)
    base = _mlp_config(epochs=4, batch_size=10, metric_period=2, optimizer=opt)
    spec = SweepSpec(kinds=("adam",), lrs=(0.02,), momenta=(0.9,), wds=(0.01,))
    sweep = run_sweep(base, spec)
    direct = run_training(replace(base, seed=sweep.rows[0]["seed"], optimizer=OptimizerConfig(
        kind="adam", lr=0.02, momentum=0.9, beta2=0.5, eps=1e-3, coupled_wd=0.01)))
    assert sweep.results[0].config.optimizer == direct.config.optimizer
    assert format_metric_csv(sweep.results[0].records) == format_metric_csv(direct.records)


def test_sweep_refuses_an_adam_cell_off_the_eps_zero_sign_limit():
    """With beta2 = eps = 0 from the base, an adam cell with momentum leaves
    the sign limit. Its config is refused, with the message a lone config
    gives, and that becomes its error row while the cells beside it train."""
    opt = OptimizerConfig(kind="adam", lr=0.01, beta2=0.0, eps=0.0)
    base = _mlp_config(epochs=3, batch_size=10, metric_period=1, optimizer=opt)
    spec = SweepSpec(kinds=("sgd_coupled", "adam", "signum"), lrs=(0.01,), momenta=(0.9,))
    sweep = run_sweep(base, spec)
    assert [row["status"] for row in sweep.rows] == ["ok", "error", "ok"]
    with pytest.raises(DomainError) as alone:
        OptimizerConfig(kind="adam", lr=0.01, momentum=0.9, beta2=0.0, eps=0.0)
    assert str(alone.value) == "eps = 0 is only valid in the momentum = beta2 = 0 sign limit"
    assert sweep.rows[1]["error"] == f"DomainError: {alone.value}"
    assert sweep.results[1] is None


def test_sweep_records_failures_without_aborting():
    base = _mlp_config(epochs=5)
    spec = SweepSpec(kinds=("sgd_coupled",), lrs=(0.05, -1.0), momenta=(0.0,), wds=(0.01,))
    sweep = run_sweep(base, spec)
    statuses = sorted(row["status"] for row in sweep.rows)
    assert statuses == ["error", "ok"]
    bad = next(row for row in sweep.rows if row["status"] == "error")
    assert bad["lr"] == -1.0
    assert bad["error"]
    assert sweep.results[sweep.rows.index(bad)] is None


def test_sweep_records_domain_error_raised_inside_training():
    base = _mlp_config(epochs=5, batch_size=1000)
    spec = SweepSpec(kinds=("sgd_coupled",), lrs=(0.05,), momenta=(0.0,), wds=(0.01,))
    sweep = run_sweep(base, spec)
    assert [row["status"] for row in sweep.rows] == ["error"]
    assert sweep.rows[0]["error"].startswith("DomainError: batch_size 1000")
    assert sweep.results == [None]


@pytest.mark.parametrize("axis, values, repeated", [
    ("kinds", ("sgd_coupled", "adam", "sgd_coupled"), "'sgd_coupled'"),
    ("lrs", (0.1, 0.1), "0.1"),
    ("momenta", (0.0, 0.9, -0.0), "-0.0"),
    ("wds", (0.01, 0.02, 0.01), "0.01"),
])
def test_sweep_spec_refuses_a_repeated_grid_value(axis, values, repeated):
    with pytest.raises(DomainError, match=f"^sweep grid {axis} repeats {repeated}$"):
        SweepSpec(**{axis: values})


def test_sweep_surfaces_programming_errors():
    base = _mlp_config(epochs=5)
    with pytest.raises(TypeError):
        SweepSpec(lrs=("0.1",))
    spec = SweepSpec(kinds=("sgd_coupled",), lrs=(0.1,), momenta=(0.0,), wds=(0.01,))
    spec.lrs = ("0.1",)   # past the spec's own checks
    with pytest.raises(TypeError):
        run_sweep(base, spec)


def test_sweep_warns_once_per_cell_outside_the_stability_range():
    base = _mlp_config(epochs=2, batch_size=50)
    spec = SweepSpec(kinds=("sgd_decoupled",), lrs=(0.1,), momenta=(0.0,), wds=(1.0, 30.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(base, spec)
    messages = {str(w.message) for w in caught if "contractive range" in str(w.message)}
    assert messages == {"lr * weight_decay = 3 is outside the contractive range [0, 2) "
                        "for decoupled sgd; iterates may not decay"}
    assert all(w.category is RuntimeWarning for w in caught if "contractive" in str(w.message))


def test_sweep_copies_a_cell_out_of_the_stack_only_when_it_finishes(monkeypatch):
    """A 24-cell grid with a snapshot every epoch reads each snapshot from the
    stacked model; MLPModel.cell runs once per finished cell."""
    calls, snapshots = [], []
    cell, features = MLPModel.cell, MLPModel.features
    monkeypatch.setattr(MLPModel, "cell", lambda self, i: calls.append(i) or cell(self, i))
    monkeypatch.setattr(MLPModel, "features",
                        lambda self, x: snapshots.append(len(self.final_weight))
                        or features(self, x))
    spec = SweepSpec(kinds=("sgd_coupled", "sgd_decoupled", "signgd_coupled",
                            "signgd_decoupled", "adam", "adam_w"),
                     lrs=(0.01, 0.03), momenta=(0.0, 0.9), wds=(0.01,))
    sweep = run_sweep(_mlp_config(epochs=3, metric_period=1, batch_size=50), spec)
    assert len(sweep.results) == 24
    assert all(len(res.records) == 4 for res in sweep.results)   # no cell failed
    assert snapshots == [24] * 4
    assert sorted(calls) == list(range(24))


def test_a_diverged_cell_drops_from_the_middle_of_the_stack():
    """Dropping a middle cell that diverges mid-run leaves two sgd groups
    side by side, each with its own momentum state. No step divides by zero,
    the dropped cell's records are its lone run's, and every other cell
    trains as it does alone."""
    def config(seed, **optimizer):
        return _mlp_config(epochs=3, batch_size=10, metric_period=1, seed=seed,
                           optimizer=OptimizerConfig(**{"lr": 0.01, **optimizer}))

    configs = [config(0, kind="sgd_coupled", momentum=0.9, coupled_wd=0.01),
               config(1, kind="sgd_decoupled", lr=1e4, momentum=0.9, decoupled_wd=0.01),
               config(2, kind="sgd_coupled", momentum=0.5, coupled_wd=0.02),
               config(3, kind="adam", momentum=0.9, coupled_wd=0.01)]
    with np.errstate(divide="raise"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # the diverged cell's overflow
        outcomes = harness._train_cells(configs)
        for i, outcome in enumerate(outcomes):
            assert outcome.status == ("diverged" if i == 1 else "ok")
            assert format_metric_csv(outcome.records) == format_metric_csv(
                run_training(configs[i]).records)
    assert outcomes[1].records[-1].epoch < configs[1].epochs
    assert len(outcomes[0].records) == configs[0].epochs + 1


def test_training_leaves_no_reference_cycles():
    """Everything a run allocates is freed when its result goes, without
    waiting for the cycle collector."""
    base = _mlp_config(epochs=3, batch_size=10)
    gc.collect()
    gc.disable()
    try:
        del run_training(base).records[:]
        run_sweep(base, SweepSpec(kinds=("sgd_coupled", "adam"), momenta=(0.0, 0.9)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stacks_stay_under_the_working_set_budget(monkeypatch):
    """A paper-size grid trains as one stack; stress-size cells train alone."""
    sizes = []

    def record(grid, cells, trajectory):
        sizes.append(len(cells))
        for cell in cells:
            cell.outcome = DomainError("not trained")

    monkeypatch.setattr(harness, "_train_stack", record)
    paper = _mlp_config(hidden_sizes=(16, 16), num_classes=10, dim=16, per_class=10,
                        batch_size=10)
    harness._train_cells([replace(paper, seed=s) for s in range(24)])
    assert sizes == [24]
    sizes.clear()
    stress = _mlp_config(hidden_sizes=(256,), num_classes=100, dim=128, per_class=50,
                         epochs=1)
    harness._train_cells([replace(stress, seed=s) for s in range(2)])
    assert sizes == [1, 1]


def test_sweep_momentum_ordering_follows_spectral_radius():
    base = _mlp_config(epochs=300, metric_period=300)
    spec = SweepSpec(kinds=("sgd_coupled",), lrs=(0.05,), momenta=(0.0, 0.9), wds=(0.1,))
    sweep = run_sweep(base, spec)
    finals = {row["momentum"]: row["nc0_alpha"] for row in sweep.rows}
    rho0 = oracles.char_roots(0.0, 0.05, 0.1).spectral_radius
    rho9 = oracles.char_roots(0.9, 0.05, 0.1).spectral_radius
    assert rho9 < rho0
    assert finals[0.9] < finals[0.0]


def test_sweep_outputs_and_round_trip(tmp_path):
    base = _mlp_config(epochs=200, metric_period=100)
    spec = SweepSpec(kinds=("sgd_coupled",), lrs=(0.05,), momenta=(0.0, 0.9),
                     wds=(0.01, 10.0))
    sweep = run_sweep(base, spec)
    text = sweep_summary_csv(sweep)
    header, rows = parse_csv(text)
    assert header == list(harness._SWEEP_COLUMNS)
    assert len(rows) == len(sweep.rows) == 4
    for parsed, raw in zip(rows, sweep.rows):
        assert parsed["kind"] == raw["kind"]
        assert parsed["status"] == raw["status"]
        assert parsed["nc0_alpha"] == raw.get("nc0_alpha")
    # raw rows keep the over-regularized runs; only summaries filter them
    statuses = {row["status"] for row in sweep.rows}
    assert statuses == {"ok", "did_not_train"}
    piv = pivot_csv(sweep, "sgd_coupled", 0.05, "nc0")
    lines = piv.strip().splitlines()
    assert lines[0] == "momentum_wd,0.01,10.0"
    assert len(lines) == 3
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[2] == ""
        assert cells[1] != ""
    with pytest.raises(DomainError):
        pivot_csv(sweep, "sgd_coupled", 0.05, "not_a_metric")
    files = write_sweep_outputs(sweep, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "summary.csv" in names
    assert any(n.startswith("pivot_nc0_") for n in names)
    assert len(files) == 4


def test_regress_rows_exact_line_and_errors():
    rows = []
    for nc0 in (0.1, 0.2, 0.3, 0.4, 0.5):
        rows.append({"status": "ok", "train_acc": 1.0, "nc0": nc0, "nc3": 0.16 * nc0})
    fit = regress_rows(rows)
    assert fit.slope == pytest.approx(0.16, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        regress_rows(rows[:2])
    constant = [{"status": "ok", "train_acc": 1.0, "nc0": 0.3, "nc3": float(i)}
                for i in range(5)]
    with pytest.raises(DomainError):
        regress_rows(constant)
    # rows failing the accuracy filter are invisible to the fit
    filtered = rows + [{"status": "ok", "train_acc": 0.5, "nc0": 9.9, "nc3": -3.0}]
    fit2 = regress_rows(filtered)
    assert fit2.slope == pytest.approx(0.16, rel=1e-12)


def test_pooled_sweep_regression_direction():
    base = _mlp_config(
        epochs=200, metric_period=200,
        optimizer=OptimizerConfig(kind="sgd_coupled", lr=0.05),
    )
    spec = SweepSpec(kinds=("sgd_coupled", "sgd_decoupled"), lrs=(0.05, 0.1),
                     momenta=(0.0, 0.5, 0.9), wds=(0.001, 0.01, 0.05))
    sweep = run_sweep(base, spec)
    fit = regress_runs(sweep)
    assert fit.r_squared > 0.5


def test_emit_summary_json_nulls_non_finite(tmp_path):
    rec = MetricRecord(epoch=1, lr=0.1, train_loss=float("nan"), train_acc=0.25,
                       values={k: (float("inf") if k == "nc0" else None) for k in METRIC_KEYS})
    cfg = _mlp_config(epochs=1)
    result = TrainResult(config=cfg, records=[rec], status="diverged",
                         wall_time=0.0, model=None)
    path = tmp_path / "diverged.json"
    emit_summary_json(result, path)
    summary = json.loads(path.read_text())
    assert summary["final"]["train_loss"] is None
    assert summary["final"]["nc0"] is None
    assert summary["status"] == "diverged"


def test_emit_csv_writes_file(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_check_functions_report_pass():
    res = check_decoupled_rowsum_decay(epochs=60)
    assert res.passed
    assert res.details["logged_alpha_ok"]
    assert res.rows
    res = check_coupled_rowsum_recursion(momentum=0.9, epochs=40)
    assert res.passed
    assert res.details["envelope_ok"]
    res = check_decoupled_sign_plateau(steps=2000)
    assert res.passed
    assert res.details["within_1pct_of_limit"]
    res = check_coupled_sign_oscillation()
    assert res.passed
    assert res.details["family_dev_max"] <= 1e-12


def test_check_functions_report_failure_without_raising():
    res = check_decoupled_sign_plateau(steps=50)
    assert not res.passed
    assert not res.details["within_1pct_of_limit"]


def test_a_trajectory_run_keeps_a_copy_of_the_classifier_every_epoch():
    cfg = _mlp_config(epochs=5, batch_size=20, metric_period=5)
    res = harness._trajectory(cfg)
    assert len(res.weights) == 6
    final = res.model.final_weight
    assert res.weights[-1].tobytes() == final.tobytes()
    assert final.tobytes() == run_training(cfg).model.final_weight.tobytes()
    assert not any(np.shares_memory(w, final) for w in res.weights)
    assert all(not np.array_equal(a, b) for a, b in zip(res.weights, res.weights[1:]))
    assert run_training(_mlp_config(epochs=2)).weights is None


def _params_before_each_step(monkeypatch) -> list:
    """Copies of the one cell's parameters, taken before every optimizer
    step: in full batch, entry e holds the parameters at epoch e."""
    seen = []
    real = optim.Optimizer.step

    def step(self, grads):
        seen.append([p[0].copy() for p in self.params])
        return real(self, grads)

    monkeypatch.setattr(optim.Optimizer, "step", step)
    return seen


def _row_bits(record) -> list:
    return [None if v is None else repr(float(v)) for v in record.to_row()]


@pytest.mark.parametrize("kind, lr", [("mlp", 0.05), ("ufm", 0.05), ("mlp", 1e8)])
def test_full_batch_records_equal_fresh_snapshots_of_their_parameters(monkeypatch, kind, lr):
    # A full-batch snapshot reads the next step's forward pass; the fresh
    # snapshot here recomputes the features and the loss from the parameters
    # of its epoch. lr = 1e8 diverges in epoch 4, whose pass also feeds the
    # snapshot owed at epoch 4; the last record is the diagnostic.
    opt = OptimizerConfig(kind="sgd_coupled", lr=lr, momentum=0.9)
    if kind == "mlp":
        cfg = _mlp_config(epochs=7, metric_period=2, optimizer=opt)
    else:
        cfg = ExperimentConfig(model_kind="ufm", num_classes=4, dim=6, per_class=3, epochs=7,
                               metric_period=2, optimizer=opt)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = weight_trajectory(cfg)
        seen = _params_before_each_step(monkeypatch)
        res = run_training(cfg)
        assert res.status == ("diverged" if lr > 1.0 else "ok")
        labels = harness._setup(cfg).labels
        for rec in res.records:
            params = seen[rec.epoch] if rec.epoch < len(seen) else res.model.parameters()
            if kind == "mlp":
                model = MLPModel(params[0:-1:2], params[1:-1:2], params[-1])
                feats = model.features(res.dataset.features)
            else:
                feats = params[0]
            w = weights[rec.epoch]
            assert w.tobytes() == params[-1].tobytes()
            fresh = snapshot(rec.epoch, rec.lr, w, metrics.LabeledFeatures(feats, labels, 4),
                             one_hot(labels, 4))
            assert _row_bits(rec) == _row_bits(fresh)
    assert [rec.epoch for rec in res.records] == ([0, 2, 4, 5] if lr > 1.0 else [0, 2, 4, 6, 7])
    assert math.isfinite(res.records[-1].train_loss) == (lr < 1.0)


def _fixed_input_configs(case) -> list:
    """Configs of one stack whose features are its fixed input: the frame of
    ufm_fixed_features, or the blobs of an mlp with no hidden layer."""
    if case == "oscillation":
        return [_ufm_sign_config("signgd_coupled", 0.1, 0.5, 40, schedule="oscillation_decay",
                                 metric_period=3)]
    if case == "mlp_no_hidden_minibatch":
        return [_mlp_config(hidden_sizes=(), epochs=5, metric_period=2, batch_size=30)]
    opt = OptimizerConfig(kind="sgd_coupled", lr=0.5, momentum=0.9)
    base = ExperimentConfig(model_kind="ufm_fixed_features", num_classes=4, epochs=7,
                            metric_period=2, optimizer=opt)
    if case != "sweep_stack":
        return [replace(base, init=case)]
    sign = OptimizerConfig(kind="signgd_decoupled", lr=0.1, decoupled_wd=0.5)
    return [replace(base, init="gaussian", seed=seed, optimizer=o)
            for seed, o in enumerate((opt, sign, replace(opt, lr=0.05), sign))]


@pytest.mark.parametrize("case", ["zero", "gaussian", "sweep_stack", "oscillation",
                                  "mlp_no_hidden_minibatch"])
def test_fixed_input_records_equal_fresh_snapshots_of_their_weights(case):
    # Every cell and snapshot of such a stack reads one LabeledFeatures; the
    # fresh snapshot here builds its own over the same features.
    configs = _fixed_input_configs(case)
    grid = harness._setup(configs[0])
    assert grid.fixed is not None
    assert harness._STACK_BUDGET_BYTES // grid.cell_bytes >= len(configs)   # one stack
    k = configs[0].num_classes
    results = harness._train_cells(configs)
    trajectories = harness._train_cells(configs, trajectory=True)
    for cfg, res, trajectory in zip(configs, results, trajectories):
        assert isinstance(res, TrainResult)
        weights = trajectory.weights
        assert [rec.epoch for rec in res.records] == sorted(
            set(range(0, cfg.epochs, cfg.metric_period)) | {cfg.epochs})
        for rec in res.records:
            fresh = snapshot(rec.epoch, rec.lr, weights[rec.epoch],
                             metrics.LabeledFeatures(grid.fixed.copy(), grid.labels, k),
                             one_hot(grid.labels, k))
            assert _row_bits(rec) == _row_bits(fresh)


def _count_calls(monkeypatch, counts, module, name, seen=None):
    """Count the calls of module.name under ``name``, through every nc_lab
    module that holds it; ``seen`` collects the return values."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        out = real(*args, **kwargs)
        if seen is not None:
            seen.append(out)
        return out

    for mod in (metrics, harness):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)


def _count_mean_svds(monkeypatch, counts):
    """Count the thin SVDs, which only compute_class_statistics makes (of
    the centered means); singular_values asks for no vectors."""
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        if kwargs.get("full_matrices", True) is False:
            counts["svd"] = counts.get("svd", 0) + 1
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)


@pytest.mark.parametrize("cells", [1, 3])
def test_a_fixed_input_stack_computes_its_feature_side_metrics_once(monkeypatch, cells):
    opt = OptimizerConfig(kind="sgd_coupled", lr=0.5, momentum=0.9)
    configs = [ExperimentConfig(model_kind="ufm_fixed_features", init="gaussian", seed=seed,
                                num_classes=4, epochs=9, metric_period=3, optimizer=opt)
               for seed in range(cells)]
    counts = {}
    for name in ("_nearest_mean", "all_metrics", "compute_class_statistics", "nc2_structure",
                 "nc2_norms", "nc2_angles", "nc4_agreement"):
        _count_calls(monkeypatch, counts, metrics, name)
    _count_mean_svds(monkeypatch, counts)
    results = harness._train_cells(configs)
    snapshots = sum(len(res.records) for res in results)
    assert snapshots == 4 * cells           # epochs 0, 3, 6 and 9
    # Every snapshot of the stack waits for one stacked pass at the end.
    assert counts == {
        "_nearest_mean": 1,
        "svd": 1,
        "all_metrics": 1,
        # once in all_metrics and once for the snapshots' sigma_*_m
        "compute_class_statistics": 2,
        # with the class statistics, once per stack
        "nc2_structure": 1,
        "nc2_norms": 1,
        "nc2_angles": 1,
        "nc4_agreement": 1,
    }


def _flush_configs(case) -> list:
    """One fixed-input stack: the benchmark's oscillation frame at K = 10,
    or two cells on blobs at margin 1e100, one of which (or both) diverges
    at its first step."""
    if case == "oscillation":
        return [_ufm_sign_config("signgd_coupled", 0.001, 0.01, 500, k=10, metric_period=10,
                                 schedule="oscillation_decay")]
    lrs = (1e120, 1e120 if case == "all_diverge" else 1e-200)
    return [_mlp_config(hidden_sizes=(), num_classes=3, dim=4, per_class=5, margin=1e100,
                        epochs=9, metric_period=2, seed=seed,
                        optimizer=OptimizerConfig(kind="sgd_coupled", lr=lr, momentum=0.9))
            for seed, lr in enumerate(lrs)]


@pytest.mark.parametrize("case, capacity, passes, epochs", [
    ("oscillation", 7, 8, [list(range(0, 501, 10))]),
    ("oscillation", 1, 51, [list(range(0, 501, 10))]),
    ("diverge", 1, 8, [[0, 2], [0, 2, 4, 6, 8, 9]]),
    ("all_diverge", 3, 2, [[0, 2], [0, 2]]),
])
def test_a_fixed_input_stack_records_the_same_bytes_at_any_flush_bound(
        monkeypatch, case, capacity, passes, epochs):
    """A fixed-input stack keeps its owed snapshots until one stacked pass
    records them: when ``capacity`` snapshots wait (the bound on the pass's
    largest temporary, K x max(p, N, K) float64 each), before a stack whose
    cells have all diverged returns, and at the end. Any bound gives the
    records and CSV bytes of the single pass at the default bound."""
    configs = _flush_configs(case)
    grid = harness._setup(configs[0])
    k = configs[0].num_classes
    with np.errstate(all="ignore"):
        once = harness._train_cells(configs)
        counts = {}
        _count_calls(monkeypatch, counts, metrics, "all_metrics")
        monkeypatch.setattr(harness, "_FLUSH_BYTES", capacity * 8 * k * max(*grid.fixed.shape, k))
        flushed = harness._train_cells(configs)
    assert counts["all_metrics"] == passes
    assert [[rec.epoch for rec in res.records] for res in flushed] == epochs
    for a, b in zip(once, flushed):
        assert a.status == b.status
        assert [_row_bits(rec) for rec in a.records] == [_row_bits(rec) for rec in b.records]
        assert format_metric_csv(a.records) == format_metric_csv(b.records)


def test_coincident_fixed_class_means_skip_nc2_in_every_snapshot(monkeypatch):
    # margin 0 and noise 0 put every blob at the origin: the class means
    # coincide, so the stack's one ClassStatistics holds None for nc2, nc2n
    # and nc2a, and every snapshot, not only the first, lists them as skipped.
    counts, passes = {}, []
    _count_calls(monkeypatch, counts, metrics, "all_metrics", passes)
    res = run_training(_mlp_config(hidden_sizes=(), margin=0.0, noise_std=0.0, epochs=6,
                                   metric_period=2))
    (bundles,) = passes                     # one stacked pass for the four snapshots
    assert len(bundles) == len(res.records) == 4
    for bundle, rec in zip(bundles, res.records):
        assert {"nc2", "nc2n", "nc2a"} <= set(bundle["flags"]["skipped"])
        assert bundle["flags"]["sigma_b_degenerate"]
        assert rec.values["nc2"] is rec.values["nc2n"] is rec.values["nc2a"] is None


@pytest.mark.parametrize("batch_size, calls", [(None, 1), (20, 4)])
def test_only_the_final_full_batch_snapshot_computes_features(monkeypatch, batch_size, calls):
    counted = []
    real = MLPModel.features

    def features(self, x):
        counted.append(x.shape)
        return real(self, x)

    monkeypatch.setattr(MLPModel, "features", features)
    res = run_training(_mlp_config(epochs=7, metric_period=3, batch_size=batch_size))
    assert len(res.records) == 4
    assert len(counted) == calls


def test_sign_plateau_check_trains_through_the_optimizer_table(monkeypatch):
    """Check 3 steps through optim's step functions, so a coupled step in
    the decoupled slot fails it."""
    monkeypatch.setattr(optim, "step_signgd_decoupled", optim.step_signgd_coupled)
    res = check_decoupled_sign_plateau()
    assert not res.passed
    assert max(row[4] for row in res.rows) > 1e-9


def test_sign_oscillation_check_trains_through_the_optimizer_table(monkeypatch):
    monkeypatch.setattr(optim, "step_signgd_coupled", optim.step_signgd_decoupled)
    res = check_coupled_sign_oscillation(k=5, lr=0.05)
    assert not res.passed
    assert res.details["scalar_dev_max"] > 1e-12


def test_rowsum_checks_train_through_the_optimizer_table(monkeypatch):
    """Checks 1 and 2 step through optim's step functions, so swapping the
    coupled and decoupled SGD steps fails both."""
    coupled, decoupled = optim.step_sgd_coupled, optim.step_sgd_decoupled
    monkeypatch.setattr(optim, "step_sgd_decoupled", coupled)
    monkeypatch.setattr(optim, "step_sgd_coupled", decoupled)
    res = check_decoupled_rowsum_decay()
    assert not res.passed
    assert max(row[4] for row in res.rows) > 1e-9
    res = check_coupled_rowsum_recursion()
    assert not res.passed
    assert res.details["max_coord_err"] > 1e-9


def test_coupled_rowsum_check_compares_each_coordinate(monkeypatch):
    """Negated row sums keep every alpha, so only the per-coordinate
    comparison of check 2 can fail them."""
    recursion = oracles.rowsum_recursion_coupled
    monkeypatch.setattr(oracles, "rowsum_recursion_coupled",
                        lambda *args, **kwargs: [-m for m in recursion(*args, **kwargs)])
    res = check_coupled_rowsum_recursion(epochs=20)
    assert not res.passed
    assert res.details["max_coord_err"] > 1e-9
    assert max(row[4] for row in res.rows) <= 1e-9


@pytest.mark.parametrize("check", [check_decoupled_rowsum_decay,
                                   check_coupled_rowsum_recursion])
def test_rowsum_checks_fail_on_a_wrong_logged_alpha(monkeypatch, check):
    """The nc0_alpha each snapshot logs is held to the closed form too."""
    alpha = metrics.nc0_alpha
    monkeypatch.setattr(metrics, "nc0_alpha", lambda w: alpha(w) * (1.0 + 1e-6))
    res = check()
    assert not res.passed
    assert res.details["logged_alpha_ok"] is False


def test_theorem_checks_make_no_full_metric_pass(monkeypatch):
    """Checks 1-3 read only the loss, accuracy and nc0_alpha of a record,
    so their snapshots run no metric suite, class statistics or SVD; a plain
    run of the checks' MLP setting still runs the suite once per snapshot."""
    counts = {}
    for name in ("all_metrics", "compute_class_statistics"):
        _count_calls(monkeypatch, counts, metrics, name)
    _count_mean_svds(monkeypatch, counts)
    for check in (check_decoupled_rowsum_decay, check_coupled_rowsum_recursion,
                  check_decoupled_sign_plateau):
        assert check().passed
    assert counts == {}
    res = run_training(replace(harness._CHECK_MLP, epochs=20, metric_period=5))
    assert len(res.records) == 5
    assert counts == {"all_metrics": 5, "compute_class_statistics": 10, "svd": 5}


def _record_head(rec) -> str:
    """The fields a trajectory record shares with the full one, as text
    that tells apart every float bit pattern but NaN payloads."""
    return repr((rec.epoch, rec.lr, rec.train_loss, rec.train_acc, rec.values["nc0_alpha"]))


@pytest.mark.parametrize("config", [
    replace(harness._CHECK_MLP, epochs=300, metric_period=1, optimizer=OptimizerConfig(
        kind="sgd_decoupled", lr=0.05, momentum=0.9, decoupled_wd=0.1)),
    replace(harness._CHECK_MLP, epochs=300, batch_size=10, metric_period=10,
            optimizer=OptimizerConfig(kind="sgd_coupled", lr=0.05, momentum=0.9,
                                      coupled_wd=0.1)),
    _ufm_sign_config("signgd_decoupled", 0.1, 0.5, steps=60, k=10, metric_period=7),
], ids=["check-1", "check-2", "ufm-sign"])
def test_a_trajectory_run_logs_the_full_runs_loss_accuracy_and_alpha(config):
    full = run_training(config)
    alpha = harness._trajectory(config)
    assert alpha.status == full.status == "ok"
    assert len(alpha.weights) == config.epochs + 1
    assert ([a.tobytes() for a in alpha.model.parameters()]
            == [a.tobytes() for a in full.model.parameters()])
    assert [_record_head(rec) for rec in alpha.records] == [
        _record_head(rec) for rec in full.records]
    assert all(rec.values["nc0_alpha"] is not None for rec in full.records)
    for rec in alpha.records:
        assert list(rec.values) == list(METRIC_KEYS)
        assert [rec.values[key] for key in METRIC_KEYS if key != "nc0_alpha"] == [None] * (
            len(METRIC_KEYS) - 1)
        assert rec.sigma_min_w is rec.sigma_avg_w is rec.sigma_min_m is rec.sigma_avg_m is None


def test_a_diverged_trajectory_run_logs_the_alpha_the_full_run_leaves_blank():
    # Once the class statistics overflow, the full record blanks every
    # metric; the trajectory record still logs nc0_alpha of W.
    cfg = _mlp_config(epochs=10, metric_period=2,
                      optimizer=OptimizerConfig(kind="sgd_coupled", lr=1e8, momentum=0.9))
    with np.errstate(all="ignore"):
        full = run_training(cfg)
        alpha = harness._trajectory(cfg)
    assert full.status == alpha.status == "diverged"
    assert full.records[-1].values["nc0_alpha"] is None
    assert len(alpha.weights) == alpha.records[-1].epoch + 1
    assert alpha.records[-1].values["nc0_alpha"] == metrics.nc0_alpha(alpha.weights[-1])
    for full_rec, alpha_rec in zip(full.records, alpha.records):
        if full_rec.values["nc0_alpha"] is not None:
            assert _record_head(alpha_rec) == _record_head(full_rec)


@pytest.mark.parametrize("output", ["output_csv", "output_summary"])
def test_only_run_training_writes_a_runs_outputs(tmp_path, output):
    """run_training takes the config alone; a check's trajectory run of a
    config with an output path writes nothing there."""
    assert list(inspect.signature(run_training).parameters) == ["config"]
    path = tmp_path / "out"
    cfg = replace(_ufm_sign_config("signgd_decoupled", 0.1, 0.5, steps=4), **{output: str(path)})
    harness._trajectory(cfg)
    assert not path.exists()
    run_training(cfg)
    assert path.exists()


def test_checks_bind_no_step_function():
    """Only the training loop steps a weight matrix."""
    names = vars(harness)
    assert [name for name in names if name.startswith("step_")] == []
    assert "OptimizerState" not in names
    assert "islice" not in names


def test_coupled_sign_check_rejects_non_positive_wd_and_tol():
    with pytest.raises(DomainError):
        check_coupled_sign_oscillation(wd=0.0)
    with pytest.raises(DomainError):
        check_coupled_sign_oscillation(tol=0.0)
