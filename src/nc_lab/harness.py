"""Experiment driver: single training runs, hyperparameter sweeps, metric
logging, and the closed-form consistency checks exposed on the command line.

A run is described by an ExperimentConfig (parseable from a flat key=value
text file), executes deterministically given its seeds, and logs a
MetricRecord per evaluation epoch. Sweeps fan a base config across optimizer
grids and aggregate final records into summary and pivot tables. The
check_* functions train a model and compare the measured classifier row-sum
trajectory against the matching closed form from the oracles module.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Optional

import numpy as np

from . import oracles
from .errors import BudgetExceededError, DomainError, NumericError
from .linalg import singular_values
from .metrics import (
    METRIC_KEYS,
    LabeledFeatures,
    all_metrics,
    compute_class_statistics,
    nc0_alpha,
)
from .models import MLPModel, UFMModel, ce_loss_from_logits, make_blob_dataset, one_hot
from .optim import (
    _COUPLED_ONLY,
    _DECOUPLED_ONLY,
    LRSchedule,
    Optimizer,
    OptimizerConfig,
    OptimizerState,
    lr_at,
    step_signgd_coupled,
    step_signgd_decoupled,
)
from .stats import RegressionFit, ols_fit

__all__ = [
    "CSV_COLUMNS",
    "CSV_HEADER",
    "ExperimentConfig",
    "parse_config_text",
    "config_from_mapping",
    "config_to_mapping",
    "load_config",
    "MetricRecord",
    "format_metric_csv",
    "parse_metric_csv",
    "emit_csv",
    "emit_summary_json",
    "TrainResult",
    "run_training",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "sweep_summary_csv",
    "parse_sweep_summary_csv",
    "pivot_csv",
    "write_sweep_outputs",
    "regress_rows",
    "regress_runs",
    "CheckResult",
    "check_decoupled_rowsum_decay",
    "check_coupled_rowsum_recursion",
    "check_decoupled_sign_plateau",
    "check_coupled_sign_oscillation",
    "THEOREM_CHECKS",
]

MODEL_KINDS = ("ufm", "ufm_fixed_features", "mlp")

CSV_COLUMNS = (
    ("epoch", "lr", "train_loss", "train_acc")
    + METRIC_KEYS
    + ("sigma_min_w", "sigma_avg_w", "sigma_min_m", "sigma_avg_m")
)
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one training run."""

    model_kind: str = "ufm"
    hidden_sizes: tuple = (16, 16)
    init_scale: float = 0.1
    init: str = "default"            # default | gaussian | zero
    num_classes: int = 4
    dim: int = 8
    per_class: int = 25
    data_seed: int = 0
    margin: float = 1.0
    noise_std: float = 1.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 100
    batch_size: Optional[int] = None  # None = full batch
    seed: int = 0
    metric_period: int = 10
    output_csv: Optional[str] = None
    output_summary: Optional[str] = None

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {self.model_kind!r}")
        if self.init not in ("default", "gaussian", "zero"):
            raise DomainError(f"unknown init {self.init!r}")
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")
        if self.metric_period < 1:
            raise DomainError("metric_period must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise DomainError("batch_size must be >= 1 (or omitted for full batch)")
        if self.model_kind == "mlp" and self.init == "zero":
            raise DomainError("zero init leaves a rectifier network without gradient flow")


# Dotted config key -> (target, caster). A target "name" is an
# ExperimentConfig field, "optimizer.name" an OptimizerConfig field and
# "schedule.name" an LRSchedule field.
_CONFIG_CASTS: dict = {
    "model.kind": ("model_kind", str),
    "model.hidden_sizes": ("hidden_sizes", "int_tuple"),
    "model.init_scale": ("init_scale", float),
    "model.init": ("init", str),
    "data.k": ("num_classes", int),
    "data.d": ("dim", int),
    "data.per_class": ("per_class", int),
    "data.seed": ("data_seed", int),
    "data.margin": ("margin", float),
    "data.noise_std": ("noise_std", float),
    "optimizer.kind": ("optimizer.kind", str),
    "optimizer.lr": ("optimizer.lr", float),
    "optimizer.momentum": ("optimizer.momentum", float),
    "optimizer.beta2": ("optimizer.beta2", float),
    "optimizer.eps": ("optimizer.eps", float),
    "optimizer.coupled_wd": ("optimizer.coupled_wd", float),
    "optimizer.decoupled_wd": ("optimizer.decoupled_wd", float),
    "optimizer.total_wd": ("optimizer.total_wd", float),
    "optimizer.schedule": ("schedule.kind", str),
    "optimizer.decay_factor": ("schedule.decay_factor", float),
    "optimizer.milestone_fractions": ("schedule.milestone_fractions", "fraction_tuple"),
    "optimizer.shrink_factor": ("schedule.shrink_factor", float),
    "train.epochs": ("epochs", int),
    "train.batch_size": ("batch_size", "batch"),
    "train.seed": ("seed", int),
    "train.metric_period": ("metric_period", int),
    "output.csv": ("output_csv", str),
    "output.summary": ("output_summary", str),
}


def _parse_fraction(text: str) -> float:
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def _cast_value(key: str, caster, raw: str):
    try:
        if caster == "int_tuple":
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        if caster == "fraction_tuple":
            return tuple(_parse_fraction(p.strip()) for p in raw.split(",") if p.strip() != "")
        if caster == "batch":
            return None if raw.strip().lower() == "full" else int(raw)
        return caster(raw)
    except ValueError as exc:
        raise DomainError(f"config key {key}: cannot parse {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; ``#`` starts a comment; blank lines ignored."""
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise DomainError(f"config line {lineno}: empty key or value")
        if key in mapping:
            raise DomainError(f"config line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _unread_keys(model_kind, keys) -> list:
    """The config keys a model kind does not read: ufm_fixed_features builds
    its square geometry from data.k alone."""
    if model_kind != "ufm_fixed_features":
        return []
    return sorted(key for key in keys if key.startswith("data.") and key != "data.k")


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Config from dotted keys. Only the keys the mapping sets are passed on,
    so every default lives in its dataclass."""
    unknown = sorted(set(mapping) - set(_CONFIG_CASTS))
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    parts = {"": {}, "optimizer": {}, "schedule": {}}
    for key, raw in mapping.items():
        target, caster = _CONFIG_CASTS[key]
        part, _, name = target.rpartition(".")
        parts[part][name] = _cast_value(key, caster, raw)
    kwargs, opt, schedule = parts[""], parts["optimizer"], parts["schedule"]
    unread = _unread_keys(kwargs.get("model_kind"), mapping)
    if unread:
        raise DomainError(f"ufm_fixed_features builds the square K x K geometry and "
                          f"reads no {', '.join(unread)}")
    if "lr" in opt:
        schedule["base_lr"] = opt["lr"]
    if schedule:
        opt["schedule"] = LRSchedule(**schedule)
    if opt:
        kwargs["optimizer"] = OptimizerConfig(**opt)
    return ExperimentConfig(**kwargs)


def config_to_mapping(config: ExperimentConfig) -> dict:
    """Dotted-key echo of a config (used in JSON summaries), without the keys
    its model kind does not read, so config_from_mapping accepts it."""
    opt = config.optimizer
    sched = opt.schedule
    out = {
        "model.kind": config.model_kind,
        "model.hidden_sizes": ",".join(str(h) for h in config.hidden_sizes),
        "model.init_scale": config.init_scale,
        "model.init": config.init,
        "data.k": config.num_classes,
        "data.d": config.dim,
        "data.per_class": config.per_class,
        "data.seed": config.data_seed,
        "data.margin": config.margin,
        "data.noise_std": config.noise_std,
        "optimizer.kind": opt.kind,
        "optimizer.lr": sched.base_lr,
        "optimizer.momentum": opt.momentum,
        "optimizer.beta2": opt.beta2,
        "optimizer.eps": opt.eps,
        "optimizer.coupled_wd": opt.coupled_wd,
        "optimizer.decoupled_wd": opt.decoupled_wd,
        "optimizer.schedule": sched.kind,
        "train.epochs": config.epochs,
        "train.batch_size": "full" if config.batch_size is None else config.batch_size,
        "train.seed": config.seed,
        "train.metric_period": config.metric_period,
    }
    if sched.kind == "step_decay":
        out["optimizer.decay_factor"] = sched.decay_factor
        out["optimizer.milestone_fractions"] = ",".join(
            repr(f) for f in sched.milestone_fractions
        )
    if sched.kind == "oscillation_decay":
        out["optimizer.shrink_factor"] = sched.shrink_factor
    for key in _unread_keys(config.model_kind, out):
        del out[key]
    return out


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))


@dataclass
class MetricRecord:
    """One evaluation snapshot: losses, the full metric bundle, and the
    singular-value summaries of W and the centered class means."""

    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    values: dict
    sigma_min_w: Optional[float] = None
    sigma_avg_w: Optional[float] = None
    sigma_min_m: Optional[float] = None
    sigma_avg_m: Optional[float] = None

    def to_row(self) -> list:
        row = [self.epoch, self.lr, self.train_loss, self.train_acc]
        row.extend(self.values.get(k) for k in METRIC_KEYS)
        row.extend([self.sigma_min_w, self.sigma_avg_w, self.sigma_min_m, self.sigma_avg_m])
        return row


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def format_metric_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_format_cell(v) for v in rec.to_row()))
    return "\n".join(lines) + "\n"


def parse_metric_csv(text: str):
    """Inverse of format_metric_csv; empty fields come back as None."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError("metric CSV header does not match the expected columns")
    records = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise DomainError(f"metric CSV row has {len(cells)} fields, expected {len(CSV_COLUMNS)}")
        def cell(i):
            return None if cells[i] == "" else float(cells[i])
        values = {k: cell(4 + j) for j, k in enumerate(METRIC_KEYS)}
        base = 4 + len(METRIC_KEYS)
        records.append(
            MetricRecord(
                epoch=int(cells[0]),
                lr=float(cells[1]),
                train_loss=float(cells[2]),
                train_acc=float(cells[3]),
                values=values,
                sigma_min_w=cell(base),
                sigma_avg_w=cell(base + 1),
                sigma_min_m=cell(base + 2),
                sigma_avg_m=cell(base + 3),
            )
        )
    return records


def emit_csv(records, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_metric_csv(records))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _jsonable(value):
    if value is None or isinstance(value, (str, bool, int)):
        return value
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        return None
    return v


def emit_summary_json(result: "TrainResult", path) -> None:
    rec = result.records[-1] if result.records else None
    final = None
    if rec is not None:
        final = {name: _jsonable(v) for name, v in zip(CSV_COLUMNS, rec.to_row())}
    payload = {
        "config": {k: _jsonable(v) if not isinstance(v, str) else v
                   for k, v in config_to_mapping(result.config).items()},
        "status": result.status,
        "wall_time_s": result.wall_time,
        "num_records": len(result.records),
        "final": final,
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write summary to {path}: {exc}") from exc


@dataclass
class TrainResult:
    config: ExperimentConfig
    records: list
    status: str                      # ok | diverged | did_not_train
    wall_time: float
    model: object
    dataset: object = None
    rowsums: Optional[list] = None   # (epoch, W^T 1) pairs when collected


def _snapshot(epoch, lr_value, weight, feats, labels, num_classes, loss, acc) -> MetricRecord:
    try:
        data = LabeledFeatures(feats, labels, num_classes)
        bundle = all_metrics(weight, data)
        values = {k: bundle[k] for k in METRIC_KEYS}
        sv_w = singular_values(weight)
        stats_obj = compute_class_statistics(data)
        sv_m = singular_values(stats_obj.centered_means)
        sigma_min_w = float(sv_w[-1])
        sigma_avg_w = float(sv_w[:-1].mean()) if sv_w.size > 1 else None
        sigma_min_m = float(sv_m[-1])
        sigma_avg_m = float(sv_m[:-1].mean()) if sv_m.size > 1 else None
    except (DomainError, NumericError):
        values = {k: None for k in METRIC_KEYS}
        sigma_min_w = sigma_avg_w = sigma_min_m = sigma_avg_m = None
    return MetricRecord(
        epoch=epoch,
        lr=lr_value,
        train_loss=loss,
        train_acc=acc,
        values=values,
        sigma_min_w=sigma_min_w,
        sigma_avg_w=sigma_avg_w,
        sigma_min_m=sigma_min_m,
        sigma_avg_m=sigma_avg_m,
    )


def _loss_and_accuracy(weight, feats, targets, labels):
    """Full-data loss and accuracy from one logits product."""
    logits = weight @ feats
    acc = float(np.mean(np.argmax(logits, axis=0) == labels))
    return ce_loss_from_logits(logits, targets), acc


def _status_from_records(records, epochs: int, num_classes: int) -> str:
    """"did_not_train" when accuracy never clears chance + 0.05 in the last
    80% of training."""
    threshold = 1.0 / num_classes + 0.05
    cutoff = 0.2 * epochs
    late = [r for r in records if r.epoch >= cutoff]
    if late and all(r.train_acc <= threshold for r in late):
        return "did_not_train"
    return "ok"


@dataclass
class _Trainee:
    """A model as the training loop sees it, whatever its kind."""

    model: object
    dataset: object
    labels: np.ndarray
    targets: np.ndarray    # one-hot K x N
    params: list
    grads: Callable        # batch columns (None = full batch) -> (loss, gradient list)
    features: Callable     # () -> full-data features
    weight: Callable       # () -> classifier W
    sync: Callable         # parameter list -> None


def _setup(config: ExperimentConfig) -> _Trainee:
    """Build the data and model a config names. This is the one place that
    branches on the model kind."""
    k = config.num_classes
    if config.model_kind == "mlp":
        dataset = make_blob_dataset(
            k, config.dim, config.per_class,
            margin=config.margin, seed=config.data_seed, noise_std=config.noise_std,
        )
        model = MLPModel.create(
            config.dim, config.hidden_sizes, k,
            seed=config.seed, init_scale=config.init_scale,
        )
        x_full, labels = dataset.features, dataset.labels
        y_full = one_hot(labels, k)
        every = np.arange(labels.shape[0])

        def mlp_grads(cols):
            # A full batch gathers every column too: the golden CSVs pin the
            # result bits of that Fortran-ordered copy.
            cols = every if cols is None else cols
            loss, grads, _ = model.forward_backward(x_full[:, cols], y_full[:, cols])
            return loss, grads

        return _Trainee(model, dataset, labels, y_full, model.parameters(), mlp_grads,
                        lambda: model.features(x_full), lambda: model.final_weight,
                        model.set_parameters)

    if config.model_kind == "ufm":
        model = UFMModel.create(
            k, config.dim, config.per_class,
            seed=config.seed, init_scale=config.init_scale,
        )
        if config.init == "zero":
            model.W = np.zeros_like(model.W)
    else:
        if config.batch_size not in (None, k):
            raise DomainError("ufm_fixed_features trains full batch only")
        init = "gaussian" if config.init == "gaussian" else "zero"
        model = UFMModel.fixed_features(
            k, init=init, seed=config.seed, init_scale=config.init_scale,
        )

    def ufm_grads(cols):
        loss, grad_w, grad_h = model.loss_and_grads(cols)
        if grad_h is None:
            return loss, [grad_w]
        if cols is not None:
            gh = np.zeros_like(model.H)
            gh[:, cols] = grad_h
            grad_h = gh
        return loss, [grad_w, grad_h]

    def ufm_sync(params):
        model.W = params[0]
        if model.feature_trainable:
            model.H = params[1]

    params = [model.W, model.H] if model.feature_trainable else [model.W]
    return _Trainee(model, None, model.labels, model.Y, params, ufm_grads,
                    lambda: model.H, lambda: model.W, ufm_sync)


def _oscillation_step_sizes(config: ExperimentConfig):
    """Step size of each epoch under oscillation_decay: the eta of the coupled
    (a, b) sign dynamics, which shrinks whenever its detector fires."""
    schedule = config.optimizer.schedule
    k = config.num_classes
    yield schedule.base_lr
    for state, _ in oracles.coupled_signgd_steps(
            k, k, schedule.base_lr, config.optimizer.coupled_wd, schedule.shrink_factor):
        yield state.eta


def run_training(config: ExperimentConfig, collect_rowsums: bool = False) -> TrainResult:
    """Train per the config, logging metrics every metric_period epochs.

    Mini-batch order is seeded and deterministic. A non-finite loss aborts
    the run with a final diagnostic record and status "diverged". The
    oscillation_decay schedule takes each epoch's step size from the (a, b)
    dynamics of coupled sign descent on the square frozen-feature geometry
    from W = 0, so it is rejected for any other model, optimizer or init.
    """
    start = time.perf_counter()
    schedule = config.optimizer.schedule
    if schedule.kind == "oscillation_decay":
        if config.model_kind != "ufm_fixed_features" or config.optimizer.kind != "signgd_coupled":
            raise DomainError(
                "oscillation_decay requires the square frozen-feature geometry with "
                "coupled sign descent"
            )
        if config.init == "gaussian":
            raise DomainError("oscillation_decay starts from W = 0; a gaussian init breaks "
                              "the (a, b) dynamics")
        step_sizes = _oscillation_step_sizes(config)
    else:
        step_sizes = (lr_at(schedule, e, config.epochs) for e in range(config.epochs))

    k = config.num_classes
    run = _setup(config)
    labels = run.labels
    n = labels.shape[0]
    if config.batch_size is not None and config.batch_size > n:
        raise DomainError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    batch = n if config.batch_size is None else config.batch_size
    full_batch = batch >= n
    shuffle_rng = np.random.default_rng([config.seed, 1])

    def snapshot(epoch, lr_value):
        feats = run.features()
        loss, acc = _loss_and_accuracy(run.weight(), feats, run.targets, labels)
        return _snapshot(epoch, lr_value, run.weight(), feats, labels, k, loss, acc)

    params = run.params
    opt = Optimizer(config.optimizer, params)
    records = [snapshot(0, lr_at(schedule, 0, config.epochs))]
    rowsums = [(0, run.weight().sum(axis=0).copy())] if collect_rowsums else None
    diverged = False

    for epoch, lr_value in zip(range(config.epochs), step_sizes):
        if full_batch:
            batches = [None]
        else:
            perm = shuffle_rng.permutation(n)
            batches = [perm[i:i + batch] for i in range(0, n, batch)]
        for idx in batches:
            loss, grads = run.grads(idx)
            if not math.isfinite(loss):
                diverged = True
                break
            params = opt.step(params, grads, lr_value)
            run.sync(params)
        if collect_rowsums:
            rowsums.append((epoch + 1, run.weight().sum(axis=0).copy()))
        is_last = epoch + 1 == config.epochs
        if diverged or (epoch + 1) % config.metric_period == 0 or is_last:
            records.append(snapshot(epoch + 1, lr_value))
        if diverged:
            break

    status = "diverged" if diverged else _status_from_records(records, config.epochs, k)
    result = TrainResult(
        config=config,
        records=records,
        status=status,
        wall_time=time.perf_counter() - start,
        model=run.model,
        dataset=run.dataset,
        rowsums=rowsums,
    )
    if config.output_csv:
        emit_csv(records, config.output_csv)
    if config.output_summary:
        emit_summary_json(result, config.output_summary)
    return result


# --- sweeps ---


@dataclass
class SweepSpec:
    """Grids for the optimizer axes of a sweep."""

    kinds: tuple = ("sgd_coupled",)
    lrs: tuple = (0.1,)
    momenta: tuple = (0.0,)
    wds: tuple = (0.0,)
    accuracy_threshold: float = 0.99
    base_seed: int = 0

    def __post_init__(self):
        for name in ("kinds", "lrs", "momenta", "wds"):
            if len(getattr(self, name)) == 0:
                raise DomainError(f"sweep grid {name} must be non-empty")


def derive_run_seed(base_seed: int, kind: str, lr: float, momentum: float, wd: float) -> int:
    """Stable per-run seed from the base seed and grid coordinates."""
    text = f"{base_seed}|{kind}|{lr!r}|{momentum!r}|{wd!r}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _wd_fields(kind: str, wd: float) -> dict:
    if kind in _COUPLED_ONLY:
        return {"coupled_wd": wd}
    if kind in _DECOUPLED_ONLY:
        return {"decoupled_wd": wd}
    # interpolated kind: split the budget evenly across both styles
    return {"coupled_wd": wd / 2.0, "decoupled_wd": wd / 2.0}


@dataclass
class SweepResult:
    spec: SweepSpec
    base_config: ExperimentConfig
    rows: list
    results: list


def run_sweep(base_config: ExperimentConfig, spec: SweepSpec) -> SweepResult:
    """Run the full grid. A cell that fails with a DomainError, NumericError or
    BudgetExceededError becomes an ``error`` row and the sweep goes on; any
    other exception is a bug and propagates."""
    rows = []
    results = []
    base_sched = base_config.optimizer.schedule
    for kind in spec.kinds:
        for lr in spec.lrs:
            for momentum in spec.momenta:
                for wd in spec.wds:
                    seed = derive_run_seed(spec.base_seed, kind, lr, momentum, wd)
                    row = {
                        "kind": kind, "lr": lr, "momentum": momentum, "wd": wd,
                        "seed": seed,
                    }
                    try:
                        schedule = LRSchedule(
                            kind=base_sched.kind,
                            base_lr=lr,
                            decay_factor=base_sched.decay_factor,
                            milestone_fractions=base_sched.milestone_fractions,
                            shrink_factor=base_sched.shrink_factor,
                        )
                        opt = OptimizerConfig(
                            kind=kind, lr=lr, momentum=momentum,
                            schedule=schedule, **_wd_fields(kind, wd),
                        )
                        cfg = replace(
                            base_config, optimizer=opt, seed=seed,
                            output_csv=None, output_summary=None,
                        )
                        res = run_training(cfg)
                    except (DomainError, NumericError, BudgetExceededError) as exc:
                        row["status"] = "error"
                        row["error"] = f"{type(exc).__name__}: {exc}"
                        rows.append(row)
                        results.append(None)
                        continue
                    final = res.records[-1]
                    row["status"] = res.status
                    row["epoch"] = final.epoch
                    row["train_loss"] = final.train_loss
                    row["train_acc"] = final.train_acc
                    for key in METRIC_KEYS:
                        row[key] = final.values.get(key)
                    row["sigma_min_w"] = final.sigma_min_w
                    row["sigma_avg_w"] = final.sigma_avg_w
                    row["sigma_min_m"] = final.sigma_min_m
                    row["sigma_avg_m"] = final.sigma_avg_m
                    rows.append(row)
                    results.append(res)
    return SweepResult(spec=spec, base_config=base_config, rows=rows, results=results)


_SWEEP_COLUMNS = (
    ("kind", "lr", "momentum", "wd", "seed", "status", "epoch", "train_loss", "train_acc")
    + METRIC_KEYS
    + ("sigma_min_w", "sigma_avg_w", "sigma_min_m", "sigma_avg_m")
)


def sweep_summary_csv(sweep: SweepResult) -> str:
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in sweep.rows:
        cells = []
        for col in _SWEEP_COLUMNS:
            v = row.get(col)
            if col in ("kind", "status"):
                cells.append("" if v is None else str(v))
            else:
                cells.append(_format_cell(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _qualifies(row: dict, threshold: float) -> bool:
    return (
        row.get("status") == "ok"
        and row.get("train_acc") is not None
        and row["train_acc"] >= threshold
    )


def pivot_csv(sweep: SweepResult, kind: str, lr: float, metric: str) -> str:
    """momentum x weight-decay table of a final metric for one (kind, lr).

    Cells for runs that failed the accuracy filter are left empty; the raw
    rows are untouched.
    """
    if metric not in METRIC_KEYS:
        raise DomainError(f"unknown metric {metric!r}")
    momenta = sorted({r["momentum"] for r in sweep.rows if r["kind"] == kind and r["lr"] == lr})
    wds = sorted({r["wd"] for r in sweep.rows if r["kind"] == kind and r["lr"] == lr})
    index = {
        (r["momentum"], r["wd"]): r
        for r in sweep.rows
        if r["kind"] == kind and r["lr"] == lr
    }
    lines = ["momentum_wd," + ",".join(_format_cell(w) for w in wds)]
    for m in momenta:
        cells = [_format_cell(m)]
        for w in wds:
            row = index.get((m, w))
            if row is not None and _qualifies(row, sweep.spec.accuracy_threshold):
                cells.append(_format_cell(row.get(metric)))
            else:
                cells.append("")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_sweep_outputs(sweep: SweepResult, outdir, metrics=("nc0", "nc2", "nc3")) -> list:
    """summary.csv plus one pivot file per (kind, lr, metric); returns paths."""
    import os

    os.makedirs(outdir, exist_ok=True)
    paths = []
    summary_path = os.path.join(outdir, "summary.csv")
    try:
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(sweep_summary_csv(sweep))
    except OSError as exc:
        raise OSError(f"cannot write sweep summary to {summary_path}: {exc}") from exc
    paths.append(summary_path)
    for kind in sweep.spec.kinds:
        for lr in sweep.spec.lrs:
            for metric in metrics:
                name = f"pivot_{metric}_{kind}_lr{lr!r}.csv"
                path = os.path.join(outdir, name)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(pivot_csv(sweep, kind, lr, metric))
                paths.append(path)
    return paths


def parse_sweep_summary_csv(text: str):
    """Rows of a sweep summary back as dicts (numeric fields floated)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(_SWEEP_COLUMNS):
        raise DomainError("sweep summary header does not match the expected columns")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_SWEEP_COLUMNS):
            raise DomainError(
                f"sweep summary row has {len(cells)} fields, expected {len(_SWEEP_COLUMNS)}"
            )
        row = {}
        for col, cell in zip(_SWEEP_COLUMNS, cells):
            if col in ("kind", "status"):
                row[col] = cell
            elif cell == "":
                row[col] = None
            elif col in ("seed", "epoch"):
                row[col] = int(cell)
            else:
                row[col] = float(cell)
        rows.append(row)
    return rows


def regress_rows(rows, x_metric: str = "nc0", y_metric: str = "nc3",
                 accuracy_threshold: float = 0.99) -> RegressionFit:
    """OLS of one final metric on another across accuracy-qualified rows."""
    xs, ys = [], []
    for row in rows:
        if not _qualifies(row, accuracy_threshold):
            continue
        x, y = row.get(x_metric), row.get(y_metric)
        if x is None or y is None:
            continue
        xs.append(x)
        ys.append(y)
    if len(xs) < 3:
        raise DomainError(f"need at least 3 qualifying runs, have {len(xs)}")
    return ols_fit(xs, ys)


def regress_runs(sweep: SweepResult, x_metric: str = "nc0", y_metric: str = "nc3") -> RegressionFit:
    """OLS of one final metric on another across accuracy-qualified runs."""
    return regress_rows(sweep.rows, x_metric, y_metric, sweep.spec.accuracy_threshold)


# --- closed-form consistency checks ---


@dataclass
class CheckResult:
    """Outcome of one simulation-vs-closed-form comparison.

    ``rows`` holds (t, alpha_sim, alpha_pred, abs_err, rel_err) tuples.
    """

    name: str
    passed: bool
    tolerance: float
    rows: list
    details: dict = field(default_factory=dict)


def _rel_err(abs_err: float, pred: float) -> float:
    if pred != 0.0:
        return abs_err / abs(pred)
    return 0.0 if abs_err == 0.0 else math.inf


def _mlp_check_config(optimizer: OptimizerConfig, epochs: int, batch_size,
                      num_classes: int, dim: int, per_class: int, hidden_sizes,
                      data_seed: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        model_kind="mlp",
        hidden_sizes=tuple(hidden_sizes),
        num_classes=num_classes,
        dim=dim,
        per_class=per_class,
        data_seed=data_seed,
        optimizer=optimizer,
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        metric_period=1,
    )


def check_decoupled_rowsum_decay(lr: float = 0.05, wd: float = 0.1, momentum: float = 0.9,
                                 epochs: int = 300, num_classes: int = 4, dim: int = 8,
                                 per_class: int = 25, hidden_sizes=(16, 16),
                                 data_seed: int = 11, seed: int = 0,
                                 tolerance: float = 1e-9) -> CheckResult:
    """Full-batch decoupled SGD on blobs: the classifier row-sum energy must
    follow alpha_t = (1 - lr*wd)^(2t) alpha_0 at every epoch."""
    opt = OptimizerConfig(kind="sgd_decoupled", lr=lr, momentum=momentum, decoupled_wd=wd)
    cfg = _mlp_check_config(opt, epochs, None, num_classes, dim, per_class,
                            hidden_sizes, data_seed, seed)
    res = run_training(cfg, collect_rowsums=True)
    alpha0 = oracles.alpha_from_rowsum(res.rowsums[0][1], num_classes)
    rows = []
    ok = True
    for t, m in res.rowsums:
        sim = oracles.alpha_from_rowsum(m, num_classes)
        pred = oracles.alpha_sgd_decoupled(t, alpha0, lr, wd)
        abs_err = abs(sim - pred)
        rel = _rel_err(abs_err, pred)
        rows.append((t, sim, pred, abs_err, rel))
        if rel > tolerance:
            ok = False
    logged_ok = all(
        _rel_err(abs(rec.values["nc0_alpha"] - oracles.alpha_sgd_decoupled(rec.epoch, alpha0, lr, wd)),
                 oracles.alpha_sgd_decoupled(rec.epoch, alpha0, lr, wd)) <= tolerance
        for rec in res.records
        if rec.values.get("nc0_alpha") is not None
    )
    final = rows[-1]
    return CheckResult(
        name="decoupled_rowsum_decay",
        passed=ok and logged_ok,
        tolerance=tolerance,
        rows=rows,
        details={
            "alpha0": alpha0,
            "final_alpha": final[1],
            "final_ratio": final[1] / alpha0 if alpha0 > 0 else math.nan,
            "logged_alpha_ok": logged_ok,
            "train_status": res.status,
            "train_acc": res.records[-1].train_acc,
        },
    )


def check_coupled_rowsum_recursion(momentum: float, lr: float = 0.05, wd: float = 0.1,
                                   epochs: int = 300, batch_size: Optional[int] = 10,
                                   num_classes: int = 4, dim: int = 8, per_class: int = 25,
                                   hidden_sizes=(16, 16), data_seed: int = 11, seed: int = 0,
                                   tolerance: float = 1e-9) -> CheckResult:
    """Coupled SGD: W^T 1 must follow the momentum recursion per coordinate.

    The per-coordinate comparison is absolute at ``tolerance``; the alpha
    comparison is combined absolute/relative against alpha_0 because alpha
    decays to the rounding floor.
    """
    opt = OptimizerConfig(kind="sgd_coupled", lr=lr, momentum=momentum, coupled_wd=wd)
    cfg = _mlp_check_config(opt, epochs, batch_size, num_classes, dim, per_class,
                            hidden_sizes, data_seed, seed)
    cfg.metric_period = 10
    res = run_training(cfg, collect_rowsums=True)
    n = num_classes * per_class
    steps_per_epoch = 1 if batch_size is None else math.ceil(n / batch_size)
    m0 = res.rowsums[0][1]
    oracle_ms = oracles.rowsum_recursion_coupled(m0, lr, wd, momentum,
                                                 steps=epochs * steps_per_epoch)
    alpha0 = oracles.alpha_from_rowsum(m0, num_classes)
    roots = oracles.char_roots(momentum, lr, wd)
    c_bound = oracles.rowsum_decay_constant(lr, wd, momentum)
    rows = []
    ok = True
    max_coord_err = 0.0
    bound_ok = True
    m0_norm = float(np.linalg.norm(m0))
    for epoch, m_sim in res.rowsums:
        t = epoch * steps_per_epoch
        m_pred = oracle_ms[t]
        coord_err = float(np.max(np.abs(m_sim - m_pred)))
        max_coord_err = max(max_coord_err, coord_err)
        if coord_err > tolerance:
            ok = False
        sim = oracles.alpha_from_rowsum(m_sim, num_classes)
        pred = oracles.alpha_from_rowsum(m_pred, num_classes)
        abs_err = abs(sim - pred)
        rows.append((t, sim, pred, abs_err, _rel_err(abs_err, pred)))
        if abs_err > tolerance * (alpha0 + abs(pred)):
            ok = False
        envelope = c_bound * roots.spectral_radius**t * m0_norm
        if float(np.linalg.norm(m_sim)) > envelope * (1.0 + 1e-9) + 1e-12:
            bound_ok = False
    logged_ok = True
    for rec in res.records:
        logged = rec.values.get("nc0_alpha")
        if logged is None:
            continue
        pred = oracles.alpha_from_rowsum(oracle_ms[rec.epoch * steps_per_epoch], num_classes)
        if abs(logged - pred) > tolerance * (alpha0 + abs(pred)):
            logged_ok = False
    ok = ok and logged_ok
    final = rows[-1]
    return CheckResult(
        name="coupled_rowsum_recursion",
        passed=ok,
        tolerance=tolerance,
        rows=rows,
        details={
            "alpha0": alpha0,
            "final_alpha": final[1],
            "final_ratio": final[1] / alpha0 if alpha0 > 0 else math.nan,
            "max_coord_err": max_coord_err,
            "logged_alpha_ok": logged_ok,
            "spectral_radius": roots.spectral_radius,
            "decay_constant": c_bound,
            "envelope_ok": bound_ok,
            "steps_per_epoch": steps_per_epoch,
            "train_status": res.status,
            "decay_confirmed": final[1] < alpha0,
        },
    )


def check_decoupled_sign_plateau(num_classes: int = 10, lr: float = 0.1, wd: float = 0.5,
                                 steps: int = 2000, tolerance: float = 1e-9) -> CheckResult:
    """Decoupled sign descent from W = 0 on the square frozen-feature
    geometry: alpha must climb the exact closed form to (K-2)^2 / wd^2."""
    k = num_classes
    model = UFMModel.fixed_features(k, init="zero")
    w = model.W
    opt_state = OptimizerState.initial(w)
    expected_sign = np.ones((k, k)) - 2.0 * np.eye(k)
    rows = [(0, 0.0, 0.0, 0.0, 0.0)]
    ok = True
    sign_pattern_ok = True
    monotone = True
    prev_alpha = 0.0
    for t in range(1, steps + 1):
        _, grad_w, _ = model.loss_and_grads()
        if not np.array_equal(np.sign(grad_w), expected_sign):
            sign_pattern_ok = False
        w, opt_state = step_signgd_decoupled(w, grad_w, opt_state, lr, wd)
        model.W = w
        sim = nc0_alpha(w)
        pred = oracles.alpha_signgd_decoupled(t, k, lr, wd)
        abs_err = abs(sim - pred)
        rel = _rel_err(abs_err, pred)
        rows.append((t, sim, pred, abs_err, rel))
        if rel > tolerance:
            ok = False
        if sim < prev_alpha - 1e-12:
            monotone = False
        prev_alpha = sim
    limit = oracles.alpha_signgd_decoupled_limit(k, wd)
    final_alpha = rows[-1][1]
    within_limit = limit * 0.99 <= final_alpha <= limit * (1.0 + 1e-9)
    passed = ok and sign_pattern_ok and monotone and within_limit
    return CheckResult(
        name="decoupled_sign_plateau",
        passed=passed,
        tolerance=tolerance,
        rows=rows,
        details={
            "limit": limit,
            "final_alpha": final_alpha,
            "monotone": monotone,
            "sign_pattern_ok": sign_pattern_ok,
            "within_1pct_of_limit": within_limit,
        },
    )


def check_coupled_sign_oscillation(num_classes: int = 10, lr0: float = 0.1, wd: float = 0.5,
                                   shrink: float = 0.5, tol: float = 1e-6,
                                   max_steps: int = 10**5,
                                   family_tolerance: float = 1e-12) -> CheckResult:
    """Coupled sign descent with oscillation-driven learning-rate decay: the
    weight matrix must stay in the (a, b) two-parameter family, track the
    scalar recursion, rise to an interior peak, and fall below tol * peak.

    The K x K weight matrix of the square frozen-feature geometry steps in
    lockstep with the (a, b) dynamics, at the step size the dynamics set,
    until alpha falls to tol * alpha_peak; BudgetExceededError if max_steps
    arrive first.
    """
    k = num_classes
    model = UFMModel.fixed_features(k, init="zero")
    w = model.W
    opt_state = OptimizerState.initial(w)
    off_mask = ~np.eye(k, dtype=bool)
    rows = [(0, 0.0, 0.0, 0.0, 0.0)]
    family_dev_max = 0.0
    scalar_dev_max = 0.0
    peak = 0.0
    peak_step = 0
    decay_steps = []
    eta = lr0
    dynamics = oracles.coupled_signgd_steps(k, k, lr0, wd, shrink)
    for t, (state, decayed) in enumerate(islice(dynamics, max_steps), start=1):
        _, grad_w, _ = model.loss_and_grads()
        w, opt_state = step_signgd_coupled(w, grad_w, opt_state, eta, wd)
        model.W = w
        eta = state.eta
        if decayed:
            decay_steps.append(t)
        diag = np.diag(w)
        off = w[off_mask]
        family_dev_max = max(family_dev_max,
                             float(max(diag.max() - diag.min(), off.max() - off.min())))
        scalar_dev_max = max(scalar_dev_max,
                             float(max(abs(diag[0] - state.a), abs(-off[0] - state.b))))
        alpha_m = nc0_alpha(w)
        alpha_s = oracles.scalar_alpha(state, k)
        abs_err = abs(alpha_m - alpha_s)
        rows.append((t, alpha_m, alpha_s, abs_err, _rel_err(abs_err, alpha_s)))
        if alpha_m > peak:
            peak, peak_step = alpha_m, t
        if peak > 0.0 and alpha_m <= tol * peak:
            break
    else:
        raise BudgetExceededError(
            f"square sign descent did not reach {tol} * alpha_peak within {max_steps} steps",
            trajectory=[(r[0], r[1]) for r in rows],
        )
    final_alpha = rows[-1][1]
    interior_peak = 0 < peak_step < rows[-1][0] and peak > max(rows[0][1], final_alpha)
    passed = (
        final_alpha <= tol * peak
        and family_dev_max <= family_tolerance
        and scalar_dev_max <= family_tolerance
        and interior_peak
    )
    return CheckResult(
        name="coupled_sign_oscillation",
        passed=passed,
        tolerance=family_tolerance,
        rows=rows,
        details={
            "alpha_peak": peak,
            "peak_step": peak_step,
            "final_alpha": final_alpha,
            "terminated_at": t,
            "decay_steps": decay_steps,
            "final_eta": state.eta,
            "family_dev_max": family_dev_max,
            "scalar_dev_max": scalar_dev_max,
            "phase_reached": state.phase,
        },
    )


THEOREM_CHECKS = {
    "1": check_decoupled_rowsum_decay,
    "2": check_coupled_rowsum_recursion,
    "3": check_decoupled_sign_plateau,
    "4": check_coupled_sign_oscillation,
}
