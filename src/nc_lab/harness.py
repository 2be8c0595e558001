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
    "run_square_sign_descent",
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
    "optimizer.kind": (None, str),
    "optimizer.lr": (None, float),
    "optimizer.momentum": (None, float),
    "optimizer.beta2": (None, float),
    "optimizer.eps": (None, float),
    "optimizer.coupled_wd": (None, float),
    "optimizer.decoupled_wd": (None, float),
    "optimizer.total_wd": (None, float),
    "optimizer.schedule": (None, str),
    "optimizer.decay_factor": (None, float),
    "optimizer.milestone_fractions": (None, "fraction_tuple"),
    "optimizer.shrink_factor": (None, float),
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


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    unknown = sorted(set(mapping) - set(_CONFIG_CASTS))
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    parsed = {}
    for key, raw in mapping.items():
        field_name, caster = _CONFIG_CASTS[key]
        parsed[key] = _cast_value(key, caster, raw)

    lr = parsed.get("optimizer.lr", 0.1)
    schedule_kind = parsed.get("optimizer.schedule", "constant")
    schedule_kwargs = {"kind": schedule_kind, "base_lr": lr}
    if "optimizer.decay_factor" in parsed:
        schedule_kwargs["decay_factor"] = parsed["optimizer.decay_factor"]
    if "optimizer.milestone_fractions" in parsed:
        schedule_kwargs["milestone_fractions"] = parsed["optimizer.milestone_fractions"]
    if "optimizer.shrink_factor" in parsed:
        schedule_kwargs["shrink_factor"] = parsed["optimizer.shrink_factor"]
    opt = OptimizerConfig(
        kind=parsed.get("optimizer.kind", "sgd_decoupled"),
        lr=lr,
        momentum=parsed.get("optimizer.momentum", 0.0),
        beta2=parsed.get("optimizer.beta2", 0.999),
        eps=parsed.get("optimizer.eps", 1e-8),
        coupled_wd=parsed.get("optimizer.coupled_wd", 0.0),
        decoupled_wd=parsed.get("optimizer.decoupled_wd", 0.0),
        total_wd=parsed.get("optimizer.total_wd"),
        schedule=LRSchedule(**schedule_kwargs),
    )
    kwargs = {"optimizer": opt}
    for key, value in parsed.items():
        field_name, _ = _CONFIG_CASTS[key]
        if field_name is not None:
            kwargs[field_name] = value
    return ExperimentConfig(**kwargs)


def config_to_mapping(config: ExperimentConfig) -> dict:
    """Dotted-key echo of a config (used in JSON summaries)."""
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
        "optimizer.lr": opt.lr,
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


def run_training(config: ExperimentConfig, collect_rowsums: bool = False) -> TrainResult:
    """Train per the config, logging metrics every metric_period epochs.

    Mini-batch order is seeded and deterministic. A non-finite loss aborts
    the run with a final diagnostic record and status "diverged". The
    oscillation_decay schedule is only meaningful for the square-geometry
    coupled sign-descent runner and is routed there; any other combination is
    rejected.
    """
    start = time.perf_counter()
    schedule = config.optimizer.schedule
    if schedule.kind == "oscillation_decay":
        return _run_training_oscillation(config, collect_rowsums, start)

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
        params = model.parameters()
    elif config.model_kind == "ufm":
        model = UFMModel.create(
            k, config.dim, config.per_class,
            seed=config.seed, init_scale=config.init_scale,
        )
        if config.init == "zero":
            model.W = np.zeros_like(model.W)
        dataset = None
        labels = model.labels
        params = [model.W, model.H]
    else:
        init = "gaussian" if config.init == "gaussian" else "zero"
        model = UFMModel.fixed_features(
            k, init=init, seed=config.seed, init_scale=config.init_scale,
        )
        dataset = None
        labels = model.labels
        params = [model.W]

    n = x_full.shape[1] if config.model_kind == "mlp" else model.H.shape[1]
    if config.batch_size is not None and config.batch_size > n:
        raise DomainError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    batch = n if config.batch_size is None else config.batch_size
    full_batch = batch >= n
    shuffle_rng = np.random.default_rng([config.seed, 1])
    y_full = one_hot(labels, k)

    def weight():
        return model.final_weight if config.model_kind == "mlp" else model.W

    def sync(new_params):
        if config.model_kind == "mlp":
            model.set_parameters(new_params)
        elif config.model_kind == "ufm":
            model.W, model.H = new_params
        else:
            model.W = new_params[0]

    def full_eval():
        feats = model.features(x_full) if config.model_kind == "mlp" else model.H
        loss, acc = _loss_and_accuracy(weight(), feats, y_full, labels)
        return feats, loss, acc

    opt = Optimizer(config.optimizer, params)
    records = []
    rowsums = [] if collect_rowsums else None
    diverged = False

    feats0, loss0, acc0 = full_eval()
    lr0 = lr_at(schedule, 0, config.epochs)
    records.append(_snapshot(0, lr0, weight(), feats0, labels, k, loss0, acc0))
    if collect_rowsums:
        rowsums.append((0, weight().sum(axis=0).copy()))

    for epoch in range(config.epochs):
        lr_value = lr_at(schedule, epoch, config.epochs)
        if full_batch:
            batches = [np.arange(n)]
        else:
            perm = shuffle_rng.permutation(n)
            batches = [perm[i:i + batch] for i in range(0, n, batch)]
        for idx in batches:
            if config.model_kind == "mlp":
                loss, grads, _ = model.forward_backward(x_full[:, idx], y_full[:, idx])
            elif config.model_kind == "ufm":
                cols = None if full_batch else idx
                loss, grad_w, grad_h = model.loss_and_grads(cols)
                if full_batch:
                    grads = [grad_w, grad_h]
                else:
                    gh = np.zeros_like(model.H)
                    gh[:, idx] = grad_h
                    grads = [grad_w, gh]
            else:
                loss, grad_w, _ = model.loss_and_grads()
                grads = [grad_w]
            if not math.isfinite(loss):
                diverged = True
                break
            params = opt.step(params, grads, lr_value)
            sync(params)
        if collect_rowsums:
            rowsums.append((epoch + 1, weight().sum(axis=0).copy()))
        if diverged:
            feats, loss, acc = full_eval()
            records.append(_snapshot(epoch + 1, lr_value, weight(), feats, labels, k, loss, acc))
            break
        is_last = epoch + 1 == config.epochs
        if (epoch + 1) % config.metric_period == 0 or is_last:
            feats, loss, acc = full_eval()
            records.append(_snapshot(epoch + 1, lr_value, weight(), feats, labels, k, loss, acc))

    status = "diverged" if diverged else _status_from_records(records, config.epochs, k)
    result = TrainResult(
        config=config,
        records=records,
        status=status,
        wall_time=time.perf_counter() - start,
        model=model,
        dataset=dataset,
        rowsums=rowsums,
    )
    if config.output_csv:
        emit_csv(records, config.output_csv)
    if config.output_summary:
        emit_summary_json(result, config.output_summary)
    return result


def run_square_sign_descent(num_classes: int, lr0: float, wd: float, shrink: float = 0.5,
                            max_steps: int = 10**5, stop_tol: Optional[float] = None,
                            observer: Optional[Callable] = None) -> dict:
    """Coupled sign descent on the square frozen-feature geometry, stepping the
    K x K weight matrix and the scalar (a, b) recursion in lockstep and
    shrinking the shared learning rate whenever the oscillation detector fires.

    With ``stop_tol`` set, stops once alpha falls to stop_tol * alpha_peak
    (raising BudgetExceededError if max_steps arrive first); otherwise runs
    exactly max_steps steps. ``observer(t, model, state, eta, decayed)`` is
    called after every step.
    """
    k = num_classes
    model = UFMModel.fixed_features(k, init="zero")
    w = model.W
    opt_state = OptimizerState.initial(w)
    state = oracles.CoupledSignState(eta=lr0)
    steps = [{
        "t": 0, "eta": lr0, "alpha_matrix": 0.0, "alpha_scalar": 0.0,
        "family_dev": 0.0, "scalar_dev": 0.0, "decayed": False,
    }]
    peak = 0.0
    peak_step = 0
    decay_steps = []
    off_mask = ~np.eye(k, dtype=bool)
    terminated_at = None
    for t in range(1, max_steps + 1):
        eta = state.eta
        _, grad_w, _ = model.loss_and_grads()
        w, opt_state = step_signgd_coupled(w, grad_w, opt_state, eta, wd)
        model.W = w
        state = oracles.coupled_signgd_scalar_step(state, k, k, wd)
        decayed = False
        if oracles.oscillation_decay_due(state):
            state = oracles.apply_decay(state, shrink)
            decay_steps.append(t)
            decayed = True
        diag = np.diag(w)
        off = w[off_mask]
        family_dev = float(max(diag.max() - diag.min(), off.max() - off.min()))
        scalar_dev = float(max(abs(diag[0] - state.a), abs(-off[0] - state.b)))
        alpha_m = nc0_alpha(w)
        alpha_s = oracles.scalar_alpha(state, k)
        steps.append({
            "t": t, "eta": eta, "alpha_matrix": alpha_m, "alpha_scalar": alpha_s,
            "family_dev": family_dev, "scalar_dev": scalar_dev, "decayed": decayed,
        })
        if observer is not None:
            observer(t, model, state, eta, decayed)
        if alpha_m > peak:
            peak, peak_step = alpha_m, t
        if stop_tol is not None and peak > 0.0 and alpha_m <= stop_tol * peak:
            terminated_at = t
            break
    if stop_tol is not None and terminated_at is None:
        raise BudgetExceededError(
            f"square sign descent did not reach {stop_tol} * alpha_peak "
            f"within {max_steps} steps",
            trajectory=[(s["t"], s["alpha_matrix"]) for s in steps],
        )
    return {
        "steps": steps,
        "model": model,
        "state": state,
        "alpha_peak": peak,
        "peak_step": peak_step,
        "decay_steps": decay_steps,
        "terminated_at": terminated_at,
        "final_eta": state.eta,
    }


def _run_training_oscillation(config: ExperimentConfig, collect_rowsums: bool,
                              start: float) -> TrainResult:
    if config.model_kind != "ufm_fixed_features" or config.optimizer.kind != "signgd_coupled":
        raise DomainError(
            "oscillation_decay requires the square frozen-feature geometry with "
            "coupled sign descent"
        )
    if config.batch_size is not None and config.batch_size != config.num_classes:
        raise DomainError("oscillation_decay runs are full batch")
    k = config.num_classes
    schedule = config.optimizer.schedule
    records = []
    rowsums = [] if collect_rowsums else None

    def observe(t, model, state, eta, decayed):
        if collect_rowsums:
            rowsums.append((t, model.W.sum(axis=0).copy()))
        if t % config.metric_period == 0 or t == config.epochs:
            loss, acc = _loss_and_accuracy(model.W, model.H, model.Y, model.labels)
            records.append(_snapshot(t, eta, model.W, model.H, model.labels, k, loss, acc))

    outcome = run_square_sign_descent(
        k, schedule.base_lr, config.optimizer.coupled_wd,
        shrink=schedule.shrink_factor, max_steps=config.epochs,
        stop_tol=None, observer=observe,
    )
    model = outcome["model"]
    loss0_model = UFMModel.fixed_features(k, init="zero")
    loss0, acc0 = _loss_and_accuracy(loss0_model.W, loss0_model.H, loss0_model.Y,
                                     loss0_model.labels)
    first = _snapshot(0, schedule.base_lr, loss0_model.W, loss0_model.H,
                      loss0_model.labels, k, loss0, acc0)
    records.insert(0, first)
    if collect_rowsums:
        rowsums.insert(0, (0, loss0_model.W.sum(axis=0)))
    if records[-1].epoch != config.epochs:
        loss, acc = _loss_and_accuracy(model.W, model.H, model.Y, model.labels)
        records.append(_snapshot(
            config.epochs, outcome["final_eta"], model.W, model.H, model.labels, k, loss, acc,
        ))
    status = _status_from_records(records, config.epochs, k)
    result = TrainResult(
        config=config,
        records=records,
        status=status,
        wall_time=time.perf_counter() - start,
        model=model,
        dataset=None,
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
    scalar recursion, rise to an interior peak, and fall below tol * peak."""
    outcome = run_square_sign_descent(num_classes, lr0, wd, shrink=shrink,
                                      max_steps=max_steps, stop_tol=tol)
    rows = []
    family_dev_max = 0.0
    scalar_dev_max = 0.0
    for s in outcome["steps"]:
        abs_err = abs(s["alpha_matrix"] - s["alpha_scalar"])
        rows.append((s["t"], s["alpha_matrix"], s["alpha_scalar"], abs_err,
                     _rel_err(abs_err, s["alpha_scalar"])))
        family_dev_max = max(family_dev_max, s["family_dev"])
        scalar_dev_max = max(scalar_dev_max, s["scalar_dev"])
    peak = outcome["alpha_peak"]
    peak_step = outcome["peak_step"]
    final_alpha = rows[-1][1]
    interior_peak = 0 < peak_step < rows[-1][0] and peak > max(rows[0][1], final_alpha)
    passed = (
        outcome["terminated_at"] is not None
        and final_alpha <= tol * peak
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
            "terminated_at": outcome["terminated_at"],
            "decay_steps": outcome["decay_steps"],
            "final_eta": outcome["final_eta"],
            "family_dev_max": family_dev_max,
            "scalar_dev_max": scalar_dev_max,
            "phase_reached": outcome["state"].phase,
        },
    )


THEOREM_CHECKS = {
    "1": check_decoupled_rowsum_decay,
    "2": check_coupled_rowsum_recursion,
    "3": check_decoupled_sign_plateau,
    "4": check_coupled_sign_oscillation,
}
