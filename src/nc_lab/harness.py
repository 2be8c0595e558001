"""Experiment driver: single training runs, hyperparameter sweeps, metric
logging, and the closed-form consistency checks exposed on the command line.

A run is described by an ExperimentConfig (parseable from a flat key=value
text file), executes deterministically given its seeds, and logs a
MetricRecord per evaluation epoch. Sweeps fan a base config across optimizer
grids, train the cells together through the same loop with every array
stacked on a leading cell axis, and aggregate final records into summary and
pivot tables. The
check_* functions train a model and compare the measured classifier row-sum
trajectory against the matching closed form from the oracles module.

The config, CSV and JSON formats each have one reader and writer here: run
configs (load_config) and sweep configs (load_sweep) through read_file,
headered CSVs (parse_csv, csv_text), JSON values (jsonable) and written files
(write_file). The CLI calls these public names only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from itertools import chain, product
from typing import Callable, Optional

import numpy as np

from . import metrics, oracles
from .errors import DomainError, NumericError
from .linalg import singular_values
from .metrics import (
    METRIC_KEYS,
    LabeledFeatures,
    all_metrics,
    compute_class_statistics,
    nc0_alpha,
    simplex_etf,
)
from .models import (
    MLPModel,
    UFMModel,
    ce_loss_and_grad,
    ce_loss_from_logits,
    gather_columns,
    make_blob_dataset,
    one_hot,
)
from .optim import (
    OPTIMIZER_READS,
    OPTIMIZER_UNREAD,
    SCHEDULE_UNREAD,
    LRSchedule,
    Optimizer,
    OptimizerConfig,
    lr_at,
    refuse_non_finite,
    refuse_unread,
)
from .stats import RegressionFit, ols_fit

__all__ = [
    "CSV_COLUMNS",
    "CSV_HEADER",
    "ExperimentConfig",
    "parse_config_text",
    "config_from_mapping",
    "config_to_mapping",
    "read_file",
    "load_config",
    "load_sweep",
    "MetricRecord",
    "csv_text",
    "write_file",
    "format_metric_csv",
    "parse_csv",
    "jsonable",
    "emit_csv",
    "emit_summary_json",
    "TrainResult",
    "run_training",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "sweep_summary_csv",
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

# The ExperimentConfig fields that each model kind does not read, in field
# order: only mlp has hidden layers and draws blob data, ufm draws its
# features from the train seed, and ufm_fixed_features builds its K x K frame
# from num_classes alone.
_UNREAD_FIELDS = {
    "ufm": ("hidden_sizes", "data_seed", "margin", "noise_std"),
    "ufm_fixed_features": ("hidden_sizes", "dim", "per_class", "data_seed", "margin",
                           "noise_std"),
    "mlp": (),
}
MODEL_KINDS = tuple(_UNREAD_FIELDS)

CSV_COLUMNS = (
    ("epoch", "lr", "train_loss", "train_acc")
    + METRIC_KEYS
    + ("sigma_min_w", "sigma_avg_w", "sigma_min_m", "sigma_avg_m")
)
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
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
        refuse_unread(self, "model", self.model_kind, _UNREAD_FIELDS)
        refuse_non_finite(self, ("init_scale", "margin", "noise_std"))
        if any(width < 1 for width in self.hidden_sizes):
            raise DomainError(f"hidden_sizes must be >= 1, got {self.hidden_sizes!r}")
        if self.num_classes < 2:
            raise DomainError("num_classes must be >= 2")
        for name in ("dim", "per_class"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
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
        if self.init_scale == 0.0 and self.model_kind != "ufm_fixed_features":
            raise DomainError(f"init_scale = 0 leaves the {self.model_kind} network all zero, "
                              "without gradient flow")


# Dotted config key -> (target, caster): the one list of run-config keys,
# which config_from_mapping parses and config_to_mapping echoes. A target
# "name" is an ExperimentConfig field, "optimizer.name" an OptimizerConfig
# field and "schedule.name" an LRSchedule field.
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

# sweep.* key -> (target, caster) of a sweep config file, cast as the
# run-config keys are. A target is a SweepSpec field, or outdir: the
# directory the sweep writes to.
_SWEEP_CASTS = {
    "sweep.kinds": ("kinds", "str_tuple"),
    "sweep.lrs": ("lrs", "float_tuple"),
    "sweep.momenta": ("momenta", "float_tuple"),
    "sweep.wds": ("wds", "float_tuple"),
    "sweep.accuracy_threshold": ("accuracy_threshold", float),
    "sweep.base_seed": ("base_seed", int),
    "sweep.outdir": ("outdir", str),
}


def _parse_fraction(text: str) -> float:
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


# The casters of comma-separated tuples: each non-blank item is cast alone.
_TUPLE_CASTS = {
    "int_tuple": int,
    "float_tuple": float,
    "str_tuple": str.strip,
    "fraction_tuple": _parse_fraction,
}


def _cast_value(key: str, caster, raw: str):
    """The value of ``raw`` for ``key``; only a tuple key may be empty, as ()."""
    if not raw.strip() and caster not in _TUPLE_CASTS:
        raise DomainError(f"config key {key}: empty value")
    try:
        if caster in _TUPLE_CASTS:
            return tuple(_TUPLE_CASTS[caster](p) for p in raw.split(",") if p.strip())
        if caster == "batch":
            return None if raw.strip().lower() == "full" else int(raw)
        return caster(raw)
    except (ValueError, ZeroDivisionError) as exc:
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
        if not key:
            raise DomainError(f"config line {lineno}: empty key")
        if key in mapping:
            raise DomainError(f"config line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


# The fields each kind does not read, per part of a config target ("": model).
_UNREAD = {"": _UNREAD_FIELDS, "optimizer": OPTIMIZER_UNREAD, "schedule": SCHEDULE_UNREAD}


def _unread_keys(keys, kinds: dict) -> dict:
    """"<part> <kind>" -> the keys among ``keys`` that the kind of the part
    they set does not read, in sorted order. ``kinds`` maps each part of a
    target ("", "optimizer" or "schedule") to its kind."""
    unread: dict = {}
    for key in sorted(keys):
        part, _, name = _CONFIG_CASTS[key][0].rpartition(".")
        if name in _UNREAD[part].get(kinds[part], ()):
            unread.setdefault(f"{part or 'model'} {kinds[part]}", []).append(key)
    return unread


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Config from dotted keys. Only the keys the mapping sets are passed on,
    so every default lives in its dataclass. A key that the model, optimizer
    or schedule kind does not read is refused, even at its default value."""
    unknown = sorted(set(mapping) - set(_CONFIG_CASTS))
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    parts = {"": {}, "optimizer": {}, "schedule": {}}
    for key, raw in mapping.items():
        target, caster = _CONFIG_CASTS[key]
        part, _, name = target.rpartition(".")
        parts[part][name] = _cast_value(key, caster, raw)
    kwargs, opt, schedule = parts[""], parts["optimizer"], parts["schedule"]
    kinds = {"": kwargs.get("model_kind", ExperimentConfig.model_kind),
             "optimizer": opt.get("kind", OptimizerConfig.kind),
             "schedule": schedule.get("kind", LRSchedule.kind)}
    unread = _unread_keys(mapping, kinds)
    if unread:
        raise DomainError("; ".join(f"{kind} reads no {', '.join(keys)}"
                                    for kind, keys in unread.items()))
    if schedule:
        opt["schedule"] = LRSchedule(**schedule)
    if opt:
        kwargs["optimizer"] = OptimizerConfig(**opt)
    return ExperimentConfig(**kwargs)


# How the echo writes a value of each caster; any other value goes as is.
_ECHO_FORMATS = {
    "int_tuple": lambda value: ",".join(str(v) for v in value),
    "fraction_tuple": lambda value: ",".join(repr(v) for v in value),
    "batch": lambda value: "full" if value is None else value,
}


def config_to_mapping(config: ExperimentConfig) -> dict:
    """Dotted-key echo of a config (used in JSON summaries), so that
    config_from_mapping accepts it. It leaves out the output paths and the
    keys that the model, optimizer or schedule kind does not read."""
    schedule = config.optimizer.schedule
    parts = {"": config, "optimizer": config.optimizer, "schedule": schedule}
    kinds = {"": config.model_kind, "optimizer": config.optimizer.kind, "schedule": schedule.kind}
    unread = set(chain(*_unread_keys(_CONFIG_CASTS, kinds).values()))
    out = {}
    for key, (target, caster) in _CONFIG_CASTS.items():
        part, _, name = target.rpartition(".")
        if name.startswith("output_") or key in unread:
            continue
        value = getattr(parts[part], name)
        out[key] = _ECHO_FORMATS[caster](value) if caster in _ECHO_FORMATS else value
    return out


def read_file(path, what: str) -> str:
    """The text of a UTF-8 file; an error names the file and what it holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {what} from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {what} from {path}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_mapping(parse_config_text(read_file(path, "config")))


def load_sweep(path) -> tuple:
    """(base config, SweepSpec, outdir) of a sweep config file: its sweep.*
    keys give the spec and outdir (default sweep_output), the others the
    base config."""
    mapping = parse_config_text(read_file(path, "sweep config"))
    kwargs = {name: _cast_value(key, caster, mapping.pop(key))
              for key, (name, caster) in _SWEEP_CASTS.items() if key in mapping}
    outdir = kwargs.pop("outdir", "sweep_output")
    spec = SweepSpec(**kwargs)
    return config_from_mapping(mapping), spec, outdir


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
    if type(value) is float:        # most cells: the same repr as below, sooner
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def csv_text(rows) -> str:
    """CSV text, one line per row and each cell written by _format_cell; the
    first row is the header."""
    return "\n".join(",".join(_format_cell(v) for v in row) for row in rows) + "\n"


def write_file(path, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def format_metric_csv(records) -> str:
    return csv_text([CSV_COLUMNS] + [rec.to_row() for rec in records])


def _read_cell(column: str, cell: str):
    if column in ("kind", "status"):
        return cell
    if cell == "":
        return None
    try:
        return int(cell) if column in ("seed", "epoch") else float(cell)
    except ValueError as exc:
        raise DomainError(f"CSV column {column}: cannot parse {cell!r}") from exc


def parse_csv(text: str) -> tuple:
    """The header of a headered CSV (a metric CSV, a sweep summary or any
    file of numeric columns) and its rows as dicts by column: kind and status
    as text, an empty cell as None, seed and epoch as ints and every other
    cell as a float. The caller checks the header."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",") if lines else []
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise DomainError(f"CSV row has {len(cells)} fields, expected {len(header)}")
        rows.append({col: _read_cell(col, cell) for col, cell in zip(header, cells)})
    return header, rows


def emit_csv(records, path) -> None:
    write_file(path, format_metric_csv(records), "CSV")


def jsonable(value):
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
        final = {name: jsonable(v) for name, v in zip(CSV_COLUMNS, rec.to_row())}
    payload = {
        "config": {k: jsonable(v) if not isinstance(v, str) else v
                   for k, v in config_to_mapping(result.config).items()},
        "status": result.status,
        "wall_time_s": result.wall_time,
        "num_records": len(result.records),
        "final": final,
    }
    write_file(path, json.dumps(payload, indent=2, sort_keys=True) + "\n", "summary")


@dataclass
class TrainResult:
    """One finished run, whose records hold every metric. A theorem check's
    trajectory run (see _trajectory) also keeps the classifier W_0, W_1, ...
    in ``weights``, and its records hold the loss, accuracy and nc0_alpha."""

    config: ExperimentConfig
    records: list
    status: str                      # ok | diverged | did_not_train
    wall_time: float
    model: object
    dataset: object = None
    weights: Optional[list] = None   # W_0, W_1, ... of a trajectory run


def _sigmas(sv: np.ndarray) -> list:
    """(sigma_min, sigma_avg) of each row of an S x r array of singular
    values in descending order: the smallest, and the mean of the others
    (None when r is 1)."""
    avgs = sv[:, :-1].mean(axis=-1).tolist() if sv.shape[1] > 1 else [None] * len(sv)
    return list(zip(sv[:, -1].tolist(), avgs))


def _snapshots(heads, weights: np.ndarray, data, targets, alpha_only: bool = False) -> list:
    """The records of the S classifiers ``weights`` (S x K x p) over the
    full-data features ``data``: one LabeledFeatures that every slice reads,
    or a list of one per slice. ``heads`` holds each slice's (epoch, step
    size, loss); a loss of None is computed here. The loss, train_acc and
    nc4 of a slice read one product W H.

    One all_metrics call and one singular_values call cover every slice
    whose W and class statistics are finite; a degenerate or diverged
    snapshot has every metric and sigma column blank. With ``alpha_only`` a
    record holds the loss, train_acc and nc0_alpha (metrics.nc0_alpha, as
    all_metrics logs it), and None for every other metric and sigma column:
    no class statistics, no SVD.
    """
    shared = isinstance(data, LabeledFeatures)
    groups = [(0, len(heads), data)] if shared else [(i, i + 1, d) for i, d in enumerate(data)]
    records = []
    for lo, hi, d in groups:
        ws = weights[lo:hi]
        logits = ws @ d.features if any(head[2] is None for head in heads[lo:hi]) else None
        decisions = d._linear_decisions(ws, logits)
        for i, (epoch, lr_value, loss) in enumerate(heads[lo:hi]):
            if loss is None:
                loss = ce_loss_from_logits(logits[i], targets)
            acc = np.count_nonzero(decisions[i] == d.labels) / d.labels.shape[0]
            records.append(MetricRecord(epoch, lr_value, loss, acc, dict.fromkeys(METRIC_KEYS)))
        del logits              # not kept through the metric pass
    if alpha_only:
        for rec, w in zip(records, weights):
            rec.values["nc0_alpha"] = metrics.nc0_alpha(w)
        return records
    ok = np.isfinite(weights).all(axis=(1, 2))
    m_sigmas = [None] * len(heads)
    for lo, hi, d in groups:
        try:
            m_sigmas[lo:hi] = _sigmas(compute_class_statistics(d).singular_values[None]) * (hi - lo)
        except NumericError:
            ok[lo:hi] = False
    kept = np.flatnonzero(ok)
    if kept.size:
        ws = weights if kept.size == len(weights) else weights[kept]
        bundles = all_metrics(ws, data if shared else [data[i] for i in kept])
        for i, bundle, w_sigmas in zip(kept, bundles, _sigmas(singular_values(ws))):
            rec = records[i]
            rec.values = {key: bundle[key] for key in METRIC_KEYS}
            rec.sigma_min_w, rec.sigma_avg_w = w_sigmas
            rec.sigma_min_m, rec.sigma_avg_m = m_sigmas[i]
    return records


def _status_from_records(records, epochs: int, num_classes: int) -> str:
    """"did_not_train" when accuracy never clears chance + 0.05 in the last
    80% of training."""
    threshold = 1.0 / num_classes + 0.05
    cutoff = 0.2 * epochs
    late = [r for r in records if r.epoch >= cutoff]
    if late and all(r.train_acc <= threshold for r in late):
        return "did_not_train"
    return "ok"


# Cells train in stacks whose estimated per-step working set (see
# _working_set) stays under this many bytes; a larger cell trains alone.
_STACK_BUDGET_BYTES = 64 * 2**20

# A fixed-input stack keeps its owed snapshots as W copies and records them
# in one _snapshots pass once the largest temporary of that pass, S x K x
# max(p, N, K) float64 for S snapshots, would pass this many bytes; what is
# left is recorded before the stack returns.
_FLUSH_BYTES = 16 * 2**20


def _working_set(widths, batch: int, num_params: int) -> int:
    """Estimated bytes one cell touches per step: four batch-wide float64
    arrays per layer width (input, pre-activation, activation, delta) and
    four per parameter (value, gradient, two optimizer buffers)."""
    return 8 * 4 * (batch * sum(widths) + num_params)


def _ufm_grads(model: UFMModel, cols):
    """(losses, gradient list, features) of a stacked UFMModel on G x B
    batch columns (None = full batch, whose features are H itself, else
    None); a batch's grad_H is scattered into H's shape."""
    loss, grad_w, grad_h = model.loss_and_grads(cols)
    if cols is not None:
        gh = np.zeros_like(model.H)
        gh[np.arange(gh.shape[0])[:, None], :, cols] = grad_h.swapaxes(-1, -2)
        return loss, [gh, grad_w], None
    return loss, [grad_h, grad_w], model.H


@dataclass
class _Grid:
    """What the cells of a grid share, built once: the data, how to make a
    cell's model, and how to read a stacked model of them. The loop reads
    every kind through ``parameters()``, whose last array is the classifier."""

    dataset: object
    labels: np.ndarray
    targets: np.ndarray    # one-hot K x N
    make: Callable         # config -> the cell's 2-D model
    grads: Callable        # stacked model, G x B batch columns or None -> (losses,
                           # gradients, the G x P x N features of a full batch or None)
    features: Callable     # stacked model -> G x P x N full-data features
    cell_bytes: int        # _working_set of one cell
    fixed: Optional[np.ndarray] = None   # the P x N features every cell shares when
                                         # the model has no hidden layer; grads then
                                         # returns None for them, and features is unused


def _setup(config: ExperimentConfig) -> _Grid:
    """Build the data that the cells of a grid share, from the fields they
    share. This is the one place that branches on the model kind: ufm trains
    its feature columns, and mlp and ufm_fixed_features train an MLPModel on
    fixed inputs, Gaussian blobs or the K columns of the simplex frame."""
    k = config.num_classes
    if config.model_kind == "ufm":
        def make(cfg):
            model = UFMModel.create(k, cfg.dim, cfg.per_class,
                                    seed=cfg.seed, init_scale=cfg.init_scale)
            if cfg.init == "zero":
                model.W = np.zeros_like(model.W)
            return model

        labels = np.repeat(np.arange(k), config.per_class)
        return _Grid(None, labels, one_hot(labels, k), make, _ufm_grads, lambda m: m.H,
                     _working_set((config.dim, k), _batch(config, labels.shape[0]),
                                  config.dim * (k + labels.shape[0])))

    if config.model_kind == "mlp":
        dataset = make_blob_dataset(
            k, config.dim, config.per_class,
            margin=config.margin, seed=config.data_seed, noise_std=config.noise_std,
        )
        x_full, labels, hidden = dataset.features, dataset.labels, config.hidden_sizes
    else:
        if config.batch_size not in (None, k):
            raise DomainError("ufm_fixed_features trains full batch only")
        dataset, x_full, labels, hidden = None, simplex_etf(k), np.arange(k), ()
    y_full = one_hot(labels, k)
    # The frame's classifier starts at zero, where the closed forms start,
    # unless the init is gaussian.
    zero_init = config.model_kind == "ufm_fixed_features" and config.init != "gaussian"

    def make_mlp(cfg):
        model = MLPModel.create(x_full.shape[0], hidden, k,
                                seed=cfg.seed, init_scale=cfg.init_scale)
        if zero_init:
            model.final_weight = np.zeros_like(model.final_weight)
        return model

    def grads(model, cols):
        batch = (x_full, y_full) if cols is None else (
            gather_columns(x_full, cols), gather_columns(y_full, cols))
        loss, grads, feats = model.forward_backward(*batch)
        return loss, grads, feats if cols is None and hidden else None

    widths = (x_full.shape[0], *hidden, k)
    num_params = sum(a * b for a, b in zip(widths, widths[1:])) + sum(hidden)
    return _Grid(dataset, labels, y_full, make_mlp, grads, lambda m: m.features(x_full),
                 _working_set(widths, _batch(config, labels.shape[0]), num_params),
                 None if hidden else x_full)


def _batch(config: ExperimentConfig, n: int) -> int:
    return n if config.batch_size is None else min(config.batch_size, n)


def _oscillation_step_sizes(config: ExperimentConfig):
    """Step size of each epoch under oscillation_decay: the eta of the coupled
    (a, b) sign dynamics, which shrinks whenever its detector fires."""
    opt = config.optimizer
    k = config.num_classes
    yield opt.lr
    for state, _ in oracles.coupled_signgd_steps(
            k, opt.lr, opt.coupled_wd, opt.schedule.shrink_factor):
        yield state.eta


def _step_sizes(config: ExperimentConfig):
    """The step size of each epoch, drawn as the epoch starts.

    The oscillation_decay schedule takes it from the (a, b) dynamics of
    coupled sign descent on the square frozen-feature geometry from W = 0, so
    it is rejected for any other model, optimizer or init.
    """
    schedule = config.optimizer.schedule
    if schedule.kind != "oscillation_decay":
        return (lr_at(config.optimizer, e, config.epochs) for e in range(config.epochs))
    if config.model_kind != "ufm_fixed_features" or config.optimizer.kind != "signgd_coupled":
        raise DomainError(
            "oscillation_decay requires the square frozen-feature geometry with "
            "coupled sign descent"
        )
    if config.init == "gaussian":
        raise DomainError("oscillation_decay starts from W = 0; a gaussian init breaks "
                          "the (a, b) dynamics")
    return _oscillation_step_sizes(config)


@dataclass
class _Cell:
    """One cell's config and its progress through the training loop."""

    config: ExperimentConfig
    step_sizes: object = None      # iterator of per-epoch step sizes
    records: list = field(default_factory=list)
    weights: list = field(default_factory=list)   # W_0, W_1, ... of a trajectory run
    lr: object = None              # the current epoch's step size
    outcome: object = None         # TrainResult, or the lab error that stopped the cell


def _train_cells(configs, trajectory: bool = False) -> list:
    """Train cells whose configs differ only in optimizer and seed.

    The data is built once. The cells train in consecutive stacks of at most
    _STACK_BUDGET_BYTES estimated working set, each through _train_stack.
    Returns, per config and in order, its TrainResult or the DomainError
    that stopped it, from its config or the data. Any other exception
    propagates. A result's wall_time is the wall time of its stack (the
    first stack's includes building the data). With ``trajectory``, every
    cell keeps its trajectory and logs only what _trajectory describes.
    """
    start = time.perf_counter()
    cells = [_Cell(config) for config in configs]
    ready = []
    for cell in cells:
        try:
            cell.step_sizes = _step_sizes(cell.config)
        except DomainError as exc:
            cell.outcome = exc
            continue
        ready.append(cell)
    if not ready:
        return [cell.outcome for cell in cells]
    config = ready[0].config
    try:
        grid = _setup(config)
        n = grid.labels.shape[0]
        if config.batch_size is not None and config.batch_size > n:
            raise DomainError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    except DomainError as exc:
        for cell in ready:
            cell.outcome = exc
        return [cell.outcome for cell in cells]
    per_stack = max(1, _STACK_BUDGET_BYTES // grid.cell_bytes)
    for i in range(0, len(ready), per_stack):
        stack = ready[i:i + per_stack]
        _train_stack(grid, stack, trajectory)
        now = time.perf_counter()
        for cell in stack:
            if isinstance(cell.outcome, TrainResult):
                cell.outcome.wall_time = now - start
        start = now
    return [cell.outcome for cell in cells]


def _train_stack(grid: _Grid, cells: list, trajectory: bool) -> None:
    """The training loop. Steps the cells of one stack together and sets
    each cell's outcome.

    The cells' models stack into one model of their kind, read only through
    ``parameters()`` (the classifier last), ``grid.grads`` and
    ``grid.features``. It holds views of the buffer of the one Optimizer
    that steps the whole stack once per batch. Every cell keeps its own
    seeded shuffle and step sizes.

    A snapshot records a cell's parameters at its epoch, with the step size
    of the epoch that produced them. In full batch, the snapshot owed after
    an epoch is taken from the forward pass of the next step, which runs on
    the same parameters and yields the stack's features and per-cell losses
    anyway; only the final snapshot computes its own. A mini-batch snapshot
    computes the stack's full-data features once, and each cell reads its
    slice, as a LabeledFeatures of its own. Snapshots are recorded in
    flushes, each one _snapshots pass (one all_metrics call) over the
    stacked W of its snapshots. A stack whose features are its own flushes
    every owed epoch, so that no snapshot's features outlive it. When the
    features are the grid's fixed input (``grid.fixed``, a model with no
    hidden layer), the stack builds one LabeledFeatures over them, which
    every cell and snapshot reads: its class statistics, nc2/nc2n/nc2a and
    nearest-mean decisions are computed once per stack. Its owed snapshots
    wait as W copies with their epoch, step size and loss, and flush when
    the pass would outgrow _FLUSH_BYTES, before a stack whose cells have
    all diverged returns, and at the end of training. A ``trajectory`` stack
    keeps a copy of each cell's classifier at epoch 0 and after every epoch,
    and its snapshots are alpha-only (_snapshots).

    A cell whose batch loss is non-finite skips that step, logs a final
    diagnostic record (from that step's pass in full batch) and leaves the
    stack with status "diverged", the only way a cell leaves before its last
    epoch: the Optimizer drops it with its slices of the parameters and
    optimizer state, and the others go on.
    """
    config = cells[0].config
    k, epochs, period = config.num_classes, config.epochs, config.metric_period
    n = grid.labels.shape[0]
    batch = _batch(config, n)
    full_batch = batch >= n
    made = [grid.make(cell.config) for cell in cells]
    model = made[0].stack(made)
    del made
    opt = Optimizer([cell.config.optimizer for cell in cells], model.parameters())
    model.set_parameters(opt.params)
    shuffles = [np.random.default_rng([cell.config.seed, 1]) for cell in cells]
    fixed = None if grid.fixed is None else LabeledFeatures(grid.fixed, grid.labels, k)
    pending = []            # owed snapshots of a fixed-input stack, not yet recorded
    if fixed is not None:
        capacity = max(1, _FLUSH_BYTES // (8 * k * max(*grid.fixed.shape, k)))

    def collect(indices):
        """Append each cell i's classifier to its trajectory, if kept."""
        if trajectory:
            weight = model.parameters()[-1]
            for i in indices:
                cells[i].weights.append(weight[i].copy())

    def record(owed, weights, data):
        """Append to the cell of each owed (cell, epoch, step size, loss)
        its record, from one _snapshots pass over the stacked classifiers
        ``weights`` and the features ``data``."""
        records = _snapshots([entry[1:4] for entry in owed], weights, data, grid.targets,
                             trajectory)
        for entry, rec in zip(owed, records):
            entry[0].records.append(rec)

    def flush():
        if pending:
            record(pending, np.stack([entry[4] for entry in pending]), fixed)
            pending.clear()

    def log(indices, epoch, forward=None):
        """Owe each cell i in indices its snapshot at its step size.
        ``forward`` is the grid.grads result of a full-batch pass on the
        current parameters; without it the features are computed, unless
        they are the grid's fixed input, whose snapshots wait in ``pending``
        with a copy of their W."""
        weight = model.parameters()[-1]
        losses, _, feats = forward if forward is not None else (None, None, None)
        owed = [(cells[i], epoch, cells[i].lr, None if losses is None else float(losses[i]))
                for i in indices]
        if fixed is None:
            if feats is None:
                feats = grid.features(model)
            record(owed, weight[indices],
                   [LabeledFeatures(feats[i], grid.labels, k) for i in indices])
            return
        for entry, i in zip(owed, indices):
            pending.append(entry + (weight[i].copy(),))
            if len(pending) == capacity:
                flush()

    def finish(i, status):
        cell = cells[i]
        cell.outcome = TrainResult(config=cell.config, records=cell.records, status=status,
                                   wall_time=0.0, model=model.cell(i), dataset=grid.dataset,
                                   weights=cell.weights if trajectory else None)

    for cell in cells:
        cell.lr = lr_at(cell.config.optimizer, 0, epochs)
    collect(range(len(cells)))
    owed = True             # the current parameters' snapshot is not logged yet
    forward = None
    for epoch in range(epochs):
        if full_batch:
            forward = grid.grads(model, None)
            loss, grads = forward[:2]
        if owed:
            log(range(len(cells)), epoch, forward)
        for cell in cells:
            cell.lr = next(cell.step_sizes)
        opt.set_step_sizes([cell.lr for cell in cells])
        if not full_batch:
            order = np.stack([rng.permutation(n) for rng in shuffles])
        for start in range(0, n, batch):
            if not full_batch:
                loss, grads, _ = grid.grads(model, order[:, start:start + batch])
            if not math.isfinite(sum(loss.tolist())):   # else every loss is finite
                finite = np.isfinite(loss)
                diverged = np.flatnonzero(~finite)
                collect(diverged)
                log(diverged, epoch + 1, forward)
                for i in diverged:
                    finish(i, "diverged")
                cells = [cell for cell, kept in zip(cells, finite) if kept]
                if not cells:
                    flush()
                    return
                shuffles = [rng for rng, kept in zip(shuffles, finite) if kept]
                grads = [g[finite] for g in grads]
                opt.keep(finite)
                model.set_parameters(opt.params)
                if not full_batch:
                    order = order[finite]
            opt.step(grads)
        forward = None          # frees its features before the next pass
        collect(range(len(cells)))
        owed = (epoch + 1) % period == 0
    log(range(len(cells)), epochs)
    flush()
    for i, cell in enumerate(cells):
        finish(i, _status_from_records(cell.records, epochs, k))


def run_training(config: ExperimentConfig) -> TrainResult:
    """Train per the config, logging every metric every metric_period epochs.

    The config trains as a one-cell stack of the loop that sweeps use, the
    only code that steps a weight matrix. Mini-batch order is seeded and
    deterministic. A non-finite loss aborts the run with a final diagnostic
    record and status "diverged". The oscillation_decay schedule takes each
    epoch's step size from the (a, b) dynamics of coupled sign descent on the
    square frozen-feature geometry from W = 0, so it is rejected for any
    other model, optimizer or init.
    """
    (result,) = _train_cells([config])
    if not isinstance(result, TrainResult):
        raise result
    if config.output_csv:
        emit_csv(result.records, config.output_csv)
    if config.output_summary:
        emit_summary_json(result, config.output_summary)
    return result


# --- sweeps ---


@dataclass
class SweepSpec:
    """Grids for the optimizer axes of a sweep. Each axis is non-empty and
    holds no value twice (by ==, so 0.0 and -0.0 are one value): a repeat
    would train identical cells. Every grid number is finite, and the
    accuracy threshold lies in [0, 1]: at nan no run would qualify."""

    kinds: tuple = ("sgd_coupled",)
    lrs: tuple = (0.1,)
    momenta: tuple = (0.0,)
    wds: tuple = (0.0,)
    accuracy_threshold: float = 0.99
    base_seed: int = 0

    def __post_init__(self):
        refuse_non_finite(self, ("lrs", "momenta", "wds"))
        _refuse_threshold(self.accuracy_threshold)
        for name in ("kinds", "lrs", "momenta", "wds"):
            values = getattr(self, name)
            if len(values) == 0:
                raise DomainError(f"sweep grid {name} must be non-empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise DomainError(f"sweep grid {name} repeats {value!r}")


def derive_run_seed(base_seed: int, kind: str, lr: float, momentum: float, wd: float) -> int:
    """Stable per-run seed from the base seed and grid coordinates."""
    text = f"{base_seed}|{kind}|{lr!r}|{momentum!r}|{wd!r}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class SweepResult:
    spec: SweepSpec
    base_config: ExperimentConfig
    rows: list
    results: list


def _cell_config(base_config: ExperimentConfig, kind, lr, momentum, wd, seed) -> ExperimentConfig:
    """The base config at one grid point. Its optimizer has the base schedule
    and sets the fields its kind reads: the grid momentum, the grid wd split
    evenly over the decay fields, and the base value of any other field."""
    base = base_config.optimizer
    reads = OPTIMIZER_READS.get(kind, ())
    decay = [name for name in reads if name.endswith("_wd")]
    grid = {"momentum": momentum, **{name: wd / len(decay) for name in decay}}
    opt = OptimizerConfig(kind=kind, lr=lr, schedule=base.schedule,
                          **{name: grid.get(name, getattr(base, name)) for name in reads})
    return replace(base_config, optimizer=opt, seed=seed, output_csv=None, output_summary=None)


def run_sweep(base_config: ExperimentConfig, spec: SweepSpec) -> SweepResult:
    """Run the full grid.

    The cells train together, stacked, through the loop run_training uses,
    and each cell's records equal run_training on its config bit for bit. A
    cell refused with a DomainError, by its config or the data, becomes an
    ``error`` row and the sweep goes on; any other exception is a bug and
    propagates. A diverged cell stops alone. Each result's wall_time is the
    wall time of the stack the cell trained in.
    """
    rows, configs = [], []
    for kind, lr, momentum, wd in product(spec.kinds, spec.lrs, spec.momenta, spec.wds):
        seed = derive_run_seed(spec.base_seed, kind, lr, momentum, wd)
        rows.append({"kind": kind, "lr": lr, "momentum": momentum, "wd": wd, "seed": seed})
        try:
            configs.append(_cell_config(base_config, kind, lr, momentum, wd, seed))
        except DomainError as exc:
            configs.append(exc)
    outcomes = iter(_train_cells([c for c in configs if isinstance(c, ExperimentConfig)]))
    results = []
    for row, config in zip(rows, configs):
        res = next(outcomes) if isinstance(config, ExperimentConfig) else config
        if not isinstance(res, TrainResult):
            row["status"] = "error"
            row["error"] = f"{type(res).__name__}: {res}"
            results.append(None)
            continue
        row["status"] = res.status
        row.update((col, v) for col, v in zip(CSV_COLUMNS, res.records[-1].to_row())
                   if col in _RECORD_COLUMNS)
        results.append(res)
    return SweepResult(spec=spec, base_config=base_config, rows=rows, results=results)


# A sweep row holds the cell's grid point and status, then its final
# record's columns except the record's lr: the row's lr is the grid value.
_RECORD_COLUMNS = tuple(col for col in CSV_COLUMNS if col != "lr")
_SWEEP_COLUMNS = ("kind", "lr", "momentum", "wd", "seed", "status") + _RECORD_COLUMNS


def sweep_summary_csv(sweep: SweepResult) -> str:
    return csv_text([_SWEEP_COLUMNS] + [[row.get(col) for col in _SWEEP_COLUMNS]
                                         for row in sweep.rows])


def _refuse_threshold(threshold: float) -> None:
    """An accuracy threshold lies in [0, 1]; at nan no row would qualify."""
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"accuracy_threshold must lie in [0, 1], got {threshold!r}")


def _qualifies(row: dict, threshold: float) -> bool:
    """A row of an ok run at or above the accuracy threshold. A row without a
    status or train_acc column (a plain two-column file) passes that test."""
    if row.get("status", "ok") != "ok":
        return False
    return "train_acc" not in row or (row["train_acc"] is not None
                                      and row["train_acc"] >= threshold)


def pivot_csv(sweep: SweepResult, kind: str, lr: float, metric: str) -> str:
    """momentum x weight-decay table of a final metric for one (kind, lr).

    Cells for runs that failed the accuracy filter are left empty; the raw
    rows are untouched.
    """
    if metric not in METRIC_KEYS:
        raise DomainError(f"unknown metric {metric!r}")
    index = {(r["momentum"], r["wd"]): r for r in sweep.rows if r["kind"] == kind and r["lr"] == lr}
    momenta = sorted({m for m, _ in index})
    wds = sorted({w for _, w in index})
    rows = [["momentum_wd"] + wds]
    for m in momenta:
        cells = [m]
        for w in wds:
            row = index.get((m, w))
            qualified = row is not None and _qualifies(row, sweep.spec.accuracy_threshold)
            cells.append(row.get(metric) if qualified else None)
        rows.append(cells)
    return csv_text(rows)


def write_sweep_outputs(sweep: SweepResult, outdir) -> list:
    """summary.csv plus one pivot file per (kind, lr) of nc0, nc2 and nc3;
    returns paths."""
    os.makedirs(outdir, exist_ok=True)
    summary_path = os.path.join(outdir, "summary.csv")
    write_file(summary_path, sweep_summary_csv(sweep), "sweep summary")
    paths = [summary_path]
    for kind in sweep.spec.kinds:
        for lr in sweep.spec.lrs:
            for metric in ("nc0", "nc2", "nc3"):
                path = os.path.join(outdir, f"pivot_{metric}_{kind}_lr{lr!r}.csv")
                write_file(path, pivot_csv(sweep, kind, lr, metric), "sweep pivot")
                paths.append(path)
    return paths


def regress_rows(rows, x_metric: str = "nc0", y_metric: str = "nc3",
                 accuracy_threshold: float = 0.99) -> RegressionFit:
    """OLS of one final metric on another across accuracy-qualified rows."""
    _refuse_threshold(accuracy_threshold)
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
    rows: list
    details: dict = field(default_factory=dict)


def _row(t: int, sim: float, pred: float) -> tuple:
    """The check row (t, alpha_sim, alpha_pred, abs_err, rel_err) of one
    step; rel_err is inf where pred is 0 and sim is not."""
    abs_err = abs(sim - pred)
    if pred != 0.0:
        rel_err = abs_err / abs(pred)
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    return (t, sim, pred, abs_err, rel_err)


def _logged_alphas(records, rows) -> list:
    """(logged nc0_alpha, predicted alpha) of each record of a trajectory
    run; row i of a rowsum check is epoch i, so it holds the prediction."""
    return [(rec.values["nc0_alpha"], rows[rec.epoch][2]) for rec in records]


def _trajectory(config: ExperimentConfig) -> TrainResult:
    """The run of a theorem check: ``config`` trains as in run_training,
    ``weights`` holds W_0..W_T indexed by epoch, and the records hold the
    loss, accuracy and nc0_alpha, all that a check reads. It writes no file."""
    (result,) = _train_cells([config], trajectory=True)
    if not isinstance(result, TrainResult):
        raise result
    return result


# The MLP setting of checks 1 and 2, which each set the optimizer, epochs,
# batch size and metric period: 4 classes of 25 Gaussian blobs in 8
# dimensions, two hidden layers of 16.
_CHECK_MLP = ExperimentConfig(model_kind="mlp", num_classes=4, dim=8, per_class=25,
                              hidden_sizes=(16, 16), data_seed=11, seed=0)


def check_decoupled_rowsum_decay(lr: float = 0.05, wd: float = 0.1, momentum: float = 0.9,
                                 epochs: int = 300, tolerance: float = 1e-9) -> CheckResult:
    """Full-batch decoupled SGD on the _CHECK_MLP run: the classifier row-sum
    energy, and the nc0_alpha logged every epoch, must follow
    alpha_t = (1 - lr*wd)^(2t) alpha_0 at ``tolerance`` relative."""
    opt = OptimizerConfig(kind="sgd_decoupled", lr=lr, momentum=momentum, decoupled_wd=wd)
    res = _trajectory(replace(_CHECK_MLP, optimizer=opt, epochs=epochs, metric_period=1))
    alphas = nc0_alpha(np.stack(res.weights))
    alpha0 = alphas[0]
    rows = [_row(t, alpha, oracles.alpha_sgd_decoupled(t, alpha0, lr, wd))
            for t, alpha in enumerate(alphas)]
    logged_ok = all(_row(0, logged, pred)[4] <= tolerance
                    for logged, pred in _logged_alphas(res.records, rows))
    final_alpha = rows[-1][1]
    return CheckResult(
        name="decoupled_rowsum_decay",
        passed=not any(row[4] > tolerance for row in rows) and logged_ok,
        rows=rows,
        details={
            "alpha0": alpha0,
            "final_alpha": final_alpha,
            "final_ratio": final_alpha / alpha0 if alpha0 > 0 else math.nan,
            "logged_alpha_ok": logged_ok,
            "train_status": res.status,
            "train_acc": res.records[-1].train_acc,
        },
    )


def check_coupled_rowsum_recursion(lr: float = 0.05, wd: float = 0.1, momentum: float = 0.9,
                                   epochs: int = 300, batch_size: Optional[int] = 10,
                                   tolerance: float = 1e-9) -> CheckResult:
    """Coupled SGD on the _CHECK_MLP run: W^T 1 must follow the momentum
    recursion per coordinate.

    The per-coordinate comparison is absolute at ``tolerance``; the alpha
    comparisons (each epoch's W and every tenth epoch's logged nc0_alpha) are
    combined absolute/relative against alpha_0 because alpha decays to the
    rounding floor.
    """
    opt = OptimizerConfig(kind="sgd_coupled", lr=lr, momentum=momentum, coupled_wd=wd)
    res = _trajectory(replace(_CHECK_MLP, optimizer=opt, epochs=epochs, batch_size=batch_size,
                              metric_period=10))
    k = _CHECK_MLP.num_classes
    n = k * _CHECK_MLP.per_class
    steps_per_epoch = 1 if batch_size is None else math.ceil(n / batch_size)
    m0 = res.weights[0].sum(axis=0)
    oracle_ms = oracles.rowsum_recursion_coupled(m0, lr, wd, momentum,
                                                 steps=epochs * steps_per_epoch)
    alpha0 = oracles.alpha_from_rowsum(m0, k)
    roots = oracles.char_roots(momentum, lr, wd)
    c_bound = oracles.rowsum_decay_constant(lr, wd, momentum)
    m0_norm = float(np.linalg.norm(m0))
    sums = [(epoch * steps_per_epoch, w.sum(axis=0)) for epoch, w in enumerate(res.weights)]
    rows = [_row(t, oracles.alpha_from_rowsum(m, k), oracles.alpha_from_rowsum(oracle_ms[t], k))
            for t, m in sums]
    coord_errs = [float(np.max(np.abs(m - oracle_ms[t]))) for t, m in sums]
    envelope_ok = not any(float(np.linalg.norm(m))
                          > c_bound * roots.spectral_radius**t * m0_norm * (1.0 + 1e-9) + 1e-12
                          for t, m in sums)
    logged_ok = not any(abs(logged - pred) > tolerance * (alpha0 + abs(pred))
                        for logged, pred in _logged_alphas(res.records, rows))
    passed = (not any(err > tolerance for err in coord_errs)
              and not any(row[3] > tolerance * (alpha0 + abs(row[2])) for row in rows)
              and logged_ok)
    final_alpha = rows[-1][1]
    return CheckResult(
        name="coupled_rowsum_recursion",
        passed=passed,
        rows=rows,
        details={
            "alpha0": alpha0,
            "final_alpha": final_alpha,
            "final_ratio": final_alpha / alpha0 if alpha0 > 0 else math.nan,
            "max_coord_err": max([0.0] + coord_errs),
            "logged_alpha_ok": logged_ok,
            "spectral_radius": roots.spectral_radius,
            "decay_constant": c_bound,
            "envelope_ok": envelope_ok,
            "steps_per_epoch": steps_per_epoch,
            "train_status": res.status,
            "decay_confirmed": final_alpha < alpha0,
        },
    )


# The square frozen-feature geometry of checks 3 and 4, from W = 0.
_CHECK_FRAME = ExperimentConfig(model_kind="ufm_fixed_features", init="zero")


# Weight matrices per stacked gradient call in the theorem-3 check. The
# call's temporaries (about ten chunk-sized arrays) then stay small beside
# the W trajectory the check holds anyway, so they add little to its peak
# memory at any step count.
_GRADIENT_CHUNK = 64


def check_decoupled_sign_plateau(k: int = 10, lr: float = 0.1, wd: float = 0.5,
                                 steps: int = 2000, tolerance: float = 1e-9) -> CheckResult:
    """Decoupled sign descent from W = 0 on the square frozen-feature
    geometry: alpha must climb the exact closed form to (K-2)^2 / wd^2.

    The closed form is evaluated first, so a setting outside its float range
    is refused before the run trains (signgd_decoupled, one full-batch step
    per epoch). Every W_t of the trajectory is compared with it,
    and the gradient at each W_0..W_{steps-1}, recomputed in stacked chunks,
    must have the sign pattern J - 2I that the closed form assumes.
    """
    if k < 3:
        raise DomainError(f"check 3 needs k >= 3, got k = {k}: below 3 the plateau "
                          "(K-2)^2 / wd^2 is 0 and alpha never leaves it")
    optimizer = OptimizerConfig(kind="signgd_decoupled", lr=lr, decoupled_wd=wd)
    predicted = [oracles.alpha_signgd_decoupled(t, k, lr, wd) for t in range(steps + 1)]
    weights = _trajectory(replace(_CHECK_FRAME, num_classes=k, optimizer=optimizer,
                                  epochs=steps, metric_period=steps)).weights
    frame, targets = simplex_etf(k), np.eye(k)
    expected_sign = np.ones((k, k)) - 2.0 * np.eye(k)
    stepped_from = weights[:-1]
    sign_pattern_ok = all(
        (np.sign(ce_loss_and_grad(np.stack(stepped_from[lo:lo + _GRADIENT_CHUNK]), frame,
                                  targets, input_grad=False)[1]) == expected_sign).all()
        for lo in range(0, steps, _GRADIENT_CHUNK))
    rows = [_row(t, alpha, pred)
            for t, (alpha, pred) in enumerate(zip(nc0_alpha(np.stack(weights)), predicted))]
    monotone = not any(row[1] < prev[1] - 1e-12 for prev, row in zip(rows, rows[1:]))
    limit = oracles.alpha_signgd_decoupled_limit(k, wd)
    final_alpha = rows[-1][1]
    within_limit = limit * 0.99 <= final_alpha <= limit * (1.0 + 1e-9)
    passed = (not any(row[4] > tolerance for row in rows)
              and sign_pattern_ok and monotone and within_limit)
    return CheckResult(
        name="decoupled_sign_plateau",
        passed=passed,
        rows=rows,
        details={
            "limit": limit,
            "final_alpha": final_alpha,
            "monotone": monotone,
            "sign_pattern_ok": sign_pattern_ok,
            "within_1pct_of_limit": within_limit,
        },
    )


def check_coupled_sign_oscillation(k: int = 10, lr: float = 0.1, wd: float = 0.5,
                                   shrink: float = 0.5, tol: float = 1e-6,
                                   max_steps: int = 10**5,
                                   tolerance: float = 1e-12) -> CheckResult:
    """Coupled sign descent with oscillation-driven learning-rate decay: the
    weight matrix must stay in the (a, b) two-parameter family, track the
    scalar recursion to ``tolerance``, rise to an interior peak, and fall
    below tol * peak.

    oracles.coupled_signgd_run_with_decay runs the scalar (a, b) dynamics
    once, from step size lr until alpha falls to tol * alpha_peak (its errors
    pass through), and gives the states s_0..s_T. The K x K weight matrix
    then trains through the loop of run_training (signgd_coupled under the
    oscillation_decay schedule) for T steps, and each W_t is compared with s_t.
    """
    states, decay_steps = oracles.coupled_signgd_run_with_decay(k, lr, wd, shrink, tol,
                                                                max_steps)
    steps = len(states) - 1
    schedule = LRSchedule(kind="oscillation_decay", shrink_factor=shrink)
    optimizer = OptimizerConfig(kind="signgd_coupled", lr=lr, coupled_wd=wd, schedule=schedule)
    weights = _trajectory(replace(_CHECK_FRAME, num_classes=k, optimizer=optimizer,
                                  epochs=steps, metric_period=steps)).weights
    off_mask = ~np.eye(k, dtype=bool)
    rows = []
    family_dev_max = scalar_dev_max = 0.0
    for t, (w, state) in enumerate(zip(weights, states)):
        diag, off = np.diag(w), w[off_mask]
        family_dev_max = max(family_dev_max,
                             float(max(diag.max() - diag.min(), off.max() - off.min())))
        scalar_dev_max = max(scalar_dev_max,
                             float(max(abs(diag[0] - state.a), abs(-off[0] - state.b))))
        rows.append(_row(t, nc0_alpha(w), oracles.scalar_alpha(state, k)))
    peak_step, peak = max(rows, key=lambda row: row[1])[:2]
    final_alpha = rows[-1][1]
    interior_peak = 0 < peak_step < steps and peak > max(rows[0][1], final_alpha)
    passed = (
        final_alpha <= tol * peak
        and family_dev_max <= tolerance
        and scalar_dev_max <= tolerance
        and interior_peak
    )
    return CheckResult(
        name="coupled_sign_oscillation",
        passed=passed,
        rows=rows,
        details={
            "alpha_peak": peak,
            "peak_step": peak_step,
            "final_alpha": final_alpha,
            "terminated_at": steps,
            "decay_steps": decay_steps,
            "final_eta": states[-1].eta,
            "family_dev_max": family_dev_max,
            "scalar_dev_max": scalar_dev_max,
            "phase_reached": states[-1].phase,
        },
    )


THEOREM_CHECKS = {
    "1": check_decoupled_rowsum_decay,
    "2": check_coupled_rowsum_recursion,
    "3": check_decoupled_sign_plateau,
    "4": check_coupled_sign_oscillation,
}
