"""Command-line entry points.

Subcommands: ``train`` and ``sweep`` drive experiments from flat key=value
config files, ``oracle`` prints closed-form alpha trajectories, indexed by the
theorem numbering used throughout the interface, ``check-theorem`` replays a
simulation against the matching closed form and exits 2 when the comparison
fails tolerance, ``metrics`` evaluates the collapse metric bundle on saved
matrices, and ``regress`` fits one sweep metric against another.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import oracles
from .harness import (
    SweepSpec,
    THEOREM_CHECKS,
    _format_cell,
    _jsonable,
    config_from_mapping,
    format_metric_csv,
    load_config,
    parse_config_text,
    run_sweep,
    run_training,
    write_sweep_outputs,
)
from .linalg import load_matrix
from .metrics import METRIC_KEYS, LabeledFeatures, all_metrics
from .stats import ols_fit

__all__ = ["main", "build_parser"]


def _write_text(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc}") from exc


def _rows_to_csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    config = load_config(args.config)
    result = run_training(config)
    if config.output_csv is None:
        sys.stdout.write(format_metric_csv(result.records))
    print(
        f"status={result.status} records={len(result.records)} "
        f"wall_time_s={result.wall_time:.3f}",
        file=sys.stderr,
    )
    return 0


_SWEEP_KEYS = {
    "sweep.kinds": "kinds",
    "sweep.lrs": "lrs",
    "sweep.momenta": "momenta",
    "sweep.wds": "wds",
    "sweep.accuracy_threshold": "accuracy_threshold",
    "sweep.base_seed": "base_seed",
    "sweep.outdir": None,
}


def split_sweep_mapping(mapping: dict):
    """Pull sweep.* keys out of a parsed config mapping.

    Returns (sweep kwargs, outdir or None, remaining run-config mapping).
    """
    kwargs = {}
    outdir = None
    rest = {}
    for key, raw in mapping.items():
        if key not in _SWEEP_KEYS:
            rest[key] = raw
            continue
        if key == "sweep.outdir":
            outdir = raw
        elif key == "sweep.kinds":
            kwargs["kinds"] = tuple(p.strip() for p in raw.split(",") if p.strip())
        elif key == "sweep.accuracy_threshold":
            kwargs["accuracy_threshold"] = float(raw)
        elif key == "sweep.base_seed":
            kwargs["base_seed"] = int(raw)
        else:
            kwargs[_SWEEP_KEYS[key]] = tuple(float(p) for p in raw.split(",") if p.strip())
    return kwargs, outdir, rest


def cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {args.config}: {exc}") from exc
    kwargs, outdir, rest = split_sweep_mapping(parse_config_text(text))
    base_config = config_from_mapping(rest)
    spec = SweepSpec(**kwargs)
    if args.outdir is not None:
        outdir = args.outdir
    if outdir is None:
        outdir = "sweep_output"
    sweep = run_sweep(base_config, spec)
    paths = write_sweep_outputs(sweep, outdir)
    n_ok = sum(1 for r in sweep.rows if r.get("status") == "ok")
    print(f"{len(sweep.rows)} runs ({n_ok} ok) -> {paths[0]}", file=sys.stderr)
    sys.stdout.write(paths[0] + "\n")
    return 0


def _oracle_rows(args):
    if args.theorem == "1":
        return [(t, oracles.alpha_sgd_decoupled(t, args.alpha0, args.lr, args.wd))
                for t in range(args.steps + 1)]
    if args.theorem == "2":
        m0 = np.array([float(p) for p in args.m0.split(",") if p.strip()])
        ms = oracles.rowsum_recursion_coupled(m0, args.lr, args.wd, args.momentum, args.steps)
        k = args.k if args.k is not None else m0.size
        return [(t, oracles.alpha_from_rowsum(m, k)) for t, m in enumerate(ms)]
    if args.theorem == "3":
        k = args.k if args.k is not None else 10
        return [(t, oracles.alpha_signgd_decoupled(t, k, args.lr, args.wd))
                for t in range(args.steps + 1)]
    if args.theorem == "4":
        k = args.k if args.k is not None else 10
        n = args.n if args.n is not None else k
        traj = oracles.coupled_signgd_run_with_decay(
            k, n, args.lr, args.wd, shrink=args.shrink, tol=args.tol,
            max_steps=args.max_steps,
        )
        return list(traj.points)
    ts = np.linspace(0.0, args.tmax, args.points)
    vals = oracles.ode_alpha_closed_form(ts, args.alpha0, args.wd, args.momentum)
    return list(zip(ts.tolist(), np.atleast_1d(vals).tolist()))


def cmd_oracle(args) -> int:
    rows = _oracle_rows(args)
    _write_text(_rows_to_csv("t,alpha_predicted", rows), args.out)
    return 0


def _check_kwargs(args) -> dict:
    named = {
        "1": {"lr": args.lr, "wd": args.wd, "momentum": args.momentum,
              "epochs": args.epochs, "tolerance": args.tolerance},
        "2": {"lr": args.lr, "wd": args.wd, "momentum": args.momentum,
              "epochs": args.epochs, "batch_size": args.batch_size,
              "tolerance": args.tolerance},
        "3": {"num_classes": args.k, "lr": args.lr, "wd": args.wd,
              "steps": args.steps, "tolerance": args.tolerance},
        "4": {"num_classes": args.k, "lr0": args.lr, "wd": args.wd,
              "shrink": args.shrink, "family_tolerance": args.tolerance},
    }[args.theorem]
    kwargs = {key: value for key, value in named.items() if value is not None}
    if args.theorem == "2" and "momentum" not in kwargs:
        kwargs["momentum"] = 0.9
    return kwargs


def cmd_check(args) -> int:
    check = THEOREM_CHECKS[args.theorem]
    result = check(**_check_kwargs(args))
    _write_text(_rows_to_csv("t,alpha_sim,alpha_pred,abs_err,rel_err", result.rows), args.out)
    detail = " ".join(f"{k}={v}" for k, v in sorted(result.details.items())
                      if not isinstance(v, (list, dict)))
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'} {detail}", file=sys.stderr)
    return 0 if result.passed else 2


def _load_labels(path) -> np.ndarray:
    """Labels file: one integer per line, blank lines ignored."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise OSError(f"cannot read labels from {path}: {exc}") from exc
    try:
        return np.array([int(ln) for ln in lines if ln], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"labels file {path} must contain one integer per line") from exc


def cmd_metrics(args) -> int:
    w = load_matrix(args.weights)
    feats = load_matrix(args.features)
    labels = _load_labels(args.labels)
    k = args.num_classes if args.num_classes is not None else int(labels.max()) + 1
    data = LabeledFeatures(feats, labels, k)
    bundle = all_metrics(w, data)
    payload = {key: _jsonable(bundle[key]) for key in METRIC_KEYS}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _read_csv_columns(path, x_name: str, y_name: str, threshold: float):
    """Pull two named columns from a headered CSV.

    Sweep summaries are filtered to status "ok" runs above the accuracy
    threshold; a plain two-column file has neither column and passes through.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split(",")
    for name in (x_name, y_name):
        if name not in header:
            raise ValueError(f"column {name!r} not found in {path}")
    xs, ys = [], []
    for ln in lines[1:]:
        cells = dict(zip(header, ln.split(",")))
        if "status" in cells and cells["status"] != "ok":
            continue
        if "train_acc" in cells:
            if cells["train_acc"] == "" or float(cells["train_acc"]) < threshold:
                continue
        if cells.get(x_name, "") == "" or cells.get(y_name, "") == "":
            continue
        xs.append(float(cells[x_name]))
        ys.append(float(cells[y_name]))
    return xs, ys


def cmd_regress(args) -> int:
    xs, ys = _read_csv_columns(args.csv, args.x, args.y, args.accuracy_threshold)
    if len(xs) < 3:
        raise ValueError(f"need at least 3 qualifying rows, have {len(xs)}")
    fit = ols_fit(xs, ys)
    json.dump({k: _jsonable(v) for k, v in fit.to_dict().items()}, sys.stdout,
              indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nc-lab",
        description="Collapse-metric training lab: runs, sweeps, closed-form checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training config")
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a hyperparameter grid")
    p_sweep.add_argument("--config", required=True,
                         help="run config plus sweep.* grid keys")
    p_sweep.add_argument("--outdir", default=None, help="override sweep.outdir")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="print a closed-form alpha trajectory")
    p_oracle.add_argument("--theorem", required=True, choices=("1", "2", "3", "4", "ode"))
    p_oracle.add_argument("--alpha0", type=float, default=1.0)
    p_oracle.add_argument("--lr", type=float, default=0.05)
    p_oracle.add_argument("--wd", type=float, default=0.1)
    p_oracle.add_argument("--momentum", type=float, default=0.9)
    p_oracle.add_argument("--steps", type=int, default=300)
    p_oracle.add_argument("--k", type=int, default=None, help="number of classes")
    p_oracle.add_argument("--n", type=int, default=None, help="sample count (defaults to k)")
    p_oracle.add_argument("--m0", default="1", help="comma-separated initial row sums")
    p_oracle.add_argument("--shrink", type=float, default=0.5)
    p_oracle.add_argument("--tol", type=float, default=1e-6)
    p_oracle.add_argument("--max-steps", type=int, default=10**5)
    p_oracle.add_argument("--tmax", type=float, default=50.0)
    p_oracle.add_argument("--points", type=int, default=101)
    p_oracle.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_oracle.set_defaults(func=cmd_oracle)

    p_check = sub.add_parser(
        "check-theorem", help="simulate and compare against the closed form",
    )
    p_check.add_argument("theorem", choices=("1", "2", "3", "4"))
    p_check.add_argument("--lr", type=float, default=None)
    p_check.add_argument("--wd", type=float, default=None)
    p_check.add_argument("--momentum", type=float, default=None)
    p_check.add_argument("--epochs", type=int, default=None)
    p_check.add_argument("--steps", type=int, default=None)
    p_check.add_argument("--batch-size", type=int, default=None)
    p_check.add_argument("--k", type=int, default=None)
    p_check.add_argument("--shrink", type=float, default=None)
    p_check.add_argument("--tolerance", type=float, default=None)
    p_check.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_check.set_defaults(func=cmd_check)

    p_metrics = sub.add_parser("metrics", help="evaluate the metric bundle on saved matrices")
    p_metrics.add_argument("--weights", required=True)
    p_metrics.add_argument("--features", required=True)
    p_metrics.add_argument("--labels", required=True)
    p_metrics.add_argument("--num-classes", type=int, default=None)
    p_metrics.set_defaults(func=cmd_metrics)

    p_regress = sub.add_parser("regress", help="fit one sweep metric against another")
    p_regress.add_argument("--csv", required=True, help="sweep summary CSV")
    p_regress.add_argument("--x", default="nc0")
    p_regress.add_argument("--y", default="nc3")
    p_regress.add_argument("--accuracy-threshold", type=float, default=0.99)
    p_regress.set_defaults(func=cmd_regress)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
