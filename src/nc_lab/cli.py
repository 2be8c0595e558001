"""Command-line entry points.

Subcommands: ``train`` and ``sweep`` drive experiments from flat key=value
config files, ``oracle`` prints closed-form alpha trajectories, indexed by the
theorem numbering used throughout the interface, ``check-theorem`` replays a
simulation against the matching closed form and exits 2 when the comparison
fails tolerance, ``metrics`` evaluates the collapse metric bundle on saved
matrices, and ``regress`` fits one sweep metric against another.

``check-theorem N`` passes each flag it is given to harness.THEOREM_CHECKS[N]
under the flag's name; a flag that the check's signature does not name is an
error (exit 1) before anything trains.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from . import oracles
from .errors import DomainError
from .harness import (
    SweepSpec,
    THEOREM_CHECKS,
    _cast_value,
    _csv_text,
    _jsonable,
    _read_config_file,
    _read_csv_rows,
    _write_file,
    config_from_mapping,
    format_metric_csv,
    load_config,
    regress_rows,
    run_sweep,
    run_training,
    write_sweep_outputs,
)
from .linalg import load_matrix
from .metrics import METRIC_KEYS, LabeledFeatures, all_metrics

__all__ = ["main", "build_parser"]


def _write_text(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_file(out_path, text, "CSV")


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


# sweep.* key -> (target, caster), cast by _cast_value as the run-config keys
# are. A target is a SweepSpec field, or outdir: the directory the sweep
# writes to.
_SWEEP_CASTS = {
    "sweep.kinds": ("kinds", "str_tuple"),
    "sweep.lrs": ("lrs", "float_tuple"),
    "sweep.momenta": ("momenta", "float_tuple"),
    "sweep.wds": ("wds", "float_tuple"),
    "sweep.accuracy_threshold": ("accuracy_threshold", float),
    "sweep.base_seed": ("base_seed", int),
    "sweep.outdir": ("outdir", str),
}


def cmd_sweep(args) -> int:
    mapping = _read_config_file(args.config)
    kwargs = {}
    for key, (name, caster) in _SWEEP_CASTS.items():
        if key in mapping:
            kwargs[name] = _cast_value(key, caster, mapping.pop(key))
    outdir = kwargs.pop("outdir", "sweep_output")
    if args.outdir is not None:
        outdir = args.outdir
    spec = SweepSpec(**kwargs)
    sweep = run_sweep(config_from_mapping(mapping), spec)
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
    _write_text(_csv_text([("t", "alpha_predicted")] + rows), args.out)
    return 0


def cmd_check(args) -> int:
    check = THEOREM_CHECKS[args.theorem]
    given = {name: value for name, value in vars(args).items()
             if name not in ("command", "func", "theorem", "out")}
    takes = inspect.signature(check).parameters
    refused = ["--" + name.replace("_", "-") for name in given if name not in takes]
    if refused:
        raise DomainError(f"check-theorem {args.theorem} takes no {', '.join(refused)}")
    result = check(**given)
    header = ("t", "alpha_sim", "alpha_pred", "abs_err", "rel_err")
    _write_text(_csv_text([header] + result.rows), args.out)
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


def cmd_regress(args) -> int:
    """OLS of one column on another: a sweep summary is filtered to ok runs
    at or above the accuracy threshold, a plain two-column file is not."""
    try:
        with open(args.csv, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {args.csv}: {exc}") from exc
    header, rows = _read_csv_rows(text)
    for name in (args.x, args.y):
        if name not in header:
            raise ValueError(f"column {name!r} not found in {args.csv}")
    fit = regress_rows(rows, args.x, args.y, args.accuracy_threshold)
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

    # A check flag that is not given is left out of the namespace, so the
    # check's own default applies.
    p_check = sub.add_parser(
        "check-theorem", help="simulate and compare against the closed form",
        argument_default=argparse.SUPPRESS,
    )
    p_check.add_argument("theorem", choices=tuple(THEOREM_CHECKS))
    p_check.add_argument("--lr", type=float)
    p_check.add_argument("--wd", type=float)
    p_check.add_argument("--momentum", type=float)
    p_check.add_argument("--epochs", type=int)
    p_check.add_argument("--steps", type=int)
    p_check.add_argument("--batch-size", type=int)
    p_check.add_argument("--k", type=int)
    p_check.add_argument("--shrink", type=float)
    p_check.add_argument("--tolerance", type=float)
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
