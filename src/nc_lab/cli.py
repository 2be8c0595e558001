"""Command-line entry points.

Subcommands: ``train`` and ``sweep`` drive experiments from flat key=value
config files, ``oracle`` prints closed-form alpha trajectories, indexed by the
theorem numbering used throughout the interface, ``check-theorem`` replays a
simulation against the matching closed form and exits 2 when the comparison
fails tolerance, ``metrics`` evaluates the collapse metric bundle on saved
matrices, and ``regress`` fits one sweep metric against another.

``check-theorem N`` passes each flag it is given to harness.THEOREM_CHECKS[N]
under the flag's name, and ``oracle --theorem N`` to ORACLE_ROWS[N]; a flag
that the function's signature does not name is an error (exit 1) before
anything trains or is written. A flag that the command does not have, or a
prefix of one, is a usage error (exit 2).

The harness reads and writes the config, CSV and JSON formats, and the
commands reach it only through its public names.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import partial

import numpy as np

from . import oracles
from .errors import DomainError, NumericError
from .harness import (
    THEOREM_CHECKS,
    csv_text,
    format_metric_csv,
    jsonable,
    load_config,
    load_sweep,
    parse_csv,
    read_file,
    regress_rows,
    run_sweep,
    run_training,
    write_file,
    write_sweep_outputs,
)
from .linalg import parse_matrix
from .metrics import METRIC_KEYS, LabeledFeatures, all_metrics

__all__ = ["main", "build_parser"]


def _write_text(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_file(out_path, text, "CSV")


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


def cmd_sweep(args) -> int:
    """Load, run, write. Each error row's message goes to stderr, since the
    summary CSV has no column for it."""
    base, spec, outdir = load_sweep(args.config)
    sweep = run_sweep(base, spec)
    paths = write_sweep_outputs(sweep, outdir if args.outdir is None else args.outdir)
    for r in sweep.rows:
        if r["status"] == "error":
            print(f"error row kind={r['kind']} lr={r['lr']!r} momentum={r['momentum']!r} "
                  f"wd={r['wd']!r}: {r['error']}", file=sys.stderr)
    n_ok = sum(1 for r in sweep.rows if r["status"] == "ok")
    print(f"{len(sweep.rows)} runs ({n_ok} ok) -> {paths[0]}", file=sys.stderr)
    sys.stdout.write(paths[0] + "\n")
    return 0


# The trajectory of each ``oracle --theorem``, one row function per theorem:
# its keyword parameters are the flags it takes. Theorem 2's k defaults to the
# number of row sums in m0.
def _steps(steps: int) -> range:
    """The steps 0..steps of a trajectory."""
    if steps < 0:
        raise DomainError("steps must be >= 0")
    return range(steps + 1)


def _decoupled_power_law(alpha0=1.0, lr=0.05, wd=0.1, steps=300):
    return [(t, oracles.alpha_sgd_decoupled(t, alpha0, lr, wd)) for t in _steps(steps)]


def _coupled_rowsum_recursion(m0="1", k=None, lr=0.05, wd=0.1, momentum=0.9, steps=300):
    m0 = np.array([float(p) for p in m0.split(",") if p.strip()])
    if m0.size == 0:
        raise DomainError("m0 must hold at least one row sum")
    k = m0.size if k is None else k
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    ms = oracles.rowsum_recursion_coupled(m0, lr, wd, momentum, steps)
    return [(t, oracles.alpha_from_rowsum(m, k)) for t, m in enumerate(ms)]


def _decoupled_sign_climb(k=10, lr=0.05, wd=0.1, steps=300):
    return [(t, oracles.alpha_signgd_decoupled(t, k, lr, wd)) for t in _steps(steps)]


def _coupled_sign_decay(k=10, lr=0.05, wd=0.1, shrink=0.5, tol=1e-6, max_steps=10**5):
    states, _ = oracles.coupled_signgd_run_with_decay(k, lr, wd, shrink, tol, max_steps)
    return [(s.t, oracles.scalar_alpha(s, k)) for s in states]


def _memory_kernel_curve(alpha0=1.0, wd=0.1, momentum=0.9, tmax=50.0, points=101):
    ts = np.linspace(0.0, tmax, points)
    vals = oracles.ode_alpha_closed_form(ts, alpha0, wd, momentum)
    return list(zip(ts.tolist(), np.atleast_1d(vals).tolist()))


ORACLE_ROWS = {
    "1": _decoupled_power_law,
    "2": _coupled_rowsum_recursion,
    "3": _decoupled_sign_climb,
    "4": _coupled_sign_decay,
    "ode": _memory_kernel_curve,
}


def _call_with_flags(fn, args, command: str):
    """fn called with each flag given on the command line, under the flag's
    name. A flag that fn's signature does not name is an error, before fn
    runs."""
    given = {name: value for name, value in vars(args).items()
             if name not in ("command", "func", "theorem", "out")}
    takes = inspect.signature(fn).parameters
    refused = ["--" + name.replace("_", "-") for name in given if name not in takes]
    if refused:
        raise DomainError(f"{command} takes no {', '.join(refused)}")
    return fn(**given)


def cmd_oracle(args) -> int:
    rows = _call_with_flags(ORACLE_ROWS[args.theorem], args, f"oracle --theorem {args.theorem}")
    _write_text(csv_text([("t", "alpha_predicted")] + rows), args.out)
    return 0


def cmd_check(args) -> int:
    result = _call_with_flags(THEOREM_CHECKS[args.theorem], args,
                              f"check-theorem {args.theorem}")
    header = ("t", "alpha_sim", "alpha_pred", "abs_err", "rel_err")
    _write_text(csv_text([header] + result.rows), args.out)
    detail = " ".join(f"{k}={v}" for k, v in sorted(result.details.items())
                      if not isinstance(v, (list, dict)))
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'} {detail}", file=sys.stderr)
    return 0 if result.passed else 2


def _load_labels(path) -> np.ndarray:
    """Labels file: one integer per line, blank lines ignored, at least one."""
    lines = [ln.strip() for ln in read_file(path, "labels").splitlines()]
    try:
        labels = np.array([int(ln) for ln in lines if ln], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"labels file {path} must contain one integer per line") from exc
    if labels.size == 0:
        raise ValueError(f"labels file {path} holds no labels")
    return labels


def _load_matrix(path, flag: str, what: str) -> np.ndarray:
    """The matrix file given with ``flag``; a parse error names the flag
    and the path, since ``metrics`` reads two such files."""
    text = read_file(path, what)
    try:
        return parse_matrix(text)
    except (ValueError, NumericError) as exc:
        raise type(exc)(f"{flag} {path}: {exc}") from exc


def cmd_metrics(args) -> int:
    w = _load_matrix(args.weights, "--weights", "weights matrix")
    feats = _load_matrix(args.features, "--features", "features matrix")
    labels = _load_labels(args.labels)
    k = args.num_classes if args.num_classes is not None else int(labels.max()) + 1
    data = LabeledFeatures(feats, labels, k)
    bundle = all_metrics(w, data)
    payload = {key: jsonable(bundle[key]) for key in METRIC_KEYS}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_regress(args) -> int:
    """OLS of one column on another: a sweep summary is filtered to ok runs
    at or above the accuracy threshold, a plain two-column file is not."""
    header, rows = parse_csv(read_file(args.csv, "CSV"))
    for name in (args.x, args.y):
        if name not in header:
            raise ValueError(f"column {name!r} not found in {args.csv}")
    fit = regress_rows(rows, args.x, args.y, args.accuracy_threshold)
    json.dump({k: jsonable(v) for k, v in fit.to_dict().items()}, sys.stdout,
              indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nc-lab",
        description="Collapse-metric training lab: runs, sweeps, closed-form checks.",
        allow_abbrev=False,
    )
    # A prefix is not its flag: `--tol` must not set `--tolerance`.
    sub = parser.add_subparsers(dest="command", required=True, parser_class=partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p_train = sub.add_parser("train", help="run one training config")
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a hyperparameter grid")
    p_sweep.add_argument("--config", required=True,
                         help="run config plus sweep.* grid keys")
    p_sweep.add_argument("--outdir", default=None, help="override sweep.outdir")
    p_sweep.set_defaults(func=cmd_sweep)

    # An oracle or check flag that is not given is left out of the
    # namespace, so the row function's or check's own default applies.
    p_oracle = sub.add_parser("oracle", help="print a closed-form alpha trajectory",
                              argument_default=argparse.SUPPRESS)
    p_oracle.add_argument("--theorem", required=True, choices=tuple(ORACLE_ROWS))
    for flag in ("--alpha0", "--lr", "--wd", "--momentum", "--shrink", "--tol", "--tmax"):
        p_oracle.add_argument(flag, type=float)
    for flag in ("--steps", "--k", "--max-steps", "--points"):
        p_oracle.add_argument(flag, type=int)
    p_oracle.add_argument("--m0", help="comma-separated initial row sums")
    p_oracle.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_oracle.set_defaults(func=cmd_oracle)

    p_check = sub.add_parser(
        "check-theorem", help="simulate and compare against the closed form",
        argument_default=argparse.SUPPRESS,
    )
    p_check.add_argument("theorem", choices=tuple(THEOREM_CHECKS))
    for flag in ("--lr", "--wd", "--momentum", "--shrink", "--tolerance"):
        p_check.add_argument(flag, type=float)
    for flag in ("--epochs", "--steps", "--batch-size", "--k"):
        p_check.add_argument(flag, type=int)
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
