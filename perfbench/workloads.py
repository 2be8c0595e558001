"""The benchmark's two workloads.

A workload is built from the run's seed and hands out rounds of operations.
Every round of a workload does the same amount of work; the seed only picks
the data seeds and hyperparameters inside fixed ranges. Each operation is a
call into nc_lab the way a user makes it, plus a verify step that runs
outside the timed region.

The program is always reached through module attributes (``cli.main``,
``harness.run_sweep``, ...), never through names bound at import, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nc_lab import cli, harness, optim

import checks


@dataclass
class Op:
    """One timed operation: ``run`` calls the program, ``verify`` checks its
    output and returns a list of problems. ``steps`` counts the optimizer
    steps the inputs ask for."""

    steps: int
    run: Callable
    verify: Callable


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


class PaperChecks:
    """What a reader runs to check the paper, one round per operation.

    Through ``nc_lab.cli.main``: ``check-theorem`` 1, 2 and 3 and one
    oscillation-decay ``train`` run. Through the harness: one ``run_sweep``
    grid on the (16, 16) MLP over blobs, its outputs written with
    ``write_sweep_outputs`` and nc3 regressed on nc0 with ``regress_runs``.
    K cycles through 4..10 with N kept near 100, so every grid takes the same
    number of steps.
    """

    C1_EPOCHS = 300
    C2_EPOCHS = 300
    C2_BATCH = 10
    C2_SAMPLES = 100          # check-theorem 2 trains on 4 classes x 25 samples
    C3_STEPS = 2000
    OSC_EPOCHS = 5000
    OSC_PERIOD = 10
    SWEEP_KINDS = ("sgd_coupled", "sgd_decoupled", "signgd_coupled", "signgd_decoupled",
                   "adam", "adam_w")
    SWEEP_LRS = (0.01, 0.03)
    SWEEP_MOMENTA = (0.0, 0.9)
    SWEEP_WDS = (0.01,)
    SWEEP_EPOCHS = 30
    SWEEP_PERIOD = 15
    SWEEP_BATCH = 10
    SWEEP_SAMPLES = 100
    SWEEP_DIM = 16

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.osc_csv = os.path.join(workdir, "oscillation.csv")
        self.osc_config = os.path.join(workdir, "oscillation.cfg")
        with open(self.osc_config, "w", encoding="utf-8") as fh:
            fh.write(
                "model.kind = ufm_fixed_features\n"
                "data.k = 10\n"
                "optimizer.kind = signgd_coupled\n"
                "optimizer.lr = 0.001\n"
                "optimizer.coupled_wd = 0.01\n"
                "optimizer.schedule = oscillation_decay\n"
                f"train.epochs = {self.OSC_EPOCHS}\n"
                f"train.metric_period = {self.OSC_PERIOD}\n"
                f"train.seed = {seed}\n"
                f"output.csv = {self.osc_csv}\n"
                f"output.summary = {os.path.join(workdir, 'oscillation.json')}\n"
            )

    def round_ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        checks_steps, run_checks, verify_checks = self._theorem_part(r, rng)
        sweep_steps, run_sweep, verify_sweep = self._sweep_part(r, rng)

        def run():
            return run_checks(), run_sweep()

        def verify(out):
            return verify_checks(out[0]) + verify_sweep(out[1])

        return [Op(checks_steps + sweep_steps, run, verify)]

    def _theorem_part(self, r: int, rng):
        c1 = {"lr": rng.uniform(0.03, 0.07), "wd": rng.uniform(0.05, 0.15),
              "momentum": float(rng.choice([0.0, 0.5, 0.9]))}
        c2 = {"lr": rng.uniform(0.03, 0.07), "wd": rng.uniform(0.05, 0.15), "momentum": 0.9}
        c3 = {"k": 4 + r % 9, "lr": 0.1, "wd": rng.uniform(0.3, 0.7)}
        out = {n: os.path.join(self.workdir, f"theorem{n}.csv") for n in "123"}
        argv = [
            ["check-theorem", "1", "--lr", repr(c1["lr"]), "--wd", repr(c1["wd"]),
             "--momentum", repr(c1["momentum"]), "--epochs", str(self.C1_EPOCHS),
             "--out", out["1"]],
            ["check-theorem", "2", "--lr", repr(c2["lr"]), "--wd", repr(c2["wd"]),
             "--momentum", repr(c2["momentum"]), "--epochs", str(self.C2_EPOCHS),
             "--batch-size", str(self.C2_BATCH), "--out", out["2"]],
            ["check-theorem", "3", "--k", str(c3["k"]), "--lr", repr(c3["lr"]),
             "--wd", repr(c3["wd"]), "--steps", str(self.C3_STEPS), "--out", out["3"]],
            ["train", "--config", self.osc_config],
        ]
        c2_steps_per_epoch = math.ceil(self.C2_SAMPLES / self.C2_BATCH)

        def run():
            with contextlib.redirect_stderr(io.StringIO()):
                return [cli.main(a) for a in argv]

        def verify(codes):
            if codes != [0, 0, 0, 0]:
                return [f"exit codes {codes}, expected all 0"]
            return (
                checks.check_decoupled_rows(checks.read_csv(out["1"]), c1["lr"], c1["wd"],
                                            self.C1_EPOCHS)
                + checks.check_coupled_rows(checks.read_csv(out["2"]), c2["lr"], c2["wd"],
                                            c2["momentum"], self.C2_EPOCHS, c2_steps_per_epoch)
                + checks.check_sign_plateau_rows(checks.read_csv(out["3"]), c3["k"], c3["wd"],
                                                 self.C3_STEPS)
                + checks.check_oscillation_rows(checks.read_csv(self.osc_csv),
                                                self.OSC_EPOCHS, self.OSC_PERIOD)
            )

        steps = (self.C1_EPOCHS + self.C2_EPOCHS * c2_steps_per_epoch + self.C3_STEPS
                 + self.OSC_EPOCHS)
        return steps, run, verify

    def _sweep_part(self, r: int, rng):
        k = 4 + r % 7
        per_class = self.SWEEP_SAMPLES // k
        base = harness.ExperimentConfig(
            model_kind="mlp", hidden_sizes=(16, 16), num_classes=k, dim=self.SWEEP_DIM,
            per_class=per_class, data_seed=_draw_seed(rng), epochs=self.SWEEP_EPOCHS,
            batch_size=self.SWEEP_BATCH, metric_period=self.SWEEP_PERIOD,
        )
        spec = harness.SweepSpec(kinds=self.SWEEP_KINDS, lrs=self.SWEEP_LRS,
                                 momenta=self.SWEEP_MOMENTA, wds=self.SWEEP_WDS,
                                 base_seed=_draw_seed(rng), accuracy_threshold=0.99)
        outdir = os.path.join(self.workdir, "sweep")
        steps_per_run = self.SWEEP_EPOCHS * math.ceil(k * per_class / self.SWEEP_BATCH)
        cells = (len(self.SWEEP_KINDS) * len(self.SWEEP_LRS) * len(self.SWEEP_MOMENTA)
                 * len(self.SWEEP_WDS))

        def run():
            sweep = harness.run_sweep(base, spec)
            paths = harness.write_sweep_outputs(sweep, outdir)
            fit = harness.regress_runs(sweep)
            return sweep, paths, fit

        def verify(out):
            sweep, paths, fit = out
            problems = []
            if len(sweep.rows) != cells:
                return [f"{len(sweep.rows)} cells, expected {cells}"]
            for row, res in zip(sweep.rows, sweep.results):
                label = f"{row['kind']} lr={row['lr']} m={row['momentum']} wd={row['wd']}"
                if row["status"] != "ok":
                    problems.append(f"{label}: status {row['status']} {row.get('error', '')}")
                    continue
                problems += checks.check_alpha_matches_weight(label, row["nc0_alpha"],
                                                              res.model.final_weight)
                problems += checks.check_rowsum_law(
                    row["kind"], res.records[0].values["nc0_alpha"], row["nc0_alpha"],
                    row["lr"], row["wd"], row["momentum"], steps_per_run,
                )
            problems += checks.check_summary_readback(paths[0], sweep.rows)
            xs, ys = checks.qualifying_xy(sweep.rows, spec.accuracy_threshold)
            problems += checks.check_ols(xs, ys, fit.n, fit.slope, fit.intercept)
            return problems

        return cells * steps_per_run, run, verify


class StressTrain:
    """Full-batch MLP training at K=100, d=128, one hidden layer of 256,
    N=5000, with a metric snapshot every epoch and the CSV and summary JSON
    written. One round is one coupled and one decoupled SGD run."""

    K = 100
    DIM = 128
    HIDDEN = (256,)
    PER_CLASS = 50
    EPOCHS = 3
    LR = 0.1
    MOMENTUM = 0.9
    WD = 0.05
    KINDS = ("sgd_coupled", "sgd_decoupled")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _config(self, kind: str, rng):
        wd = {"coupled_wd": self.WD} if kind == "sgd_coupled" else {"decoupled_wd": self.WD}
        opt = optim.OptimizerConfig(kind=kind, lr=self.LR, momentum=self.MOMENTUM, **wd)
        return harness.ExperimentConfig(
            model_kind="mlp", hidden_sizes=self.HIDDEN, num_classes=self.K, dim=self.DIM,
            per_class=self.PER_CLASS, data_seed=_draw_seed(rng), optimizer=opt,
            epochs=self.EPOCHS, batch_size=None, seed=_draw_seed(rng), metric_period=1,
            output_csv=os.path.join(self.workdir, f"{kind}.csv"),
            output_summary=os.path.join(self.workdir, f"{kind}.json"),
        )

    def round_ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        return [self._op(self._config(kind, rng)) for kind in self.KINDS]

    def _op(self, cfg) -> Op:
        def run():
            return harness.run_training(cfg)

        def verify(res):
            kind = cfg.optimizer.kind
            if res.status != "ok":
                return [f"{kind}: status {res.status}"]
            rows = checks.read_csv(cfg.output_csv)
            if [int(r["epoch"]) for r in rows] != list(range(self.EPOCHS + 1)):
                return [f"{kind}: metric CSV does not hold one row per epoch"]
            with open(cfg.output_summary, encoding="utf-8") as fh:
                summary = json.load(fh)
            if summary["status"] != "ok" or summary["num_records"] != len(rows):
                return [f"{kind}: summary JSON disagrees with the run"]
            final = res.records[-1].values
            if float(rows[-1]["nc4"]) != final["nc4"]:
                return [f"{kind}: CSV nc4 differs from the returned record"]
            model, data = res.model, res.dataset
            feats = checks.mlp_features(model.hidden_weights, model.hidden_biases,
                                        data.features)
            return (
                checks.check_final_metrics(kind, final["nc1"], final["nc4"],
                                           model.final_weight, feats, data.labels, self.K)
                + checks.check_alpha_matches_weight(kind, final["nc0_alpha"],
                                                    model.final_weight)
                + checks.check_rowsum_law(kind, res.records[0].values["nc0_alpha"],
                                          final["nc0_alpha"], self.LR, self.WD,
                                          self.MOMENTUM, self.EPOCHS)
            )

        return Op(self.EPOCHS, run, verify)


WORKLOADS = {
    "paper_checks": PaperChecks,
    "stress_train": StressTrain,
}
