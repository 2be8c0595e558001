"""Each benchmark check passes on the program's real output and fails on a
slightly perturbed copy of it; the names in BENCHMARK.json match what the
benchmark prints; the tracer counts each call once and restores the program.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402
from nc_lab import cli, harness, metrics, optim, oracles, stats  # noqa: E402


def _perturb(rows, index, column, factor=1.0 + 1e-6):
    rows = copy.deepcopy(rows)
    rows[index][column] = repr(float(rows[index][column]) * factor)
    return rows


def _check_csv(tmp_path, argv):
    out = tmp_path / "check.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return checks.read_csv(out)


def test_theorem1_check_flags_alpha_off_by_1e6(tmp_path):
    rows = _check_csv(tmp_path, ["check-theorem", "1", "--lr", "0.05", "--wd", "0.1",
                                 "--momentum", "0.5", "--epochs", "20"])
    assert checks.check_decoupled_rows(rows, 0.05, 0.1, 20) == []
    assert checks.check_decoupled_rows(_perturb(rows, 7, "alpha_sim"), 0.05, 0.1, 20)
    assert checks.check_decoupled_rows(rows, 0.05, 0.1001, 20)
    assert checks.check_decoupled_rows(rows[:-1], 0.05, 0.1, 20)


def test_theorem2_check_flags_alpha_off_by_1e6(tmp_path):
    rows = _check_csv(tmp_path, ["check-theorem", "2", "--lr", "0.05", "--wd", "0.1",
                                 "--momentum", "0.9", "--epochs", "5", "--batch-size", "10"])
    assert checks.check_coupled_rows(rows, 0.05, 0.1, 0.9, 5, 10) == []
    assert checks.check_coupled_rows(_perturb(rows, 3, "alpha_sim"), 0.05, 0.1, 0.9, 5, 10)
    assert checks.check_coupled_rows(rows, 0.05, 0.1, 0.8, 5, 10)


def test_theorem3_check_flags_dip_and_short_plateau(tmp_path):
    rows = _check_csv(tmp_path, ["check-theorem", "3", "--k", "6", "--lr", "0.1",
                                 "--wd", "0.5", "--steps", "400"])
    assert checks.check_sign_plateau_rows(rows, 6, 0.5, 400) == []
    assert checks.check_sign_plateau_rows(_perturb(rows, 50, "alpha_sim", 0.97), 6, 0.5, 400)
    assert checks.check_sign_plateau_rows(_perturb(rows, 400, "alpha_sim", 0.98), 6, 0.5, 400)
    assert checks.check_sign_plateau_rows(rows, 7, 0.5, 400)


def _oscillation_rows():
    alphas = [0.0, 2.0, 6.8, 3.0, 1e-3, 1e-9]
    lrs = [1e-3, 1e-3, 1e-3, 5e-4, 2.5e-4, 2.5e-4]
    return [{"epoch": str(10 * i), "nc0_alpha": repr(a), "lr": repr(lr)}
            for i, (a, lr) in enumerate(zip(alphas, lrs))]


def test_oscillation_check_flags_no_decay_and_lr_rise():
    rows = _oscillation_rows()
    assert checks.check_oscillation_rows(rows, 50, 10) == []
    assert checks.check_oscillation_rows(_perturb(rows, 5, "nc0_alpha", 1e4), 50, 10)
    assert checks.check_oscillation_rows(_perturb(rows, 4, "lr", 4.0), 50, 10)
    flat = copy.deepcopy(rows)
    for row in flat:
        row["lr"] = "0.001"
    assert checks.check_oscillation_rows(flat, 50, 10)
    assert checks.check_oscillation_rows(rows[:-1], 50, 10)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    base = harness.ExperimentConfig(model_kind="mlp", hidden_sizes=(8,), num_classes=4, dim=6,
                                    per_class=10, data_seed=3, epochs=6, batch_size=10,
                                    metric_period=3)
    spec = harness.SweepSpec(kinds=("sgd_coupled", "sgd_decoupled"), lrs=(0.05,),
                             momenta=(0.0, 0.9), wds=(0.01, 0.1), base_seed=5,
                             accuracy_threshold=0.0)
    sweep = harness.run_sweep(base, spec)
    outdir = tmp_path_factory.mktemp("sweep")
    paths = harness.write_sweep_outputs(sweep, str(outdir))
    return sweep, paths, 6 * 4


def test_rowsum_law_and_weight_alpha_flag_perturbation(small_sweep):
    sweep, _, steps = small_sweep
    for row, res in zip(sweep.rows, sweep.results):
        assert row["status"] == "ok"
        alpha0 = res.records[0].values["nc0_alpha"]
        args = (row["lr"], row["wd"], row["momentum"], steps)
        assert checks.check_rowsum_law(row["kind"], alpha0, row["nc0_alpha"], *args) == []
        assert checks.check_rowsum_law(row["kind"], alpha0, row["nc0_alpha"] * (1 + 1e-6), *args)
        w = res.model.final_weight
        assert checks.check_alpha_matches_weight("cell", row["nc0_alpha"], w) == []
        assert checks.check_alpha_matches_weight("cell", row["nc0_alpha"] * (1 + 1e-9), w)


def test_summary_readback_flags_changed_or_missing_rows(small_sweep, tmp_path):
    sweep, paths, _ = small_sweep
    assert checks.check_summary_readback(paths[0], sweep.rows) == []
    lines = open(paths[0], encoding="utf-8").read().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert checks.check_summary_readback(short, sweep.rows)
    rows = copy.deepcopy(sweep.rows)
    rows[1]["nc3"] = rows[1]["nc3"] * (1 + 1e-12)
    assert checks.check_summary_readback(paths[0], rows)


def test_ols_check_flags_wrong_slope():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 1.0, 12)
    ys = 0.3 + 2.0 * xs + 0.01 * rng.standard_normal(12)
    fit = stats.ols_fit(xs, ys)
    assert checks.check_ols(xs, ys, fit.n, fit.slope, fit.intercept) == []
    assert checks.check_ols(xs, ys, fit.n, fit.slope * (1 + 1e-6), fit.intercept)
    assert checks.check_ols(xs, ys, fit.n, fit.slope, fit.intercept + 1e-6)
    assert checks.check_ols(xs, ys, fit.n - 1, fit.slope, fit.intercept)


def test_qualifying_rows_follow_status_and_accuracy():
    rows = [{"status": "ok", "train_acc": 1.0, "nc0": 1.0, "nc3": 2.0},
            {"status": "ok", "train_acc": 0.5, "nc0": 3.0, "nc3": 4.0},
            {"status": "error"},
            {"status": "ok", "train_acc": 1.0, "nc0": None, "nc3": 4.0}]
    xs, ys = checks.qualifying_xy(rows, 0.9)
    assert xs.tolist() == [1.0] and ys.tolist() == [2.0]


def _feature_set(seed=0, k=5, p=12, per_class=30):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(k), per_class)
    centers = 3.0 * rng.standard_normal((p, k))
    h = centers[:, labels] + rng.standard_normal((p, labels.size))
    w = rng.standard_normal((k, p))
    return w, h, labels, k


def test_nc4_range_flags_one_flipped_decision():
    w, h, labels, k = _feature_set()
    data = metrics.LabeledFeatures(h, labels, k)
    nc1 = metrics.nc1_variability(metrics.compute_class_statistics(data))
    nc4 = metrics.nc4_agreement(w, data)
    assert checks.nc4_range(w, h, labels, k) == (nc4, nc4)
    flipped = nc4 + 1.0 / labels.size
    assert checks.check_final_metrics("x", nc1, flipped, w, h, labels, k)


def test_nc1_reference_flags_perturbation():
    w, h, labels, k = _feature_set(seed=1)
    data = metrics.LabeledFeatures(h, labels, k)
    nc1 = metrics.nc1_variability(metrics.compute_class_statistics(data))
    nc4 = metrics.nc4_agreement(w, data)
    assert checks.check_final_metrics("x", nc1, nc4, w, h, labels, k) == []
    assert checks.check_final_metrics("x", nc1 * (1 + 1e-6), nc4, w, h, labels, k)


def test_coupled_scales_match_program_recursion():
    m0 = np.array([1.0, -2.0, 0.5])
    ms = oracles.rowsum_recursion_coupled(m0, 0.05, 0.1, 0.9, 50)
    scales = checks.coupled_scales(0.05, 0.1, 0.9, 50)
    np.testing.assert_allclose([m[0] for m in ms], scales, rtol=1e-12, atol=1e-15)


def test_benchmark_json_names_match_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer_trace.reported_metrics()


def test_tracer_counts_each_call_once_and_restores():
    originals = (harness.run_training, harness.all_metrics, metrics.all_metrics,
                 optim.Optimizer.step)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        cfg = harness.ExperimentConfig(model_kind="mlp", hidden_sizes=(4,), num_classes=3, dim=4,
                                       per_class=5, epochs=4, batch_size=5, metric_period=2)
        harness.run_training(cfg)
    finally:
        tracer.remove()
    assert (harness.run_training, harness.all_metrics, metrics.all_metrics,
            optim.Optimizer.step) == originals
    assert tracer.absent == []
    stat = tracer.stats
    assert stat["harness.run_training"].calls == 1
    assert stat["models.MLPModel.forward_backward"].calls == 4 * 3
    assert stat["optim.Optimizer.step"].calls == 4 * 3
    assert stat["metrics.all_metrics"].calls == 3
    assert stat["metrics.compute_class_statistics"].calls == 6
    run_training = stat["harness.run_training"]
    assert 0.0 < run_training.self_time < run_training.total
    values = tracer.metrics(1)
    assert values["metrics.all_metrics.peak_mb"]["value"] > 0.0
