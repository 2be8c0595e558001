import argparse
import functools
import inspect
import json
import re
import subprocess
import sys
import warnings

import pytest

from nc_lab import cli, harness, oracles
from nc_lab.cli import ORACLE_ROWS, build_parser, main
from nc_lab.errors import DomainError
from nc_lab.harness import (
    CSV_HEADER,
    THEOREM_CHECKS,
    CheckResult,
    config_to_mapping,
    load_sweep,
    run_sweep,
    sweep_summary_csv,
)
from nc_lab.metrics import METRIC_KEYS
from helpers import format_matrix, make_nc_solution

TRAIN_CFG = """
model.kind = ufm_fixed_features
model.init = zero
data.k = 4
optimizer.kind = signgd_decoupled
optimizer.lr = 0.1
optimizer.decoupled_wd = 0.5
train.epochs = 20
train.metric_period = 5
"""

SWEEP_CFG = """
model.kind = mlp
data.k = 4
data.d = 8
data.per_class = 25
optimizer.kind = sgd_coupled
optimizer.lr = 0.05
train.epochs = 30
train.metric_period = 10
sweep.kinds = sgd_coupled
sweep.lrs = 0.05
sweep.momenta = 0.0,0.9
sweep.wds = 0.01
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parser_rejects_missing_or_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--theorem", "7"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_train_prints_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "train.cfg", TRAIN_CFG)
    rc = main(["train", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 5
    assert "status=ok" in err


def test_train_writes_csv_file(tmp_path, capsys):
    target = tmp_path / "run.csv"
    cfg = _write(tmp_path, "train.cfg", TRAIN_CFG + f"output.csv = {target}\n")
    rc = main(["train", "--config", cfg])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith(CSV_HEADER)


def test_train_missing_config_is_error(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.cfg")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error:")


def test_train_bad_config_is_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "model.kind = mlp\nmodel.kind = ufm\n")
    rc = main(["train", "--config", cfg])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "duplicate" in err


@pytest.mark.parametrize("kind", ["ufm", "ufm_fixed_features"])
def test_train_refuses_hidden_sizes_on_a_ufm_kind(tmp_path, capsys, kind):
    target = tmp_path / "run.csv"
    cfg = _write(tmp_path, "train.cfg", f"model.kind = {kind}\nmodel.hidden_sizes = 64,64\n"
                                        f"output.csv = {target}\n")
    rc = main(["train", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: model {kind} reads no model.hidden_sizes\n"
    assert not target.exists()


@pytest.mark.parametrize("kind, key", [("signgd_coupled", "optimizer.momentum"),
                                       ("sgd_coupled", "optimizer.beta2")])
def test_train_refuses_an_optimizer_key_its_kind_does_not_read(tmp_path, capsys, monkeypatch,
                                                               kind, key):
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *args, **kw: trained.append(args))
    target = tmp_path / "run.csv"
    text = TRAIN_CFG.replace("signgd_decoupled", kind).replace("decoupled_wd", "coupled_wd")
    cfg = _write(tmp_path, "train.cfg", text + f"{key} = 0.9\noutput.csv = {target}\n")
    rc = main(["train", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: optimizer {kind} reads no {key}\n"
    assert trained == []
    assert not target.exists()


@pytest.mark.parametrize("key, value, message", [
    ("optimizer.lr", "nan", "lr must be finite, got nan"),
    ("optimizer.lr", "1e400", "lr must be finite, got inf"),
    ("optimizer.decoupled_wd", "inf", "decoupled_wd must be finite, got inf"),
    ("optimizer.decay_factor", "inf", "decay_factor must be finite, got inf"),
    ("optimizer.milestone_fractions", "0.5,nan",
     "milestone_fractions must be finite, got (0.5, nan)"),
    ("optimizer.milestone_fractions", "1/0",
     "config key optimizer.milestone_fractions: cannot parse '1/0'"),
])
def test_train_refuses_a_number_it_cannot_train_on_naming_its_field(tmp_path, capsys, key, value,
                                                                   message):
    target = tmp_path / "run.csv"
    text = "".join(ln + "\n" for ln in TRAIN_CFG.splitlines() if not ln.startswith(key))
    if key in ("optimizer.decay_factor", "optimizer.milestone_fractions"):
        text += "optimizer.schedule = step_decay\n"
    cfg = _write(tmp_path, "train.cfg", text + f"{key} = {value}\noutput.csv = {target}\n")
    rc = main(["train", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not target.exists()


@pytest.mark.parametrize("key, value, message", [
    ("model.init_scale", "nan", "init_scale must be finite, got nan"),
    ("model.hidden_sizes", "0", "hidden_sizes must be >= 1, got (0,)"),
    ("model.hidden_sizes", "16,-2", "hidden_sizes must be >= 1, got (16, -2)"),
])
def test_train_and_sweep_refuse_a_model_they_cannot_build(tmp_path, capsys, key, value, message):
    text = "model.kind = mlp\ntrain.epochs = 2\n" + f"{key} = {value}\n"
    rc = main(["train", "--config", _write(tmp_path, "train.cfg", text)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    sweep = SWEEP_CFG + f"{key} = {value}\nsweep.outdir = {tmp_path / 'a'}\n"
    rc = main(["sweep", "--config", _write(tmp_path, "sweep.cfg", sweep)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("kind, lines, message", [
    ("mlp", "model.init_scale = 0\n",
     "init_scale = 0 leaves the mlp network all zero, without gradient flow"),
    ("ufm", "model.init_scale = 0.0\n",
     "init_scale = 0 leaves the ufm network all zero, without gradient flow"),
    ("ufm", "optimizer.kind = adam\noptimizer.momentum = 0.9\noptimizer.beta2 = 0\n"
            "optimizer.eps = 0\n",
     "eps = 0 is only valid in the momentum = beta2 = 0 sign limit"),
    ("ufm", "optimizer.kind = adam_w\noptimizer.beta2 = 0.5\noptimizer.eps = 0\n",
     "eps = 0 is only valid in the momentum = beta2 = 0 sign limit"),
])
def test_train_refuses_a_setting_that_cannot_train_before_writing_anything(
        tmp_path, capsys, monkeypatch, kind, lines, message):
    trained = []
    monkeypatch.setattr(cli, "run_training", lambda *args, **kw: trained.append(args))
    csv, summary = tmp_path / "run.csv", tmp_path / "run.json"
    text = f"model.kind = {kind}\n{lines}output.csv = {csv}\noutput.summary = {summary}\n"
    rc = main(["train", "--config", _write(tmp_path, "train.cfg", text)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert trained == []
    assert not csv.exists() and not summary.exists()


def test_sweep_writes_outputs(tmp_path, capsys):
    outdir = tmp_path / "grid"
    cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG + f"sweep.outdir = {outdir}\n")
    rc = main(["sweep", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 0
    summary = outdir / "summary.csv"
    assert summary.exists()
    assert out.strip() == str(summary)
    assert "2 runs" in err
    pivots = [p for p in outdir.iterdir() if p.name.startswith("pivot_")]
    assert len(pivots) == 3


def test_sweep_outdir_flag_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.cfg", SWEEP_CFG + f"sweep.outdir = {tmp_path / 'a'}\n")
    rc = main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "b")])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "b" / "summary.csv").exists()
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("key, value, message", [
    ("sweep.lrs", "0.1,abc", None), ("sweep.momenta", "x", None),
    ("sweep.base_seed", "1.5", None), ("sweep.accuracy_threshold", "high", None),
    ("sweep.accuracy_threshold", "nan", "accuracy_threshold must lie in [0, 1], got nan"),
    ("sweep.accuracy_threshold", "1.5", "accuracy_threshold must lie in [0, 1], got 1.5"),
    ("sweep.lrs", "0.1,nan", "lrs must be finite, got (0.1, nan)"),
    ("sweep.momenta", "-inf", "momenta must be finite, got (-inf,)"),
    ("sweep.wds", "0.01,inf", "wds must be finite, got (0.01, inf)"),
])
def test_sweep_names_the_key_of_a_bad_value(tmp_path, capsys, key, value, message):
    """A value that does not parse names its key; one that parses but
    cannot grid (non-finite, or a threshold off [0, 1]) names its field."""
    text = "".join(ln + "\n" for ln in SWEEP_CFG.splitlines() if not ln.startswith(key))
    cfg = _write(tmp_path, "sweep.cfg", text + f"{key} = {value}\nsweep.outdir = {tmp_path / 'a'}\n")
    rc = main(["sweep", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {message or f'config key {key}: cannot parse {value!r}'}\n"
    assert not (tmp_path / "a").exists()


def test_sweep_prints_each_error_row_with_its_message(tmp_path, capsys):
    """The summary has no column for a cell's error, so its message goes to
    stderr; summary.csv is the harness's own bytes."""
    outdir = tmp_path / "grid"
    text = SWEEP_CFG.replace("sweep.lrs = 0.05", "sweep.lrs = 0.05,-1")
    cfg = _write(tmp_path, "sweep.cfg", text + f"sweep.outdir = {outdir}\n")
    rc = main(["sweep", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out == f"{outdir / 'summary.csv'}\n"
    assert err.splitlines() == [
        f"error row kind=sgd_coupled lr=-1.0 momentum={m} wd=0.01: DomainError: lr must be positive"
        for m in ("0.0", "0.9")] + [f"4 runs (2 ok) -> {outdir / 'summary.csv'}"]
    base, spec, _ = load_sweep(cfg)
    assert (outdir / "summary.csv").read_text() == sweep_summary_csv(run_sweep(base, spec))


def test_sweep_refuses_a_repeated_grid_value(tmp_path, capsys):
    text = SWEEP_CFG.replace("sweep.kinds = sgd_coupled", "sweep.kinds = sgd_coupled,sgd_coupled")
    cfg = _write(tmp_path, "sweep.cfg", text + f"sweep.outdir = {tmp_path / 'a'}\n")
    rc = main(["sweep", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: sweep grid kinds repeats 'sgd_coupled'\n"
    assert not (tmp_path / "a").exists()


def test_sweep_refuses_a_schedule_key_its_kind_does_not_read(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.cfg",
                 SWEEP_CFG + f"optimizer.shrink_factor = 0.3\nsweep.outdir = {tmp_path / 'a'}\n")
    rc = main(["sweep", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: schedule constant reads no optimizer.shrink_factor\n"
    assert not (tmp_path / "a").exists()


def test_sweep_cells_take_the_base_fields_their_kind_reads(tmp_path, capsys, monkeypatch):
    sweeps = []

    def recording(base, spec):
        sweeps.append(run_sweep(base, spec))
        return sweeps[-1]

    monkeypatch.setattr(cli, "run_sweep", recording)
    text = (SWEEP_CFG.replace("optimizer.kind = sgd_coupled", "optimizer.kind = adam")
            .replace("sweep.kinds = sgd_coupled", "sweep.kinds = sgd_coupled,adam"))
    cfg = _write(tmp_path, "sweep.cfg",
                 text + f"optimizer.beta2 = 0.99\nsweep.outdir = {tmp_path / 'a'}\n")
    assert main(["sweep", "--config", cfg]) == 0
    capsys.readouterr()
    (sweep,) = sweeps
    configs = [res.config.optimizer for res in sweep.results]
    assert [(c.kind, c.beta2) for c in configs] == [("sgd_coupled", 0.999)] * 2 + [("adam", 0.99)] * 2
    assert all("optimizer.beta2" not in config_to_mapping(res.config)
               for res in sweep.results[:2])


def test_oracle_power_law(capsys):
    rc = main(["oracle", "--theorem", "1", "--alpha0", "9", "--lr", "0.05",
               "--wd", "0.1", "--steps", "5"])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,alpha_predicted"
    assert len(lines) == 7
    for t, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        assert int(cells[0]) == t
        assert float(cells[1]) == oracles.alpha_sgd_decoupled(t, 9.0, 0.05, 0.1)


def test_oracle_rowsum_recursion(capsys):
    rc = main(["oracle", "--theorem", "2", "--m0", "1,2", "--lr", "0.05",
               "--wd", "0.1", "--momentum", "0.9", "--steps", "3"])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,alpha_predicted"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.5, rel=1e-15)
    second = lines[2].split(",")
    assert float(second[1]) == pytest.approx(2.5 * 0.995**2, rel=1e-12)


def test_oracle_sign_plateau(capsys):
    rc = main(["oracle", "--theorem", "3", "--lr", "0.1", "--wd", "0.5",
               "--steps", "2"])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[2].split(",")[1]) == pytest.approx(0.64, rel=1e-12)


def test_oracle_oscillation_trajectory(capsys):
    rc = main(["oracle", "--theorem", "4", "--k", "4", "--lr", "0.05", "--wd", "0.5"])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,alpha_predicted"
    alphas = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert alphas[0] == 0.0
    assert max(alphas) > 0.0
    assert alphas[-1] <= 1e-6 * max(alphas)


def test_oracle_ode_curve(capsys):
    rc = main(["oracle", "--theorem", "ode", "--alpha0", "1.0", "--wd", "0.002",
               "--momentum", "0.9", "--tmax", "50", "--points", "6"])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,alpha_predicted"
    assert len(lines) == 7
    t0 = lines[1].split(",")
    assert float(t0[0]) == 0.0
    assert float(t0[1]) == pytest.approx(1.0, rel=1e-12)
    t50 = lines[-1].split(",")
    assert float(t50[1]) == pytest.approx(
        oracles.ode_alpha_closed_form(50.0, 1.0, 0.002, 0.9), rel=1e-12)


def test_oracle_out_file(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    rc = main(["oracle", "--theorem", "1", "--steps", "3", "--out", str(target)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith("t,alpha_predicted\n")


def test_check_theorem_pass_and_csv(tmp_path, capsys):
    target = tmp_path / "check.csv"
    rc = main(["check-theorem", "3", "--steps", "400", "--out", str(target)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "PASS" in err
    text = target.read_text()
    assert text.startswith("t,alpha_sim,alpha_pred,abs_err,rel_err\n")
    assert len(text.splitlines()) == 1 + 401


def test_check_theorem_fail_exits_2(capsys):
    rc = main(["check-theorem", "3", "--steps", "50"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "FAIL" in err
    assert out.startswith("t,alpha_sim,alpha_pred,abs_err,rel_err")


def test_check_theorem_momentum_recursion(capsys):
    rc = main(["check-theorem", "2", "--epochs", "40", "--batch-size", "10"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "PASS" in err


def _subparser(command):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def _passed_flags(command):
    """The flags of a subcommand that go to its function: every optional
    argument but --out (and oracle's --theorem)."""
    return {action.option_strings[-1]: action for action in _subparser(command)._actions
            if action.option_strings and action.dest not in ("help", "out", "theorem")}


CHECK_FLAGS = _passed_flags("check-theorem")
ORACLE_FLAGS = _passed_flags("oracle")


def _flag_value(action) -> str:
    return {int: "3", float: "0.25"}.get(action.type, "2,3")


def test_check_theorem_choices_are_the_checks():
    (theorem,) = [a for a in _subparser("check-theorem")._actions if a.dest == "theorem"]
    assert tuple(theorem.choices) == tuple(THEOREM_CHECKS)


@pytest.mark.parametrize("theorem", sorted(THEOREM_CHECKS))
@pytest.mark.parametrize("flag", sorted(CHECK_FLAGS))
def test_check_theorem_passes_the_flags_its_check_takes_and_refuses_the_rest(
        tmp_path, capsys, monkeypatch, theorem, flag):
    """A check's signature is the list of the flags it takes. Another flag
    exits 1, naming it, before the check runs or --out is written."""
    check = THEOREM_CHECKS[theorem]
    calls = []

    @functools.wraps(check)
    def record(**kwargs):
        calls.append(kwargs)
        return CheckResult(name="recorded", passed=True, rows=[])

    monkeypatch.setitem(THEOREM_CHECKS, theorem, record)
    action = CHECK_FLAGS[flag]
    value = _flag_value(action)
    target = tmp_path / "check.csv"
    rc = main(["check-theorem", theorem, flag, value, "--out", str(target)])
    _, err = capsys.readouterr()
    if action.dest in inspect.signature(check).parameters:
        assert rc == 0
        assert calls == [{action.dest: action.type(value)}]
        assert target.exists()
    else:
        assert rc == 1
        assert err == f"error: check-theorem {theorem} takes no {flag}\n"
        assert calls == []
        assert not target.exists()


def test_oracle_theorem_choices_are_the_row_functions():
    (theorem,) = [a for a in _subparser("oracle")._actions if a.dest == "theorem"]
    assert tuple(theorem.choices) == tuple(ORACLE_ROWS)


@pytest.mark.parametrize("theorem", sorted(ORACLE_ROWS))
@pytest.mark.parametrize("flag", sorted(ORACLE_FLAGS))
def test_oracle_passes_the_flags_its_theorem_takes_and_refuses_the_rest(
        tmp_path, capsys, monkeypatch, theorem, flag):
    """A row function's signature is the list of the flags its theorem
    takes. Another flag exits 1, naming it, before --out is written."""
    rows = ORACLE_ROWS[theorem]
    calls = []

    @functools.wraps(rows)
    def record(**kwargs):
        calls.append(kwargs)
        return [(0, 1.0)]

    monkeypatch.setitem(ORACLE_ROWS, theorem, record)
    action = ORACLE_FLAGS[flag]
    value = _flag_value(action)
    target = tmp_path / "oracle.csv"
    rc = main(["oracle", "--theorem", theorem, flag, value, "--out", str(target)])
    _, err = capsys.readouterr()
    if action.dest in inspect.signature(rows).parameters:
        assert rc == 0
        assert calls == [{action.dest: (action.type or str)(value)}]
        assert target.read_text() == "t,alpha_predicted\n0,1.0\n"
    else:
        assert rc == 1
        assert err == f"error: oracle --theorem {theorem} takes no {flag}\n"
        assert calls == []
        assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["check-theorem", "4", "--tol", "0.1"],
    ["oracle", "--theorem", "4", "--max", "3"],
    ["metrics", "--weights", "w", "--features", "h", "--labels", "y", "--num", "3"],
])
def test_a_prefix_of_a_flag_is_a_usage_error(tmp_path, capsys, argv):
    # argparse would expand `--tol` to `--tolerance` and print PASS.
    target = tmp_path / "out.csv"
    out_flag = ["--out", str(target)] if argv[0] != "metrics" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + out_flag)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
    assert not target.exists()


@pytest.mark.parametrize("k", ["1", "2"])
@pytest.mark.parametrize("argv, message", [
    (["check-theorem", "3"], "check 3 needs k >= 3"),
    (["check-theorem", "4"], "coupled sign descent needs k >= 3"),
    (["oracle", "--theorem", "4"], "coupled sign descent needs k >= 3"),
])
def test_sign_checks_and_oracle_refuse_k_below_3(tmp_path, capsys, k, argv, message):
    # At K = 2 alpha stays 0, so check 3 would pass on nothing and check 4
    # would spin to its step budget; at K = 1 psi divides by zero.
    target = tmp_path / "out.csv"
    rc = main(argv + ["--k", k, "--out", str(target)])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {message}, got k = {k}")
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--theorem", "1", "--steps", "-1"], "steps must be >= 0"),
    (["oracle", "--theorem", "2", "--steps", "-1"], "steps must be >= 0"),
    (["oracle", "--theorem", "3", "--steps", "-1"], "steps must be >= 0"),
    (["oracle", "--theorem", "4", "--max-steps", "-1"], "max_steps must be >= 0"),
    (["oracle", "--theorem", "2", "--m0", ","], "m0 must hold at least one row sum"),
    (["oracle", "--theorem", "2", "--k", "0"], "k must be >= 1, got 0"),
    (["oracle", "--theorem", "1", "--lr", "1e300", "--steps", "5"],
     "lr = 1e+300 and wd = 0.1 take the closed form out of float range at t = 1"),
    (["oracle", "--theorem", "3", "--lr", "1e300", "--steps", "5"],
     "lr = 1e+300 and wd = 0.1 take the closed form out of float range at t = 1"),
    (["check-theorem", "3", "--lr", "1e300", "--steps", "5"],
     "lr = 1e+300 and wd = 0.5 take the closed form out of float range at t = 1"),
    (["oracle", "--theorem", "2", "--lr", "1e300", "--steps", "3"],
     "m0, lr = 1e+300, wd = 0.1 and momentum = 0.9 take the row-sum recursion out of float "
     "range at t = 1"),
    (["oracle", "--theorem", "ode", "--points", "-1"], "points must be >= 0, got -1"),
    (["oracle", "--theorem", "3", "--k", "1"], "the sign plateau needs k >= 2, got k = 1"),
])
def test_an_input_outside_a_closed_forms_domain_is_refused_naming_its_flag(
        tmp_path, capsys, monkeypatch, argv, message):
    """A negative step or point count, an empty m0, a K too small and a
    step size that takes the closed form or the row-sum recursion out of
    float range raise a DomainError (exit 1), with no RuntimeWarning, before
    anything trains or is written."""
    monkeypatch.setattr(harness, "_train_cells", None)     # training would fail
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            args.func(args)
    target = tmp_path / "out.csv"
    rc = main(argv + ["--out", str(target)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert not target.exists()


def test_oracle_refuses_every_flag_its_theorem_does_not_read(capsys):
    rc = main(["oracle", "--theorem", "1", "--k", "5", "--m0", "1,2", "--shrink", "0.2"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == "error: oracle --theorem 1 takes no --k, --m0, --shrink\n"


def _write_metric_inputs(tmp_path, k=4, p=6):
    w, h, labels = make_nc_solution(k, p, scale_w=1.5, scale_h=0.7, isometry_seed=3)
    w_path = tmp_path / "w.txt"
    h_path = tmp_path / "h.txt"
    w_path.write_text(format_matrix(w))
    h_path.write_text(format_matrix(h))
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("".join(f"{int(v)}\n" for v in labels))
    return str(w_path), str(h_path), str(labels_path)


def test_metrics_json_bundle(tmp_path, capsys):
    w_path, h_path, labels_path = _write_metric_inputs(tmp_path)
    rc = main(["metrics", "--weights", w_path, "--features", h_path,
               "--labels", labels_path])
    out, _ = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == set(METRIC_KEYS)
    assert payload["nc4"] == 1.0
    assert payload["nc0"] == pytest.approx(0.0, abs=1e-12)
    assert payload["nc3"] == pytest.approx(0.0, abs=1e-10)
    assert payload["nc1"] == 0.0


def test_metrics_explicit_class_count(tmp_path, capsys):
    w_path, h_path, labels_path = _write_metric_inputs(tmp_path)
    rc = main(["metrics", "--weights", w_path, "--features", h_path,
               "--labels", labels_path, "--num-classes", "4"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert set(json.loads(out)) == set(METRIC_KEYS)


def test_metrics_json_bytes_on_a_zero_w_and_coincident_class_means(tmp_path, capsys):
    """An all-zero W over classes whose means all sit at the origin: every
    metric that divides by a zero norm prints null, the rest their exact value."""
    paths = {"--weights": "3 2\n0.0 0.0\n0.0 0.0\n0.0 0.0\n",
             "--features": "2 6\n1.0 -1.0 2.0 -2.0 0.5 -0.5\n0.0 0.0 1.0 -1.0 3.0 -3.0\n",
             "--labels": "0\n0\n1\n1\n2\n2\n"}
    argv = ["metrics"]
    for flag, text in paths.items():
        path = tmp_path / flag.strip("-")
        path.write_text(text)
        argv += [flag, str(path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (
        '{\n  "nc0": 0.0,\n  "nc0_alpha": 0.0,\n  "nc0_normalized": null,\n  "nc1": 0.0,\n'
        '  "nc2": null,\n  "nc2a": null,\n  "nc2m": null,\n  "nc2n": null,\n'
        '  "nc2w": null,\n  "nc2wa": null,\n  "nc2wn": null,\n  "nc3": null,\n'
        '  "nc4": 1.0\n}\n')


@pytest.mark.parametrize("text, message", [
    ("0\n1.5\n2\n3\n", "must contain one integer per line"),
    ("\n  \n", "holds no labels"),
])
def test_metrics_bad_labels_file(tmp_path, capsys, text, message):
    w_path, h_path, _ = _write_metric_inputs(tmp_path)
    bad = tmp_path / "bad_labels.txt"
    bad.write_text(text)
    rc = main(["metrics", "--weights", w_path, "--features", h_path,
               "--labels", str(bad)])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == f"error: labels file {bad} {message}\n"


def test_metrics_shape_mismatch(tmp_path, capsys):
    w_path, h_path, _ = _write_metric_inputs(tmp_path)
    short = tmp_path / "short_labels.txt"
    short.write_text("0\n1\n")
    rc = main(["metrics", "--weights", w_path, "--features", h_path,
               "--labels", str(short)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error:")


def test_metrics_rejects_non_finite_weights(tmp_path, capsys):
    w_path, h_path, labels_path = _write_metric_inputs(tmp_path)
    with open(w_path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    lines[1] = " ".join(["nan"] + lines[1].split()[1:])
    with open(w_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(["metrics", "--weights", w_path, "--features", h_path,
               "--labels", labels_path])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "matrix elements must be finite" in err


@pytest.mark.parametrize("which, what", [("--weights", "weights matrix"),
                                         ("--features", "features matrix")])
@pytest.mark.parametrize("content", [None, b"2 2\n1 0\n0 \xff\n"])
def test_metrics_file_errors_name_the_file(tmp_path, capsys, which, what, content):
    # A missing file, or one holding a byte that is not UTF-8.
    paths = dict(zip(["--weights", "--features", "--labels"], _write_metric_inputs(tmp_path)))
    bad = tmp_path / "bad.txt"
    if content is not None:
        bad.write_bytes(content)
    paths[which] = str(bad)
    rc = main(["metrics"] + [part for item in paths.items() for part in item])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: cannot read {what} from {bad}: ")


@pytest.mark.parametrize("which", ["--weights", "--features"])
@pytest.mark.parametrize("text, message", [
    ("2 2\n1 0\n0 \u00e9\n", "row 1: unparseable value in '0 \u00e9'"),
    ("2 3\n1 0 2\n0 1\n", "row 1: expected 3 values, found 2"),
])
def test_metrics_parse_errors_name_the_flag_and_file(tmp_path, capsys, which, text, message):
    paths = dict(zip(["--weights", "--features", "--labels"], _write_metric_inputs(tmp_path)))
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    paths[which] = str(bad)
    rc = main(["metrics"] + [part for item in paths.items() for part in item])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == f"error: {which} {bad}: {message}\n"


def test_regress_two_column_csv(tmp_path, capsys):
    xs = [0.1, 0.2, 0.3, 0.4, 0.5]
    rows = "".join(f"{x!r},{0.16 * x!r}\n" for x in xs)
    path = _write(tmp_path, "pairs.csv", "nc0,nc3\n" + rows)
    rc = main(["regress", "--csv", path])
    out, _ = capsys.readouterr()
    assert rc == 0
    fit = json.loads(out)
    assert fit["n"] == 5
    assert fit["slope"] == pytest.approx(0.16, rel=1e-10)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-10)
    assert set(fit) >= {"intercept", "stderr", "t_value", "p_value",
                        "ci95_low", "ci95_high", "f_statistic"}


def test_regress_filters_sweep_rows(tmp_path, capsys):
    lines = ["kind,status,train_acc,nc0,nc3"]
    for x in (0.1, 0.2, 0.3, 0.4):
        lines.append(f"sgd_coupled,ok,1.0,{x!r},{0.16 * x!r}")
    lines.append("sgd_coupled,error,,,")
    lines.append("sgd_coupled,ok,0.5,9.9,-3.0")
    lines.append("sgd_coupled,did_not_train,0.2,7.7,7.7")
    path = _write(tmp_path, "summary.csv", "\n".join(lines) + "\n")
    rc = main(["regress", "--csv", path, "--x", "nc0", "--y", "nc3"])
    out, _ = capsys.readouterr()
    assert rc == 0
    fit = json.loads(out)
    assert fit["n"] == 4
    assert fit["slope"] == pytest.approx(0.16, rel=1e-10)


def test_regress_drops_accurate_rows_of_runs_that_are_not_ok(tmp_path, capsys):
    lines = ["kind,status,train_acc,nc0,nc3"]
    for x in (0.1, 0.2, 0.3):
        lines.append(f"sgd_coupled,ok,1.0,{x!r},{0.16 * x!r}")
    lines.append("sgd_coupled,diverged,1.0,9.9,-3.0")
    lines.append("sgd_coupled,error,1.0,7.7,7.7")
    path = _write(tmp_path, "summary.csv", "\n".join(lines) + "\n")
    rc = main(["regress", "--csv", path])
    out, _ = capsys.readouterr()
    assert rc == 0
    fit = json.loads(out)
    assert fit["n"] == 3
    assert fit["slope"] == pytest.approx(0.16, rel=1e-10)


def test_regress_needs_three_rows(tmp_path, capsys):
    path = _write(tmp_path, "tiny.csv", "nc0,nc3\n0.1,0.2\n0.2,0.4\n")
    rc = main(["regress", "--csv", path])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "3 qualifying" in err


@pytest.mark.parametrize("threshold", ["nan", "-0.5", "1.5"])
def test_regress_refuses_a_threshold_off_0_1(tmp_path, capsys, threshold):
    """At nan every row would fail the filter, and the error would blame
    the rows."""
    rows = "".join(f"sgd_coupled,ok,1.0,{x!r},{2 * x!r}\n" for x in (0.1, 0.2, 0.3))
    path = _write(tmp_path, "summary.csv", "kind,status,train_acc,nc0,nc3\n" + rows)
    rc = main(["regress", "--csv", path, "--accuracy-threshold", threshold])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == f"error: accuracy_threshold must lie in [0, 1], got {float(threshold)!r}\n"


def test_regress_unknown_column(tmp_path, capsys):
    path = _write(tmp_path, "pairs.csv", "nc0,nc3\n0.1,0.2\n")
    rc = main(["regress", "--csv", path, "--x", "bogus"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "bogus" in err


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "nc_lab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout
    assert "check-theorem" in proc.stdout
