import argparse
import functools
import inspect
import json
import subprocess
import sys

import pytest

from nc_lab import cli, oracles
from nc_lab.cli import ORACLE_ROWS, build_parser, main
from nc_lab.harness import CSV_HEADER, THEOREM_CHECKS, CheckResult, config_to_mapping, run_sweep
from nc_lab.linalg import save_matrix
from nc_lab.metrics import METRIC_KEYS
from nc_lab.models import make_nc_solution

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


@pytest.mark.parametrize("key, value", [("sweep.lrs", "0.1,abc"), ("sweep.momenta", "x"),
                                        ("sweep.base_seed", "1.5"),
                                        ("sweep.accuracy_threshold", "high")])
def test_sweep_names_the_key_of_a_bad_value(tmp_path, capsys, key, value):
    text = "".join(ln + "\n" for ln in SWEEP_CFG.splitlines() if not ln.startswith(key))
    cfg = _write(tmp_path, "sweep.cfg", text + f"{key} = {value}\nsweep.outdir = {tmp_path / 'a'}\n")
    rc = main(["sweep", "--config", cfg])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: config key {key}: cannot parse {value!r}\n"
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
    rc = main(["oracle", "--theorem", "4", "--k", "4", "--n", "4",
               "--lr", "0.05", "--wd", "0.5"])
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
        return CheckResult(name="recorded", passed=True, tolerance=0.0, rows=[])

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
    save_matrix(w, w_path)
    save_matrix(h, h_path)
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


def test_metrics_bad_labels_file(tmp_path, capsys):
    w_path, h_path, _ = _write_metric_inputs(tmp_path)
    bad = tmp_path / "bad_labels.txt"
    bad.write_text("0\n1.5\n2\n3\n")
    rc = main(["metrics", "--weights", w_path, "--features", h_path,
               "--labels", str(bad)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "one integer per line" in err


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
