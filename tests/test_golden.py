"""Byte-for-byte regression of metric and check CSVs against tests/golden/.

The golden files pin the exact bytes that training runs, sweeps and theorem
checks write. A refactor or speedup must leave them unchanged. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change
of output, and say why in the change log.
"""

import contextlib
import functools
import io
import json
import os
import sys
from itertools import product

import pytest

from nc_lab.cli import main
from nc_lab.errors import DomainError
from nc_lab.harness import (
    SweepSpec,
    _cell_config,
    config_from_mapping,
    config_to_mapping,
    derive_run_seed,
    format_metric_csv,
    parse_config_text,
    run_sweep,
    run_training,
    sweep_summary_csv,
)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Training runs, one config file each. check1/check2 are the MLP runs that
# check-theorem 1 and 2 make at their defaults.
TRAIN_CONFIGS = {
    "check1_train": """
        model.kind = mlp
        data.k = 4
        data.d = 8
        data.per_class = 25
        data.seed = 11
        optimizer.kind = sgd_decoupled
        optimizer.lr = 0.05
        optimizer.momentum = 0.9
        optimizer.decoupled_wd = 0.1
        train.epochs = 300
        train.metric_period = 1
    """,
    "check2_train": """
        model.kind = mlp
        data.k = 4
        data.d = 8
        data.per_class = 25
        data.seed = 11
        optimizer.kind = sgd_coupled
        optimizer.lr = 0.05
        optimizer.momentum = 0.9
        optimizer.coupled_wd = 0.1
        train.epochs = 300
        train.batch_size = 10
        train.metric_period = 10
    """,
    "oscillation_decay": """
        model.kind = ufm_fixed_features
        data.k = 6
        optimizer.kind = signgd_coupled
        optimizer.lr = 0.01
        optimizer.coupled_wd = 0.1
        optimizer.schedule = oscillation_decay
        optimizer.shrink_factor = 0.5
        train.epochs = 1000
        train.metric_period = 20
    """,
    "ufm_full_batch": """
        model.kind = ufm
        data.k = 4
        data.d = 6
        data.per_class = 5
        optimizer.kind = sgd_coupled
        optimizer.lr = 0.5
        optimizer.momentum = 0.9
        optimizer.coupled_wd = 0.01
        train.epochs = 200
        train.metric_period = 20
    """,
    "ufm_mini_batch": """
        model.kind = ufm
        data.k = 4
        data.d = 6
        data.per_class = 5
        optimizer.kind = sgd_decoupled
        optimizer.lr = 0.5
        optimizer.momentum = 0.5
        optimizer.decoupled_wd = 0.01
        train.epochs = 100
        train.batch_size = 6
        train.metric_period = 10
    """,
    "ufm_fixed_features": """
        model.kind = ufm_fixed_features
        model.init = zero
        data.k = 10
        optimizer.kind = signgd_decoupled
        optimizer.lr = 0.1
        optimizer.decoupled_wd = 0.5
        train.epochs = 200
        train.metric_period = 50
    """,
    "ufm_fixed_gaussian_adam_w": """
        model.kind = ufm_fixed_features
        model.init = gaussian
        model.init_scale = 0.3
        data.k = 5
        optimizer.kind = adam_w
        optimizer.lr = 0.05
        optimizer.momentum = 0.9
        optimizer.decoupled_wd = 0.1
        train.epochs = 60
        train.metric_period = 10
        train.seed = 9
    """,
    "mlp_sgd_coupled": """
        model.kind = mlp
        data.k = 5
        data.d = 8
        data.per_class = 20
        optimizer.kind = sgd_coupled
        optimizer.lr = 0.05
        optimizer.momentum = 0.9
        optimizer.coupled_wd = 0.01
        train.epochs = 40
        train.batch_size = 10
        train.metric_period = 10
    """,
    "mlp_adam_w": """
        model.kind = mlp
        data.k = 5
        data.d = 8
        data.per_class = 20
        data.seed = 3
        optimizer.kind = adam_w
        optimizer.lr = 0.01
        optimizer.momentum = 0.9
        optimizer.decoupled_wd = 0.05
        train.epochs = 60
        train.metric_period = 10
        train.seed = 5
    """,
    "mlp_signgd_decoupled": """
        model.kind = mlp
        model.hidden_sizes = 12
        data.k = 4
        data.d = 10
        data.per_class = 25
        optimizer.kind = signgd_decoupled
        optimizer.lr = 0.005
        optimizer.decoupled_wd = 0.1
        train.epochs = 30
        train.batch_size = 20
        train.metric_period = 5
    """,
    "mlp_k100_p256": """
        model.kind = mlp
        model.hidden_sizes = 256
        data.k = 100
        data.d = 128
        data.per_class = 50
        data.seed = 7
        optimizer.kind = sgd_coupled
        optimizer.lr = 0.1
        optimizer.momentum = 0.9
        optimizer.coupled_wd = 0.05
        train.epochs = 2
        train.metric_period = 1
        train.seed = 8
    """,
}

# Command lines whose stdout is pinned: each check at its defaults, the
# theorem-4 check also at a setting with a 17-step run and several decay
# events, and the theorem-4 oracle.
CLI_ARGS = {
    "check_theorem_1": ["check-theorem", "1"],
    "check_theorem_2": ["check-theorem", "2"],
    "check_theorem_3": ["check-theorem", "3"],
    "check_theorem_4": ["check-theorem", "4"],
    "check_theorem_4_k5": ["check-theorem", "4", "--k", "5", "--lr", "0.05", "--wd", "0.5"],
    "oracle_theorem_4": ["oracle", "--theorem", "4"],
}
# Golden file -> the checks whose verdict lines (stderr) it pins.
VERDICT_CASES = {
    "check_theorem_1_3_verdicts": ("check_theorem_1", "check_theorem_2", "check_theorem_3"),
    "check_theorem_4_verdicts": ("check_theorem_4", "check_theorem_4_k5"),
}

# Training runs whose per-epoch row sums W^T 1 are pinned, one row per epoch.
ROWSUM_CONFIGS = {
    "oscillation_decay_rowsums": """
        model.kind = ufm_fixed_features
        data.k = 5
        optimizer.kind = signgd_coupled
        optimizer.lr = 0.05
        optimizer.coupled_wd = 0.5
        optimizer.schedule = oscillation_decay
        train.epochs = 120
        train.metric_period = 10
    """,
}

_MLP_SWEEP_BASE = """
    model.kind = mlp
    model.hidden_sizes = 8,8
    data.k = 4
    data.d = 8
    data.per_class = 10
    data.seed = 2
    train.epochs = 12
    train.batch_size = 10
    train.metric_period = 4
"""

_UFM_SWEEP_BASE = """
    model.kind = ufm
    data.k = 4
    data.d = 6
    data.per_class = 5
    train.epochs = 30
    train.metric_period = 10
"""

# Sweeps whose summary CSV and every cell's metric CSV are pinned, one
# directory each: (base config text, SweepSpec arguments). The wd = 0 cells
# take the adam family's no-decay branches.
SWEEP_CASES = {
    "sweep_mlp_all_kinds": (_MLP_SWEEP_BASE, dict(
        kinds=("sgd_coupled", "sgd_decoupled", "signgd_coupled", "signgd_decoupled", "signum",
               "signum_w", "adam", "adam_w", "adam_interpolated"),
        lrs=(0.01,), momenta=(0.0, 0.9), wds=(0.0, 0.01), base_seed=1)),
    "sweep_ufm_mini_batch": (_UFM_SWEEP_BASE + "train.batch_size = 6\n", dict(
        kinds=("sgd_coupled", "sgd_decoupled", "signum_w", "adam"),
        lrs=(0.1, 0.5), momenta=(0.5,), wds=(0.01,), base_seed=2)),
    "sweep_ufm_full_batch": (_UFM_SWEEP_BASE, dict(
        kinds=("sgd_coupled", "signgd_decoupled", "adam_w"),
        lrs=(0.1, 0.5), momenta=(0.0, 0.9), wds=(0.01,), base_seed=3)),
    "sweep_ufm_fixed_sign": ("""
        model.kind = ufm_fixed_features
        data.k = 6
        train.epochs = 40
        train.metric_period = 10
    """, dict(kinds=("signgd_coupled", "signgd_decoupled", "signum", "signum_w"),
              lrs=(0.05, 0.1), momenta=(0.0, 0.9), wds=(0.1, 0.5), base_seed=4)),
    "sweep_oscillation_decay": ("""
        model.kind = ufm_fixed_features
        data.k = 5
        optimizer.schedule = oscillation_decay
        optimizer.shrink_factor = 0.5
        train.epochs = 120
        train.metric_period = 10
    """, dict(kinds=("signgd_coupled", "signgd_decoupled"), lrs=(0.02, 0.05),
              momenta=(0.0,), wds=(0.0, 0.1, 0.5), base_seed=5)),
    # train.batch_size = data.k is the one batch size the geometry takes.
    "sweep_ufm_fixed_gaussian": ("""
        model.kind = ufm_fixed_features
        model.init = gaussian
        data.k = 4
        train.epochs = 30
        train.batch_size = 4
        train.metric_period = 10
    """, dict(kinds=("sgd_coupled", "adam"), lrs=(0.1,), momenta=(0.0, 0.9), wds=(0.01,),
              base_seed=6)),
    # lr = -1 is an error row, 1e-5 does not train and 1e4 diverges mid-run.
    "sweep_mlp_failures": (_MLP_SWEEP_BASE, dict(
        kinds=("sgd_coupled", "sgd_decoupled"), lrs=(-1.0, 1e-5, 0.05, 1e4),
        momenta=(0.9,), wds=(0.01,), base_seed=3)),
}

CASES = sorted(TRAIN_CONFIGS) + sorted(CLI_ARGS) + sorted(ROWSUM_CONFIGS)


@functools.lru_cache(maxsize=None)
def _run_cli(case: str) -> tuple:
    """(stdout, stderr) of a CLI_ARGS command line, which must exit 0. The
    CSV and the verdict tests share one run of each."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(CLI_ARGS[case]) == 0
    return out.getvalue(), err.getvalue()


def produce(case: str) -> str:
    """The CSV text a case writes with the code under test."""
    if case in TRAIN_CONFIGS:
        config = config_from_mapping(parse_config_text(TRAIN_CONFIGS[case]))
        return format_metric_csv(run_training(config).records)
    if case in CLI_ARGS:
        return _run_cli(case)[0]
    if case in ROWSUM_CONFIGS:
        config = config_from_mapping(parse_config_text(ROWSUM_CONFIGS[case]))
        weights = run_training(config, collect_weights=True).weights
        k = config.num_classes
        lines = ["epoch," + ",".join(f"m{i}" for i in range(k))]
        lines += [",".join([str(t)] + [repr(float(v)) for v in w.sum(axis=0)])
                  for t, w in weights]
        return "\n".join(lines) + "\n"
    raise KeyError(case)


def run_sweep_case(case: str):
    text, spec = SWEEP_CASES[case]
    return run_sweep(config_from_mapping(parse_config_text(text)), SweepSpec(**spec))


def produce_sweep(case: str) -> dict:
    """File name -> text of a sweep case: its summary CSV and the metric CSV
    of every cell that trained."""
    sweep = run_sweep_case(case)
    files = {"summary.csv": sweep_summary_csv(sweep)}
    for i, res in enumerate(sweep.results):
        if res is not None:
            files[f"cell_{i:02d}.csv"] = format_metric_csv(res.records)
    return files


def produce_verdicts(name: str) -> str:
    """The verdict lines of the checks that golden file ``name`` pins."""
    return "".join(_run_cli(case)[1] for case in VERDICT_CASES[name])


def sweep_cell_configs():
    """("<case>/cell_<i>", config) of each SWEEP_CASES cell that has a valid
    config."""
    for case, (text, spec) in SWEEP_CASES.items():
        base = config_from_mapping(parse_config_text(text))
        spec = SweepSpec(**spec)
        grid = product(spec.kinds, spec.lrs, spec.momenta, spec.wds)
        for i, (kind, lr, momentum, wd) in enumerate(grid):
            seed = derive_run_seed(spec.base_seed, kind, lr, momentum, wd)
            try:
                cell = _cell_config(base, kind, lr, momentum, wd, seed)
            except DomainError:
                continue
            yield f"{case}/cell_{i:02d}", cell


def produce_config_echo() -> str:
    """JSON of config_to_mapping for every config above: each training run,
    each sweep base and each sweep cell that has a valid config."""
    texts = {**TRAIN_CONFIGS, **ROWSUM_CONFIGS,
             **{case: text for case, (text, _) in SWEEP_CASES.items()}}
    configs = {case: config_from_mapping(parse_config_text(text)) for case, text in texts.items()}
    configs.update(sweep_cell_configs())
    echo = {case: config_to_mapping(config) for case, config in configs.items()}
    return json.dumps(echo, indent=1, sort_keys=True) + "\n"


def _golden_path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, case + ".csv")


def _verdicts_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name + ".txt")


ECHO_PATH = os.path.join(GOLDEN_DIR, "config_echo.json")


@pytest.mark.parametrize("case", CASES)
def test_csv_matches_golden_bytes(case):
    with open(_golden_path(case), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert produce(case) == expected


def _assert_verdicts_match(name: str) -> None:
    with open(_verdicts_path(name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert produce_verdicts(name) == expected


def test_theorem1_3_verdicts_match_golden_bytes():
    _assert_verdicts_match("check_theorem_1_3_verdicts")


def test_theorem4_verdicts_match_golden_bytes():
    _assert_verdicts_match("check_theorem_4_verdicts")


def test_config_echo_matches_golden_bytes():
    # The echo is pinned by content: the fixed-point property alone would
    # pass an echo that dropped or renamed a key on both sides.
    with open(ECHO_PATH, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert produce_config_echo() == expected


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_golden_bytes(case):
    directory = os.path.join(GOLDEN_DIR, case)
    expected = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8", newline="") as fh:
            expected[name] = fh.read()
    assert produce_sweep(case) == expected


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_cells_equal_run_training(case):
    """Each stacked cell ends with the records, status and parameter bits
    that run_training gives its config."""
    for res in run_sweep_case(case).results:
        if res is None:
            continue
        alone = run_training(res.config)
        assert alone.status == res.status
        assert format_metric_csv(alone.records) == format_metric_csv(res.records)
        assert ([a.tobytes() for a in alone.model.parameters()]
                == [a.tobytes() for a in res.model.parameters()])


def _write_sweep_golden(case: str) -> None:
    directory = os.path.join(GOLDEN_DIR, case)
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    for name, text in produce_sweep(case).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sys.argv[1:] or CASES + sorted(SWEEP_CASES):
        if name in SWEEP_CASES:
            _write_sweep_golden(name)
        else:
            with open(_golden_path(name), "w", encoding="utf-8", newline="") as fh:
                fh.write(produce(name))
        print(name)
    if len(sys.argv) == 1:
        for name in VERDICT_CASES:
            with open(_verdicts_path(name), "w", encoding="utf-8", newline="") as fh:
                fh.write(produce_verdicts(name))
        with open(ECHO_PATH, "w", encoding="utf-8", newline="") as fh:
            fh.write(produce_config_echo())
