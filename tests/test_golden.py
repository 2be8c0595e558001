"""Byte-for-byte regression of metric and check CSVs against tests/golden/.

The golden files pin the exact bytes that training runs and theorem checks
write. A refactor or speedup must leave them unchanged. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change
of output, and say why in the change log.
"""

import contextlib
import io
import os
import sys

import pytest

from nc_lab.cli import main
from nc_lab.harness import config_from_mapping, format_metric_csv, parse_config_text, run_training

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

CHECK_THEOREMS = ("1", "2", "3")

CASES = sorted(TRAIN_CONFIGS) + [f"check_theorem_{t}" for t in CHECK_THEOREMS]


def produce(case: str) -> str:
    """The CSV text a case writes with the code under test."""
    if case in TRAIN_CONFIGS:
        config = config_from_mapping(parse_config_text(TRAIN_CONFIGS[case]))
        return format_metric_csv(run_training(config).records)
    theorem = case.rsplit("_", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check-theorem", theorem]) == 0
    return out.getvalue()


def _golden_path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, case + ".csv")


@pytest.mark.parametrize("case", CASES)
def test_csv_matches_golden_bytes(case):
    with open(_golden_path(case), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert produce(case) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sys.argv[1:] or CASES:
        with open(_golden_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(produce(name))
        print(name)
