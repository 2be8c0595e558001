"""Desk-scale lab for last-layer collapse geometry under weight decay.

The package trains small classifiers (a multilayer perceptron on Gaussian
blobs or on the simplex frame, or a model whose feature columns are
themselves trainable), logs the
collapse metric bundle every few epochs, and cross-checks the measured
classifier row-sum energy against closed-form trajectories for each
optimizer family.
"""

from .errors import BudgetExceededError, DomainError, NumericError, ShapeError
from .harness import (
    CheckResult,
    ExperimentConfig,
    MetricRecord,
    SweepSpec,
    TrainResult,
    check_coupled_rowsum_recursion,
    check_coupled_sign_oscillation,
    check_decoupled_rowsum_decay,
    check_decoupled_sign_plateau,
    emit_csv,
    emit_summary_json,
    load_config,
    regress_runs,
    run_sweep,
    run_training,
)
from .metrics import (
    METRIC_KEYS,
    LabeledFeatures,
    all_metrics,
    compute_class_statistics,
    nc0_alpha,
    nc0_metric,
    simplex_etf,
)
from .models import MLPModel, UFMModel, make_blob_dataset, make_nc_solution
from .optim import LRSchedule, Optimizer, OptimizerConfig, OptimizerState
from .oracles import (
    alpha_from_rowsum,
    alpha_sgd_decoupled,
    alpha_signgd_decoupled,
    char_roots,
    coupled_signgd_run_with_decay,
    ode_alpha_bound,
    ode_alpha_closed_form,
    rowsum_recursion_coupled,
)
from .stats import RegressionFit, ols_fit, regularized_incomplete_beta, t_ppf, t_sf

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DomainError",
    "NumericError",
    "ShapeError",
    "CheckResult",
    "ExperimentConfig",
    "MetricRecord",
    "SweepSpec",
    "TrainResult",
    "check_coupled_rowsum_recursion",
    "check_coupled_sign_oscillation",
    "check_decoupled_rowsum_decay",
    "check_decoupled_sign_plateau",
    "emit_csv",
    "emit_summary_json",
    "load_config",
    "regress_runs",
    "run_sweep",
    "run_training",
    "METRIC_KEYS",
    "LabeledFeatures",
    "all_metrics",
    "compute_class_statistics",
    "nc0_alpha",
    "nc0_metric",
    "simplex_etf",
    "MLPModel",
    "UFMModel",
    "make_blob_dataset",
    "make_nc_solution",
    "LRSchedule",
    "Optimizer",
    "OptimizerConfig",
    "OptimizerState",
    "alpha_from_rowsum",
    "alpha_sgd_decoupled",
    "alpha_signgd_decoupled",
    "char_roots",
    "coupled_signgd_run_with_decay",
    "ode_alpha_bound",
    "ode_alpha_closed_form",
    "rowsum_recursion_coupled",
    "RegressionFit",
    "ols_fit",
    "regularized_incomplete_beta",
    "t_ppf",
    "t_sf",
    "__version__",
]
