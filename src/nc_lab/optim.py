"""First-order optimizer steps with coupled or decoupled weight decay.

Coupled decay folds lambda * param into the gradient before any momentum or
sign operation; decoupled decay shrinks the parameter directly and never
enters the momentum/sign path. Every step function is pure: it takes the
current parameter, gradient, and state, and returns the updated pair.
``Optimizer`` binds a config to one array and steps it.

An OptimizerConfig holds the one learning rate, ``lr``. Its LRSchedule says
only how the step size moves away from lr over training; ``lr_at`` reads
both.

The adam-family step covers plain adam (coupled), adam_w (decoupled) and the
interpolated variant with both decay constants. With beta1 = beta2 = eps = 0
it takes an explicit sign-limit path whose floating-point operations are
identical to the sign-descent steps, so the reduction is exact at the bit
level, not merely close.

Every step also runs on a stack of cells: parameters with a leading cell
axis, and each hyperparameter either a float or a (G, 1, 1) column of
per-cell values. The cells of one stacked step must take the same
Python-level branches; ``optimizer_groups`` splits a stack into runs of
cells that do. An adam-family step whose denominator sqrt(v_hat) + eps hits
zero does not raise: it reports the cells along the leading axis where it
did, so the other cells of a stack keep their step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "OPTIMIZER_KINDS",
    "OptimizerConfig",
    "OptimizerState",
    "LRSchedule",
    "lr_at",
    "step_sgd_coupled",
    "step_sgd_decoupled",
    "step_signgd_coupled",
    "step_signgd_decoupled",
    "step_signum",
    "step_adam_family",
    "Optimizer",
    "StackedConfig",
    "cell_column",
    "optimizer_groups",
]


def _refuse_unread(config, what: str, kind: str, unread: dict) -> None:
    """The rule of every model, optimizer and schedule config: ``kind`` is a
    key of ``unread``, and each field it does not read holds its default."""
    if kind not in unread:
        raise DomainError(f"unknown {what} kind {kind!r}")
    changed = [f.name for f in fields(config)
               if f.name in unread[kind] and getattr(config, f.name) != f.default]
    if changed:
        raise DomainError(f"{what} {kind} reads no {', '.join(changed)}")


# The LRSchedule fields each schedule kind reads, besides its kind, and those
# it does not read.
_SCHEDULE_READS = {
    "constant": (),
    "step_decay": ("decay_factor", "milestone_fractions"),
    "oscillation_decay": ("shrink_factor",),
}
_SCHEDULE_UNREAD = {kind: tuple(sorted(set().union(*_SCHEDULE_READS.values()) - set(reads)))
                    for kind, reads in _SCHEDULE_READS.items()}


@dataclass(frozen=True)
class LRSchedule:
    """How the learning rate moves away from OptimizerConfig.lr, the step
    size every schedule starts from.

    kinds:
      constant          -- always lr
      step_decay        -- divide by decay_factor at floor(f * total_epochs)
                           for each milestone fraction f
      oscillation_decay -- starts at lr and shrinks by shrink_factor at each
                           decay event of the coupled sign-descent (a, b)
                           dynamics; run_training takes these step sizes from
                           oracles.coupled_signgd_steps, and lr_at gives lr
    """

    kind: str = "constant"
    decay_factor: float = 10.0
    milestone_fractions: tuple = (1.0 / 3.0, 2.0 / 3.0)
    shrink_factor: float = 0.5

    def __post_init__(self):
        _refuse_unread(self, "schedule", self.kind, _SCHEDULE_UNREAD)
        if self.decay_factor <= 1:
            raise DomainError("decay_factor must exceed 1")
        if not 0 < self.shrink_factor < 1:
            raise DomainError("shrink_factor must lie in (0, 1)")


def lr_at(config: "OptimizerConfig", epoch: int, total_epochs: int) -> float:
    """Learning rate in effect at a (0-indexed) epoch under config.schedule,
    starting from config.lr.

    For step_decay the drop applies from the start of each milestone epoch
    floor(f * total_epochs). For oscillation_decay this is config.lr, the
    step size before any decay event.
    """
    if epoch < 0:
        raise DomainError("epoch must be >= 0")
    schedule = config.schedule
    if schedule.kind != "step_decay":
        return config.lr
    passed = sum(
        1
        for f in schedule.milestone_fractions
        if epoch >= math.floor(f * total_epochs)
    )
    return config.lr / schedule.decay_factor**passed


@dataclass(frozen=True)
class OptimizerConfig:
    """One optimizer: its kind, the learning rate ``lr`` every schedule
    starts from, its hyperparameters and its learning-rate schedule."""

    kind: str = "sgd_decoupled"
    lr: float = 0.1
    momentum: float = 0.0
    beta2: float = 0.999
    eps: float = 1e-8
    coupled_wd: float = 0.0
    decoupled_wd: float = 0.0
    schedule: LRSchedule = LRSchedule()

    def __post_init__(self):
        _refuse_unread(self, "optimizer", self.kind, _OPTIMIZER_UNREAD)
        if self.lr <= 0:
            raise DomainError("lr must be positive")
        for name in ("momentum", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise DomainError(f"{name} must lie in [0, 1)")
        if self.eps < 0 or self.coupled_wd < 0 or self.decoupled_wd < 0:
            raise DomainError("eps and weight decay constants must be >= 0")
        if self.eps == 0.0 and self.beta2 != 0.0:
            raise DomainError("eps = 0 is only valid in the beta2 = 0 sign limit")


@dataclass
class OptimizerState:
    """Per-parameter buffers: momentum/first moment v, second moment, step
    count. ``zero_denominator`` is set by an adam-family step whose
    denominator hit zero: a boolean per entry of the leading axis (per cell
    of a stack), True where it did; those entries took no valid step."""

    v: Optional[np.ndarray] = None
    second_moment: Optional[np.ndarray] = None
    t: int = 0
    zero_denominator: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, param: np.ndarray, needs_second_moment: bool = False) -> "OptimizerState":
        second = np.zeros_like(param) if needs_second_moment else None
        return cls(v=np.zeros_like(param), second_moment=second)


def _warn_stability(product, bound, label: str) -> None:
    """Warn once per cell whose lr * weight_decay is outside [0, bound)."""
    if isinstance(product, float) and isinstance(bound, float) and 0.0 <= product < bound:
        return
    for cell_product, cell_bound in np.broadcast(product, bound):
        if not 0.0 <= cell_product < cell_bound:
            warnings.warn(
                f"lr * weight_decay = {cell_product:g} is outside the contractive range "
                f"[0, {cell_bound:g}) for {label}; iterates may not decay",
                RuntimeWarning,
                stacklevel=3,
            )


def _every_cell(condition) -> bool:
    """A branch condition, for floats or per cell of a column. The cells of
    one stacked step must agree on it, or their float operations would differ."""
    if isinstance(condition, (bool, np.bool_)):
        return bool(condition)
    if condition.all():
        return True
    if not condition.any():
        return False
    raise DomainError("the cells of a stacked step take different branches")


def _bias_correction(beta, t: int):
    """1 - beta**t, computed in Python floats per cell as a scalar step does."""
    if np.ndim(beta) == 0:
        return 1.0 - beta**t
    return np.array([1.0 - b**t for b in beta.ravel().tolist()]).reshape(beta.shape)


def step_sgd_coupled(param, grad, state, lr, momentum, weight_decay):
    """V <- momentum*V + grad + wd*param; param <- param - lr*V."""
    _warn_stability(lr * weight_decay, 2.0 * (1.0 + momentum), "coupled sgd")
    v = momentum * state.v + (grad + weight_decay * param)
    new_param = param - lr * v
    return new_param, OptimizerState(v=v, t=state.t + 1)


def step_sgd_decoupled(param, grad, state, lr, momentum, weight_decay):
    """V <- momentum*V + grad; param <- (1 - lr*wd)*param - lr*V."""
    _warn_stability(lr * weight_decay, 2.0, "decoupled sgd")
    v = momentum * state.v + grad
    new_param = (1.0 - lr * weight_decay) * param - lr * v
    return new_param, OptimizerState(v=v, t=state.t + 1)


def step_signgd_coupled(param, grad, state, lr, weight_decay):
    """param <- param - lr * sign(grad + wd*param); sign(0) = 0."""
    new_param = param - lr * np.sign(grad + weight_decay * param)
    return new_param, OptimizerState(v=state.v, t=state.t + 1)


def step_signgd_decoupled(param, grad, state, lr, weight_decay):
    """param <- param - lr * (sign(grad) + wd*param); sign(0) = 0."""
    new_param = param - lr * (np.sign(grad) + weight_decay * param)
    return new_param, OptimizerState(v=state.v, t=state.t + 1)


def step_signum(param, grad, state, lr, momentum, weight_decay, coupled=True):
    """Sign of the gradient EMA; decay either enters the EMA (coupled) or
    multiplies the parameter (decoupled)."""
    if coupled:
        v = momentum * state.v + (1.0 - momentum) * (grad + weight_decay * param)
        new_param = param - lr * np.sign(v)
    else:
        # same grouping as the plain decoupled sign step so the beta = 0
        # reduction is bit-exact
        v = momentum * state.v + (1.0 - momentum) * grad
        new_param = param - lr * (np.sign(v) + weight_decay * param)
    return new_param, OptimizerState(v=v, t=state.t + 1)


def step_adam_family(param, grad, state, lr, beta1, beta2, eps, coupled_wd, decoupled_wd):
    """Bias-corrected adaptive step with both decay styles.

    g = grad + coupled_wd * param feeds both moment buffers; the update is
    param - lr * (m_hat / (sqrt(v_hat) + eps) + decoupled_wd * param).
    beta1 = beta2 = eps = 0 short-circuits to sign(g) (zero where g is zero),
    bypassing bias correction, which makes the reduction to the sign-descent
    steps bit-exact. Where the denominator is zero (beta2 = eps = 0 off the
    sign limit, at a zero gradient) it divides by one instead and marks the
    leading-axis entries it did so for in the state's ``zero_denominator``.
    """
    if _every_cell((eps == 0.0) & (beta2 != 0.0)):
        raise DomainError("eps = 0 is only valid in the beta2 = 0 sign limit")
    g = grad + coupled_wd * param if _every_cell(coupled_wd != 0.0) else grad
    t = state.t + 1
    zero_denominator = None
    if _every_cell((beta1 == 0.0) & (beta2 == 0.0) & (eps == 0.0)):
        ratio = np.sign(g)
        v = g
        second = g * g
    else:
        v = beta1 * state.v + (1.0 - beta1) * g
        second = beta2 * state.second_moment + (1.0 - beta2) * (g * g)
        m_hat = v / _bias_correction(beta1, t)
        v_hat = second / _bias_correction(beta2, t)
        denom = np.sqrt(v_hat) + eps
        zero = denom == 0.0
        if zero.any():
            zero_denominator = zero.any(axis=tuple(range(1, zero.ndim)))
            denom = np.where(zero, 1.0, denom)
        ratio = m_hat / denom
    if _every_cell(decoupled_wd != 0.0):
        new_param = param - lr * (ratio + decoupled_wd * param)
    else:
        new_param = param - lr * ratio
    return new_param, OptimizerState(v, second, t, zero_denominator)


# Each optimizer kind: the OptimizerConfig fields it reads besides lr and
# schedule, and its step(param, grad, state, lr, *their values) -> (param,
# state), which looks its step function up in this module each time it runs.
_STEPS = {
    "sgd_coupled": (("momentum", "coupled_wd"), lambda *a: step_sgd_coupled(*a)),
    "sgd_decoupled": (("momentum", "decoupled_wd"), lambda *a: step_sgd_decoupled(*a)),
    "signgd_coupled": (("coupled_wd",), lambda *a: step_signgd_coupled(*a)),
    "signgd_decoupled": (("decoupled_wd",), lambda *a: step_signgd_decoupled(*a)),
    "signum": (("momentum", "coupled_wd"), lambda *a: step_signum(*a, coupled=True)),
    "signum_w": (("momentum", "decoupled_wd"), lambda *a: step_signum(*a, coupled=False)),
    "adam": (("momentum", "beta2", "eps", "coupled_wd"), lambda *a: step_adam_family(*a, 0.0)),
    "adam_w": (("momentum", "beta2", "eps", "decoupled_wd"),
               lambda *a: step_adam_family(*a[:-1], 0.0, a[-1])),
    "adam_interpolated": (("momentum", "beta2", "eps", "coupled_wd", "decoupled_wd"),
                          lambda *a: step_adam_family(*a)),
}

OPTIMIZER_KINDS = tuple(_STEPS)


def cell_column(values):
    """Per-cell values as one step argument: the first value itself when
    every cell holds the same bits, else a (G, 1, 1) float64 column."""
    if len(values) == 1:
        return values[0]
    column = np.array(values, dtype=np.float64)
    bits = column.view(np.uint64)
    if (bits == bits[0]).all():
        return values[0]
    return column.reshape(-1, 1, 1)


@dataclass(frozen=True)
class StackedConfig:
    """The optimizer configs of consecutive cells as one config: each
    hyperparameter is ``cell_column`` of the cells' values."""

    kind: str
    momentum: object
    beta2: object
    eps: object
    coupled_wd: object
    decoupled_wd: object

    @classmethod
    def of(cls, configs: Sequence[OptimizerConfig]) -> "StackedConfig":
        return cls(configs[0].kind, *(cell_column([getattr(c, f.name) for c in configs])
                                      for f in fields(cls)[1:]))


# The hyperparameters (StackedConfig's fields) that each optimizer kind does not read.
_OPTIMIZER_UNREAD = {kind: tuple(f.name for f in fields(StackedConfig)[1:] if f.name not in reads)
                     for kind, (reads, _) in _STEPS.items()}


def _branches(config: OptimizerConfig) -> tuple:
    """What selects the Python-level branches of a config's step function."""
    if "beta2" not in _STEPS[config.kind][0]:
        return (config.kind,)
    sign_limit = config.momentum == 0.0 and config.beta2 == 0.0 and config.eps == 0.0
    return (config.kind, sign_limit, config.coupled_wd != 0.0, config.decoupled_wd != 0.0)


def optimizer_groups(configs: Sequence[OptimizerConfig]) -> list:
    """Split the optimizer configs of a stack, in order, into runs of
    consecutive cells whose steps take the same branches and so run identical
    float operations: a list of (start, stop, StackedConfig)."""
    groups = []
    start = 0
    for i in range(1, len(configs) + 1):
        if i == len(configs) or _branches(configs[i]) != _branches(configs[start]):
            groups.append((start, i, StackedConfig.of(configs[start:i])))
            start = i
    return groups


class Optimizer:
    """Binds an OptimizerConfig to one array and steps it.

    The array is one run's parameter, or, when ``config`` is a StackedConfig,
    a stack of cells with a leading cell axis. ``step`` returns the new array
    and the state's ``zero_denominator`` (None unless an adam-family step hit
    a zero denominator); the state advances in place.
    """

    def __init__(self, config: OptimizerConfig, param: np.ndarray):
        self.config = config
        self._reads, self._step = _STEPS[config.kind]
        self.state = OptimizerState.initial(param, "beta2" in self._reads)

    def step(self, param: np.ndarray, grad: np.ndarray, lr):
        hyper = [getattr(self.config, name) for name in self._reads]
        new_param, self.state = self._step(param, grad, self.state, lr, *hyper)
        return new_param, self.state.zero_denominator
