"""First-order optimizer steps with coupled or decoupled weight decay.

Coupled decay folds lambda * param into the gradient before any momentum or
sign operation; decoupled decay shrinks the parameter directly and never
enters the momentum/sign path. Every step function is pure: it takes the
current parameter, gradient, and state, and returns the updated pair.

The adam-family step covers plain adam (coupled), adam_w (decoupled) and the
interpolated variant with both decay constants. With beta1 = beta2 = eps = 0
it takes an explicit sign-limit path whose floating-point operations are
identical to the sign-descent steps, so the reduction is exact at the bit
level, not merely close.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NumericError

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
]

_COUPLED_ONLY = {"sgd_coupled", "signgd_coupled", "signum", "adam"}
_DECOUPLED_ONLY = {"sgd_decoupled", "signgd_decoupled", "signum_w", "adam_w"}


@dataclass(frozen=True)
class LRSchedule:
    """Learning-rate schedule descriptor.

    kinds:
      constant          -- always base_lr
      step_decay        -- divide by decay_factor at floor(f * total_epochs)
                           for each milestone fraction f
      oscillation_decay -- starts at base_lr and shrinks by shrink_factor at
                           each decay event of the coupled sign-descent (a, b)
                           dynamics; run_training takes these step sizes from
                           oracles.coupled_signgd_steps, and lr_at gives base_lr
    """

    kind: str = "constant"
    base_lr: float = 0.1
    decay_factor: float = 10.0
    milestone_fractions: tuple = (1.0 / 3.0, 2.0 / 3.0)
    shrink_factor: float = 0.5

    def __post_init__(self):
        if self.kind not in ("constant", "step_decay", "oscillation_decay"):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if self.base_lr <= 0:
            raise DomainError("base_lr must be positive")
        if self.kind == "step_decay" and self.decay_factor <= 1:
            raise DomainError("decay_factor must exceed 1")
        if self.kind == "oscillation_decay" and not 0 < self.shrink_factor < 1:
            raise DomainError("shrink_factor must lie in (0, 1)")


def lr_at(schedule: LRSchedule, epoch: int, total_epochs: int) -> float:
    """Learning rate in effect at a (0-indexed) epoch.

    For step_decay the drop applies from the start of each milestone epoch
    floor(f * total_epochs). For oscillation_decay this is base_lr, the step
    size before any decay event.
    """
    if epoch < 0:
        raise DomainError("epoch must be >= 0")
    if schedule.kind != "step_decay":
        return schedule.base_lr
    passed = sum(
        1
        for f in schedule.milestone_fractions
        if epoch >= math.floor(f * total_epochs)
    )
    return schedule.base_lr / schedule.decay_factor**passed


@dataclass
class OptimizerConfig:
    kind: str = "sgd_decoupled"
    lr: float = 0.1
    momentum: float = 0.0
    beta2: float = 0.999
    eps: float = 1e-8
    coupled_wd: float = 0.0
    decoupled_wd: float = 0.0
    total_wd: Optional[float] = None
    schedule: Optional[LRSchedule] = None

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise DomainError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise DomainError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise DomainError("beta2 must lie in [0, 1)")
        if self.eps < 0 or self.coupled_wd < 0 or self.decoupled_wd < 0:
            raise DomainError("eps and weight decay constants must be >= 0")
        if self.eps == 0.0 and self.beta2 != 0.0 and self.kind.startswith("adam"):
            raise DomainError("eps = 0 is only valid in the beta2 = 0 sign limit")
        if self.kind in _COUPLED_ONLY and self.decoupled_wd != 0.0:
            raise DomainError(f"{self.kind} takes coupled_wd only")
        if self.kind in _DECOUPLED_ONLY and self.coupled_wd != 0.0:
            raise DomainError(f"{self.kind} takes decoupled_wd only")
        if self.total_wd is not None:
            total = self.coupled_wd + self.decoupled_wd
            if abs(total - self.total_wd) > 1e-12:
                raise DomainError(
                    f"coupled_wd + decoupled_wd = {total} != declared total {self.total_wd}"
                )
        if self.schedule is None:
            self.schedule = LRSchedule(kind="constant", base_lr=self.lr)

    @property
    def weight_decay(self) -> float:
        return self.coupled_wd + self.decoupled_wd


@dataclass
class OptimizerState:
    """Per-parameter buffers: momentum/first moment v, second moment, step count."""

    v: Optional[np.ndarray] = None
    second_moment: Optional[np.ndarray] = None
    t: int = 0

    @classmethod
    def initial(cls, param: np.ndarray, needs_second_moment: bool = False) -> "OptimizerState":
        return cls(
            v=np.zeros_like(param),
            second_moment=np.zeros_like(param) if needs_second_moment else None,
            t=0,
        )


def _warn_stability(product: float, bound: float, label: str) -> None:
    if not 0.0 <= product < bound:
        warnings.warn(
            f"lr * weight_decay = {product:g} is outside the contractive range "
            f"[0, {bound:g}) for {label}; iterates may not decay",
            RuntimeWarning,
            stacklevel=3,
        )


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
    steps bit-exact.
    """
    if eps == 0.0 and beta2 != 0.0:
        raise DomainError("eps = 0 is only valid in the beta2 = 0 sign limit")
    g = grad + coupled_wd * param if coupled_wd != 0.0 else grad
    t = state.t + 1
    if beta1 == 0.0 and beta2 == 0.0 and eps == 0.0:
        ratio = np.sign(g)
        v = g
        second = g * g
    else:
        v = beta1 * state.v + (1.0 - beta1) * g
        second = beta2 * state.second_moment + (1.0 - beta2) * (g * g)
        m_hat = v / (1.0 - beta1**t)
        v_hat = second / (1.0 - beta2**t)
        denom = np.sqrt(v_hat) + eps
        if np.any(denom == 0.0):
            raise NumericError("adam denominator sqrt(v_hat) + eps hit zero")
        ratio = m_hat / denom
    if decoupled_wd != 0.0:
        new_param = param - lr * (ratio + decoupled_wd * param)
    else:
        new_param = param - lr * ratio
    return new_param, OptimizerState(v=v, second_moment=second, t=t)


def _adam_step(p, g, s, lr, c):
    return step_adam_family(p, g, s, lr, c.momentum, c.beta2, c.eps, c.coupled_wd, c.decoupled_wd)


# Per-parameter step of each optimizer kind, as (param, grad, state, lr,
# config) -> (param, state). The entries call their step function by name,
# so it is looked up in this module each time a step runs.
_STEPS = {
    "sgd_coupled": lambda p, g, s, lr, c: step_sgd_coupled(p, g, s, lr, c.momentum, c.coupled_wd),
    "sgd_decoupled": lambda p, g, s, lr, c: step_sgd_decoupled(
        p, g, s, lr, c.momentum, c.decoupled_wd),
    "signgd_coupled": lambda p, g, s, lr, c: step_signgd_coupled(p, g, s, lr, c.coupled_wd),
    "signgd_decoupled": lambda p, g, s, lr, c: step_signgd_decoupled(p, g, s, lr, c.decoupled_wd),
    "signum": lambda p, g, s, lr, c: step_signum(
        p, g, s, lr, c.momentum, c.coupled_wd, coupled=True),
    "signum_w": lambda p, g, s, lr, c: step_signum(
        p, g, s, lr, c.momentum, c.decoupled_wd, coupled=False),
    "adam": _adam_step,
    "adam_w": _adam_step,
    "adam_interpolated": _adam_step,
}

OPTIMIZER_KINDS = tuple(_STEPS)


class Optimizer:
    """Binds an OptimizerConfig to a list of parameters and dispatches steps.

    The step function of the config's kind is chosen once, here. ``step``
    returns the updated parameter list; internal per-parameter states advance
    in place. Each optimizer instance belongs to one run.
    """

    def __init__(self, config: OptimizerConfig, params: Sequence[np.ndarray]):
        self.config = config
        self._step = _STEPS[config.kind]
        needs_second = config.kind.startswith("adam")
        self.states = [OptimizerState.initial(p, needs_second) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float):
        if len(params) != len(self.states) or len(grads) != len(self.states):
            raise DomainError("parameter/gradient count changed mid-run")
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            p2, self.states[i] = self._step(p, g, self.states[i], lr, self.config)
            out.append(p2)
        return out
