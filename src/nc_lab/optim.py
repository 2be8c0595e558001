"""First-order optimizer steps with coupled or decoupled weight decay.

Coupled decay folds lambda * param into the gradient before any momentum or
sign operation; decoupled decay shrinks the parameter directly and never
enters the momentum/sign path. Every step function is pure: it takes the
current parameter, gradient, and state, and returns the updated pair.
``Optimizer`` steps a stack of cells, each with its own config.

An OptimizerConfig holds the one learning rate, ``lr``. Its LRSchedule says
only how the step size moves away from lr over training; ``lr_at`` reads
both.

The adam-family step covers plain adam (coupled), adam_w (decoupled) and the
interpolated variant with both decay constants. With beta1 = beta2 = eps = 0
it takes an explicit sign-limit path whose floating-point operations are
identical to the sign-descent steps, so the reduction is exact at the bit
level, not merely close. eps = 0 is refused anywhere else, where the
denominator sqrt(v_hat) + eps would be zero at every zero gradient entry.

Every step also runs on a stack of cells: parameters with a leading cell
axis, and each hyperparameter either a float or a (G, 1, 1) column of
per-cell values. The cells of one stacked step must take the same
Python-level branches. ``Optimizer`` owns a stack's parameters: it copies
the stacked arrays into one G x 1 x P buffer, hands out views of it as
``params``, splits the cells into groups of consecutive cells that take the
same branches, steps every group in one call, and drops cells with their
state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

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


def _refuse_non_finite(config, names) -> None:
    """Each named field of a config, a number or a tuple of numbers, is finite."""
    for name in names:
        value = getattr(config, name)
        if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
            raise DomainError(f"{name} must be finite, got {value!r}")


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
        _refuse_non_finite(self, ("decay_factor", "milestone_fractions"))
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


_SIGN_LIMIT_ONLY = "eps = 0 is only valid in the momentum = beta2 = 0 sign limit"


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
        _refuse_non_finite(self, ("lr", "eps", "coupled_wd", "decoupled_wd"))
        if self.lr <= 0:
            raise DomainError("lr must be positive")
        for name in ("momentum", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise DomainError(f"{name} must lie in [0, 1)")
        if self.eps < 0 or self.coupled_wd < 0 or self.decoupled_wd < 0:
            raise DomainError("eps and weight decay constants must be >= 0")
        if self.eps == 0.0 and (self.momentum != 0.0 or self.beta2 != 0.0):
            raise DomainError(_SIGN_LIMIT_ONLY)


@dataclass
class OptimizerState:
    """Per-parameter buffers: momentum/first moment v, second moment, step
    count."""

    v: Optional[np.ndarray] = None
    second_moment: Optional[np.ndarray] = None
    t: int = 0

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
    steps bit-exact. eps = 0 with beta1 or beta2 nonzero is refused, so the
    denominator is never zero.
    """
    if np.any((eps == 0.0) & ((beta1 != 0.0) | (beta2 != 0.0))):
        raise DomainError(_SIGN_LIMIT_ONLY)
    g = grad + coupled_wd * param if _every_cell(coupled_wd != 0.0) else grad
    t = state.t + 1
    if _every_cell(eps == 0.0):
        ratio = np.sign(g)
        v = g
        second = g * g
    else:
        v = beta1 * state.v + (1.0 - beta1) * g
        second = beta2 * state.second_moment + (1.0 - beta2) * (g * g)
        m_hat = v / _bias_correction(beta1, t)
        v_hat = second / _bias_correction(beta2, t)
        ratio = m_hat / (np.sqrt(v_hat) + eps)
    if _every_cell(decoupled_wd != 0.0):
        new_param = param - lr * (ratio + decoupled_wd * param)
    else:
        new_param = param - lr * ratio
    return new_param, OptimizerState(v, second, t)


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

# The fields of OptimizerConfig that each optimizer kind does not read.
_OPTIMIZER_UNREAD = {kind: tuple(f.name for f in fields(OptimizerConfig)
                                 if f.name not in ("kind", "lr", "schedule", *reads))
                     for kind, (reads, _) in _STEPS.items()}


def _cell_column(values):
    """Per-cell values as one step argument: the first value itself when
    every cell holds the same bits, else a (G, 1, 1) float64 column."""
    if len(values) == 1:
        return values[0]
    column = np.array(values, dtype=np.float64)
    bits = column.view(np.uint64)
    if (bits == bits[0]).all():
        return values[0]
    return column.reshape(-1, 1, 1)


def _branches(config: OptimizerConfig) -> tuple:
    """What selects the Python-level branches of a config's step function."""
    if "beta2" not in _STEPS[config.kind][0]:
        return (config.kind,)
    return (config.kind, config.eps == 0.0, config.coupled_wd != 0.0, config.decoupled_wd != 0.0)


@dataclass
class _Group:
    """A slice of a stack's cells whose steps take the same branches: the
    kind's step, the fields it reads and their per-cell columns, the
    step-size column and the group's state."""

    cells: slice
    reads: tuple
    step: Callable
    state: OptimizerState
    hyper: list = None
    lr: object = None


def _flat(arrays) -> np.ndarray:
    """Stacked arrays as one new G x 1 x P array: each cell's values, in order."""
    return np.concatenate([a.reshape(len(a), 1, -1) for a in arrays], axis=2)


class Optimizer:
    """Steps a stack of cells (a single run is a one-cell stack): ``params``
    are arrays with a leading cell axis, ``configs`` the cells' configs.

    It copies the arrays into one G x 1 x P buffer, whose views in their
    shapes are ``params``: a model holding them sees every step. The cells
    split into groups of consecutive cells whose steps take the same
    branches, and so run identical float operations. Each group binds the
    fields its kind reads once, as per-cell columns, and keeps its own
    state. Each cell steps at its config's lr until ``set_step_sizes``."""

    def __init__(self, configs: Sequence[OptimizerConfig], params: Sequence[np.ndarray]):
        self._shapes = [p.shape[1:] for p in params]
        self._buffer = _flat(params)
        self._view()
        self._groups = []
        start = 0
        for i in range(1, len(configs) + 1):
            if i == len(configs) or _branches(configs[i]) != _branches(configs[start]):
                reads, step = _STEPS[configs[start].kind]
                state = OptimizerState.initial(self._buffer[start:i], "beta2" in reads)
                self._groups.append(_Group(slice(start, i), reads, step, state))
                start = i
        self._bind(list(configs), [config.lr for config in configs])

    def _view(self) -> None:
        """Point ``params`` at the buffer, each array in its stacked shape."""
        bounds = np.cumsum([0] + [math.prod(shape) for shape in self._shapes]).tolist()
        self.params = [self._buffer[:, 0, a:b].reshape(-1, *shape)
                       for a, b, shape in zip(bounds, bounds[1:], self._shapes)]

    def _bind(self, configs: list, lrs: list) -> None:
        """Bind each group's columns of the cells' configs and step sizes."""
        self._configs = configs
        for g in self._groups:
            g.hyper = [_cell_column([getattr(c, name) for c in configs[g.cells]])
                       for name in g.reads]
        self._lrs = None            # the groups are new: bind every step size
        self.set_step_sizes(lrs)

    def set_step_sizes(self, lrs: Sequence) -> None:
        """Bind each cell's step size, in cell order, for the steps to come.
        Step sizes equal to the bound ones are left bound (they are
        positive, so == is equality of bits)."""
        lrs = list(lrs)
        if lrs == self._lrs:
            return
        self._lrs = lrs
        for g in self._groups:
            g.lr = _cell_column(self._lrs[g.cells])

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """One step of every group on ``grads``, aligned with ``params``,
        written into the buffer. A single gradient array is read through a
        G x 1 x P reshape of it (a view when it is contiguous), not copied.
        The step functions never write their gradient, but a group's state
        may keep a view of it (the adam sign limit's v), so a caller must not
        write a gradient array it has passed here."""
        grad = grads[0].reshape(len(grads[0]), 1, -1) if len(grads) == 1 else _flat(grads)
        for g in self._groups:
            new, g.state = g.step(self._buffer[g.cells], grad[g.cells], g.state, g.lr, *g.hyper)
            self._buffer[g.cells] = new

    def keep(self, kept: np.ndarray) -> None:
        """Drop the cells whose entry in the boolean array ``kept`` is False,
        with their parameters, state slices, hyperparameter columns and step
        sizes, and point ``params`` at the new buffer. A group left empty
        goes; the groups around it stay apart."""
        self._buffer = self._buffer[kept]
        self._view()
        lo = 0
        for g in self._groups:
            cells, second = kept[g.cells], g.state.second_moment
            g.state = OptimizerState(g.state.v[cells],
                                     None if second is None else second[cells], g.state.t)
            g.cells = slice(lo, lo + int(cells.sum()))
            lo = g.cells.stop
        self._groups = [g for g in self._groups if g.cells.stop > g.cells.start]
        self._bind([c for c, k in zip(self._configs, kept) if k],
                   [lr for lr, k in zip(self._lrs, kept) if k])
