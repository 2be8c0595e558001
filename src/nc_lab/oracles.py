"""Closed-form predictions for the classifier row-sum dynamics.

Each oracle predicts alpha_t = (1/K) ||W_t^T 1||^2 (or the row-sum vector
itself) for a specific optimizer family, from hyperparameters alone. They are
the reference the simulation harness is checked against:

* decoupled SGD          -- alpha_t = (1 - lr*wd)^(2t) * alpha_0
* coupled SGD + momentum -- second-order linear recursion on m_t = W_t^T 1
* decoupled sign descent -- alpha_t climbs to the plateau (K-2)^2 / wd^2
* coupled sign descent   -- two-scalar (a, b) system with a sign-oscillation
                            detector that drives learning-rate shrinking; one
                            run gives its states s_0..s_T and decay steps
                            (K >= 3: at K = 2, a = b and alpha stays 0)
* momentum convolution ODE -- alpha'(t) = -wd*int_0^t beta^(t-s) alpha(s) ds,
                            solved by a two-exponential closed form

For W in the family (a+b)I - bJ the row-sum vector is (a-(K-1)b)*1, so the
proof-level scalar alpha (a-(K-1)b)^2 equals the matrix-level
(1/K)||W^T 1||^2 exactly; the oracles return that common value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, DomainError

__all__ = [
    "alpha_sgd_decoupled",
    "CharRoots",
    "char_roots",
    "rowsum_recursion_coupled",
    "rowsum_decay_constant",
    "alpha_from_rowsum",
    "alpha_signgd_decoupled",
    "alpha_signgd_decoupled_limit",
    "CoupledSignState",
    "coupled_sign_psi",
    "coupled_signgd_scalar_step",
    "oscillation_decay_due",
    "apply_decay",
    "scalar_alpha",
    "coupled_signgd_steps",
    "coupled_signgd_run_with_decay",
    "ode_alpha_closed_form",
    "ode_bound_constant",
    "ode_alpha_bound",
]


def _in_float_range(closed_form, t: int, lr: float, wd: float) -> float:
    """closed_form(), a closed form's value at step t; DomainError naming
    lr and wd where it is not a finite float."""
    try:
        value = closed_form()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"lr = {lr!r} and wd = {wd!r} take the closed form out of "
                          f"float range at t = {t}")
    return value


def alpha_sgd_decoupled(t: int, alpha0: float, lr: float, wd: float) -> float:
    """alpha_t = (1 - lr*wd)^(2t) * alpha_0 under decoupled SGD (any momentum)."""
    if t < 0:
        raise DomainError("t must be >= 0")
    if alpha0 < 0:
        raise DomainError("alpha0 must be >= 0")
    return _in_float_range(lambda: (1.0 - lr * wd) ** (2 * t) * alpha0, t, lr, wd)


@dataclass(frozen=True)
class CharRoots:
    """Roots of r^2 - (1 + momentum - lr*wd) r + momentum = 0.

    ``roots`` is the (r_plus, r_minus) pair as complex numbers;
    ``spectral_radius`` = max |root| (= sqrt(momentum) when complex).
    """

    linear_coefficient: float
    constant_coefficient: float
    roots: tuple
    spectral_radius: float
    is_complex: bool


def char_roots(momentum: float, lr: float, wd: float) -> CharRoots:
    if momentum < 0:
        raise DomainError("momentum must be >= 0")
    b = 1.0 + momentum - lr * wd
    disc = b * b - 4.0 * momentum
    if disc >= 0.0:
        root = math.sqrt(disc)
        r_plus = (b + root) / 2.0
        r_minus = (b - root) / 2.0
        radius = max(abs(r_plus), abs(r_minus))
        return CharRoots(b, momentum, (complex(r_plus), complex(r_minus)), radius, False)
    imag = math.sqrt(-disc) / 2.0
    r_plus = complex(b / 2.0, imag)
    r_minus = complex(b / 2.0, -imag)
    return CharRoots(b, momentum, (r_plus, r_minus), math.sqrt(momentum), True)


def rowsum_recursion_coupled(m0, lr: float, wd: float, momentum: float, steps: int):
    """Row-sum trajectory under coupled SGD: m_1 = (1 - lr*wd) m_0, then
    m_{t+1} = (1 + momentum - lr*wd) m_t - momentum * m_{t-1}.

    Returns [m_0, m_1, ..., m_steps] as float64 vectors.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    m_prev = np.asarray(m0, dtype=np.float64).reshape(-1).copy()
    out = [m_prev]
    if steps == 0:
        return out
    m_cur = (1.0 - lr * wd) * m_prev
    out.append(m_cur)
    b = 1.0 + momentum - lr * wd
    for _ in range(steps - 1):
        m_next = b * m_cur - momentum * m_prev
        out.append(m_next)
        m_prev, m_cur = m_cur, m_next
    return out


def rowsum_decay_constant(lr: float, wd: float, momentum: float) -> float:
    """The tight constant C with ||m_t|| <= C * rho^t * ||m_0||.

    Every coordinate follows the same scalar solution f(t) with f(0) = 1,
    f(1) = 1 - lr*wd, so f(t) = c_plus r_plus^t + c_minus r_minus^t and
    C = |c_plus| + |c_minus| bounds |f(t)| / rho^t for all t.
    """
    roots = char_roots(momentum, lr, wd)
    r_plus, r_minus = roots.roots
    if r_plus == r_minus:
        raise DomainError("repeated characteristic root: no uniform constant")
    c_plus = ((1.0 - lr * wd) - r_minus) / (r_plus - r_minus)
    c_minus = 1.0 - c_plus
    return abs(c_plus) + abs(c_minus)


def alpha_from_rowsum(m, num_classes: int) -> float:
    """alpha = (1/K) ||m||^2 for a row-sum vector m."""
    m = np.asarray(m, dtype=np.float64).reshape(-1)
    return float(m @ m) / num_classes


def alpha_signgd_decoupled(t: int, num_classes: int, lr: float, wd: float) -> float:
    """alpha_t = ((K-2)^2 / wd^2) * (1 - (1 - lr*wd)^t)^2 for decoupled sign
    descent on the frozen square geometry, started from W_0 = 0."""
    if wd <= 0.0:
        raise DomainError("wd must be positive (the plateau is (K-2)^2 / wd^2)")
    if num_classes < 2:
        raise DomainError("need at least 2 classes")
    if t < 0:
        raise DomainError("t must be >= 0")
    k = num_classes
    return _in_float_range(lambda: ((k - 2) ** 2 / wd**2) * (1.0 - (1.0 - lr * wd) ** t) ** 2,
                           t, lr, wd)


def alpha_signgd_decoupled_limit(num_classes: int, wd: float) -> float:
    """t -> infinity plateau of alpha_signgd_decoupled."""
    if wd <= 0.0:
        raise DomainError("wd must be positive")
    if num_classes < 2:
        raise DomainError("need at least 2 classes")
    return (num_classes - 2) ** 2 / wd**2


# --- coupled sign descent: two-scalar dynamics with oscillation detection ---


@dataclass
class CoupledSignState:
    """Scalar state (a, b) of W = (a+b)I - bJ after ``t`` coupled sign-descent
    steps on the K x K frame, with ``eta`` the step size of the next step.

    ``phase`` is 1 while both sign arguments have stayed positive, 2 once the
    off-diagonal argument has flipped, 3 once both have. ``sign_a`` and
    ``sign_b`` are the last step's signs, and ``last_flip_a`` and
    ``last_flip_b`` the last step at which each flipped: the decay detector
    reads them, and a decay clears them.
    """

    eta: float
    a: float = 0.0
    b: float = 0.0
    t: int = 0
    phase: int = 1
    sign_a: float = 0.0
    sign_b: float = 0.0
    last_flip_a: int = -(10**9)
    last_flip_b: int = -(10**9)


def coupled_sign_psi(a: float, b: float, num_classes: int) -> float:
    """Softmax pull psi = 1 / (K sqrt(K-1) (exp((a+b)/sqrt(K-1)) + K - 1)).

    (a+b)/sqrt(K-1) is the per-column logit gap of W H for W = (a+b)I - bJ
    on the frozen simplex frame of N = K columns; with it, psi (-K I + J)
    reproduces the cross-entropy gradient to machine precision.
    """
    k = num_classes
    gap = (a + b) / math.sqrt(k - 1.0)
    return 1.0 / (k * math.sqrt(k - 1.0) * (math.exp(gap) + (k - 1.0)))


def coupled_signgd_scalar_step(state: CoupledSignState, num_classes: int,
                               wd: float) -> CoupledSignState:
    """One sign-descent step of the (a, b) system at the state's current eta.

    a += eta * sign((K-1) psi - wd*a); b += eta * sign(psi - wd*b);
    flip/phase bookkeeping updates from the two sign arguments.
    """
    k = num_classes
    psi = coupled_sign_psi(state.a, state.b, k)
    arg_a = (k - 1.0) * psi - wd * state.a
    arg_b = psi - wd * state.b
    s_a = math.copysign(1.0, arg_a) if arg_a != 0.0 else 0.0
    s_b = math.copysign(1.0, arg_b) if arg_b != 0.0 else 0.0
    t_next = state.t + 1
    last_a, last_b = state.last_flip_a, state.last_flip_b
    if state.sign_a * s_a < 0.0:
        last_a = t_next
    if state.sign_b * s_b < 0.0:
        last_b = t_next
    # 1: both arguments still positive; 2: b oscillates; 3: both have flipped.
    phase = state.phase
    if last_a > 0 and last_b > 0:
        phase = 3
    elif last_b > 0:
        phase = max(phase, 2)
    return CoupledSignState(
        eta=state.eta,
        a=state.a + state.eta * s_a,
        b=state.b + state.eta * s_b,
        t=t_next,
        phase=phase,
        sign_a=s_a,
        sign_b=s_b,
        last_flip_a=last_a,
        last_flip_b=last_b,
    )


def oscillation_decay_due(state: CoupledSignState) -> bool:
    """True when both sign arguments flipped within the last 4 steps."""
    return state.t - state.last_flip_a < 4 and state.t - state.last_flip_b < 4


def apply_decay(state: CoupledSignState, shrink: float) -> CoupledSignState:
    """Shrink eta and clear flip history (a fresh window starts)."""
    return replace(state, eta=state.eta * shrink, last_flip_a=-(10**9), last_flip_b=-(10**9))


def scalar_alpha(state: CoupledSignState, num_classes: int) -> float:
    """(a - (K-1) b)^2, equal to (1/K)||W^T 1||^2 on the matrix."""
    return (state.a - (num_classes - 1) * state.b) ** 2


def coupled_signgd_steps(num_classes: int, lr0: float, wd: float, shrink: float) -> Iterator:
    """The (a, b) sign dynamics from a = b = 0 at step size lr0, without end.

    Yields ``(state, decayed)`` after each scalar step and its decay check:
    ``decayed`` is True when the oscillation detector fired at that step and
    shrank eta by ``shrink``, so ``state.eta`` is the step size of the next
    step.
    """
    state = CoupledSignState(eta=lr0)
    while True:
        state = coupled_signgd_scalar_step(state, num_classes, wd)
        decayed = oscillation_decay_due(state)
        if decayed:
            state = apply_decay(state, shrink)
        yield state, decayed


def coupled_signgd_run_with_decay(num_classes: int, lr0: float, wd: float,
                                  shrink: float = 0.5, tol: float = 1e-6,
                                  max_steps: int = 10**5) -> tuple:
    """Run the (a, b) sign dynamics, shrinking eta on detected oscillation,
    until alpha falls to tol * alpha_peak.

    Returns ``(states, decay_steps)``: the states s_0..s_T, s_t after t
    steps, and the steps at which the detector fired. Raises DomainError
    below K = 3, where the two sign arguments coincide and alpha stays 0,
    and BudgetExceededError with the (t, alpha) trajectory if max_steps
    arrive first.
    """
    if num_classes < 3:
        raise DomainError(f"coupled sign descent needs k >= 3, got k = {num_classes}: "
                          "below 3 alpha stays 0")
    if not 0.0 < shrink < 1.0:
        raise DomainError("shrink must lie in (0, 1)")
    if tol <= 0.0 or lr0 <= 0.0 or wd <= 0.0:
        raise DomainError("lr0, wd, and tol must be positive")
    if max_steps < 0:
        raise DomainError("max_steps must be >= 0")
    states = [CoupledSignState(eta=lr0)]
    decay_steps: list = []
    peak = 0.0
    for state, decayed in islice(coupled_signgd_steps(num_classes, lr0, wd, shrink), max_steps):
        states.append(state)
        if decayed:
            decay_steps.append(state.t)
        alpha = scalar_alpha(state, num_classes)
        peak = max(peak, alpha)
        if peak > 0.0 and alpha <= tol * peak:
            return states, decay_steps
    trajectory = [(s.t, scalar_alpha(s, num_classes)) for s in states]
    raise BudgetExceededError(
        f"no termination within {max_steps} steps "
        f"(alpha={trajectory[-1][1]:.3e}, peak={peak:.3e})",
        trajectory=trajectory,
    )


# --- momentum convolution ODE ---


def _ode_params(wd: float, momentum: float):
    if not 0.0 < momentum < 1.0:
        raise DomainError("momentum must lie in (0, 1)")
    if wd <= 0.0:
        raise DomainError("wd must be positive")
    log_beta = math.log(momentum)
    return log_beta, log_beta * log_beta - 4.0 * wd


def ode_alpha_closed_form(t, alpha0: float, wd: float, momentum: float):
    """Solution of alpha'(t) = -wd * int_0^t momentum^(t-s) alpha(s) ds.

    alpha(t) = alpha0 * (A e^{r1 t} + B e^{r2 t}) with r_{1,2} the roots of
    r^2 - log(momentum) r + wd = 0, A = r2/(r2-r1), B = -r1/(r2-r1); the
    complex-root case is evaluated in its real cosine form
    e^{s t} (cos(w t) - (s/w) sin(w t)). Accepts scalar or array t >= 0.
    """
    log_beta, disc = _ode_params(wd, momentum)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise DomainError("t must be >= 0")
    if disc > 0.0:
        root = math.sqrt(disc)
        r1 = (log_beta + root) / 2.0
        r2 = (log_beta - root) / 2.0
        a_coef = r2 / (r2 - r1)
        b_coef = -r1 / (r2 - r1)
        out = alpha0 * (a_coef * np.exp(r1 * t) + b_coef * np.exp(r2 * t))
    elif disc == 0.0:
        r = log_beta / 2.0
        out = alpha0 * (1.0 - r * t) * np.exp(r * t)
    else:
        sigma = log_beta / 2.0
        omega = math.sqrt(-disc) / 2.0
        out = alpha0 * np.exp(sigma * t) * (np.cos(omega * t) - (sigma / omega) * np.sin(omega * t))
    return float(out) if out.ndim == 0 else out

def ode_bound_constant(wd: float, momentum: float) -> float:
    """Analytic constant C = r2/(r2-r1) for the exponential envelope bound.

    Valid in the real-root regime (log(momentum)^2 > 4*wd): there B < 0 and
    r1 <= -wd/log(1/momentum), so alpha(t) <= C * alpha0 * exp(-wd t / L).
    """
    log_beta, disc = _ode_params(wd, momentum)
    if disc <= 0.0:
        raise DomainError("bound constant requires real roots: need log(momentum)^2 > 4*wd")
    root = math.sqrt(disc)
    r1 = (log_beta + root) / 2.0
    r2 = (log_beta - root) / 2.0
    return r2 / (r2 - r1)


def ode_alpha_bound(t, alpha0: float, wd: float, momentum: float,
                    constant: float | None = None):
    """Envelope C * alpha0 * exp(-wd * t / log(1/momentum)).

    Requires the parameter range 2*wd / log(1/momentum) < 1. ``constant``
    defaults to the analytic value from :func:`ode_bound_constant`.
    """
    log_beta, _ = _ode_params(wd, momentum)
    big_l = -log_beta
    if 2.0 * wd / big_l >= 1.0:
        raise DomainError("bound requires 2*wd / log(1/momentum) < 1")
    c = ode_bound_constant(wd, momentum) if constant is None else constant
    t = np.asarray(t, dtype=np.float64)
    out = c * alpha0 * np.exp(-wd * t / big_l)
    return float(out) if out.ndim == 0 else out
