import math
from dataclasses import fields
from itertools import islice

import numpy as np
import pytest

from nc_lab.errors import BudgetExceededError, DomainError
from nc_lab.oracles import (
    CoupledSignState,
    alpha_from_rowsum,
    alpha_sgd_decoupled,
    alpha_signgd_decoupled,
    alpha_signgd_decoupled_limit,
    apply_decay,
    char_roots,
    coupled_sign_psi,
    coupled_signgd_run_with_decay,
    coupled_signgd_scalar_step,
    coupled_signgd_steps,
    ode_alpha_bound,
    ode_alpha_closed_form,
    ode_bound_constant,
    oscillation_decay_due,
    rowsum_decay_constant,
    rowsum_recursion_coupled,
    scalar_alpha,
)
from helpers import alpha_increment_decomposition, coupled_signgd_reference_states


def test_alpha_sgd_decoupled_values():
    assert alpha_sgd_decoupled(7, 3.5, 0.1, 0.0) == 3.5
    assert alpha_sgd_decoupled(1, 1.0, 0.1, 0.5) == pytest.approx(0.9025, abs=1e-16)
    assert alpha_sgd_decoupled(10, 1.0, 0.1, 0.5) == pytest.approx(0.95**20, rel=1e-15)
    # lr*wd = 2 sits on the boundary: (1-2)^(2t) = 1, no decay
    assert alpha_sgd_decoupled(9, 2.0, 2.0, 1.0) == 2.0
    with pytest.raises(DomainError):
        alpha_sgd_decoupled(-1, 1.0, 0.1, 0.5)
    with pytest.raises(DomainError):
        alpha_sgd_decoupled(1, -1.0, 0.1, 0.5)


def test_char_roots_real_pair():
    roots = char_roots(0.0, 0.1, 0.5)
    vals = sorted(r.real for r in roots.roots)
    assert vals == pytest.approx([0.0, 0.95], abs=1e-15)
    assert roots.spectral_radius == pytest.approx(0.95, abs=1e-15)
    assert not roots.is_complex


def test_char_roots_complex_pair():
    roots = char_roots(0.9, 0.1, 0.5)
    assert roots.is_complex
    assert (1.0 + 0.9 - 0.05) ** 2 - 4 * 0.9 == pytest.approx(-0.1775, abs=1e-14)
    assert roots.spectral_radius == pytest.approx(math.sqrt(0.9), rel=1e-15)
    r_plus, r_minus = roots.roots
    assert r_plus == r_minus.conjugate()


def test_char_roots_stability_boundary():
    beta = 0.5
    roots = char_roots(beta, 1.0, 2.0 * (1.0 + beta))
    vals = sorted(r.real for r in roots.roots)
    assert vals == pytest.approx([-1.0, -beta], abs=1e-14)
    assert roots.spectral_radius == pytest.approx(1.0, abs=1e-14)


def test_char_roots_polynomial_residual_and_stability():
    rng = np.random.default_rng(21)
    for _ in range(200):
        beta = float(rng.uniform(0.0, 0.999))
        lrwd = float(rng.uniform(1e-4, 2.5 * (1.0 + beta)))
        roots = char_roots(beta, 1.0, lrwd)
        for r in roots.roots:
            residual = r * r - roots.linear_coefficient * r + beta
            assert abs(residual) < 1e-12
        if lrwd < 2.0 * (1.0 + beta):
            assert roots.spectral_radius < 1.0
        elif lrwd > 2.0 * (1.0 + beta):
            assert roots.spectral_radius > 1.0


def test_rowsum_recursion_momentum_free_reduction():
    ms = rowsum_recursion_coupled([2.0, -1.0], 0.1, 0.5, 0.0, 30)
    for t, m in enumerate(ms):
        expected = (1.0 - 0.05) ** t * np.array([2.0, -1.0])
        assert np.max(np.abs(m - expected)) < 1e-14
        pred = alpha_sgd_decoupled(t, alpha_from_rowsum([2.0, -1.0], 3), 0.1, 0.5)
        assert alpha_from_rowsum(m, 3) == pytest.approx(pred, rel=1e-12)


def test_rowsum_recursion_hand_iteration():
    ms = rowsum_recursion_coupled([1.0], 0.1, 0.5, 0.9, 2)
    assert ms[0][0] == 1.0
    assert ms[1][0] == pytest.approx(0.95, abs=1e-16)
    assert ms[2][0] == pytest.approx(1.85 * 0.95 - 0.9, abs=1e-15)
    assert ms[2][0] == pytest.approx(0.8575, abs=1e-15)
    with pytest.raises(DomainError):
        rowsum_recursion_coupled([1.0], 0.1, 0.5, 0.9, -1)


def _scaled_norm(m):
    # plain norm squares entries, which underflows below ~1e-154
    peak = np.abs(m).max()
    if peak == 0.0:
        return 0.0
    return peak * np.linalg.norm(m / peak)


def test_rowsum_envelope_with_decay_constant():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 100:
        beta = float(rng.uniform(0.0, 0.99))
        lrwd = float(rng.uniform(1e-4, 2.0 * (1.0 + beta) * 0.999))
        try:
            c = rowsum_decay_constant(1.0, lrwd, beta)
        except DomainError:
            continue  # repeated root draw
        rho = char_roots(beta, 1.0, lrwd).spectral_radius
        m0 = rng.standard_normal(3)
        norms = [_scaled_norm(m) for m in rowsum_recursion_coupled(m0, 1.0, lrwd, beta, 500)]
        base = np.linalg.norm(m0)
        for t, nm in enumerate(norms):
            envelope = c * rho**t * base
            if envelope < 1e-280:
                break  # below this both sides are denormal noise
            assert nm <= envelope * (1.0 + 1e-9)
        checked += 1


def test_rowsum_decay_constant_values():
    # beta = 0 collapses to a single geometric mode
    assert rowsum_decay_constant(0.1, 0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    # complex pair: C = 2 |c_plus| with c_plus worked out by hand from the
    # conjugate roots 0.925 +- i sqrt(0.1775)/2
    imag = math.sqrt(0.1775) / 2.0
    c_plus = complex(0.5, -0.025 / (2.0 * imag))
    c = rowsum_decay_constant(0.1, 0.5, 0.9)
    assert c == pytest.approx(2.0 * abs(c_plus), rel=1e-13)
    assert c == pytest.approx(1.007017629956027, rel=1e-12)
    # repeated root: (1 + beta - lr*wd)^2 = 4 beta at beta = 0.25, lr*wd = 0.25
    with pytest.raises(DomainError):
        rowsum_decay_constant(1.0, 0.25, 0.25)


def test_alpha_signgd_decoupled_values():
    assert alpha_signgd_decoupled(0, 10, 0.1, 0.5) == 0.0
    assert alpha_signgd_decoupled(1, 10, 0.1, 0.5) == pytest.approx(0.64, rel=1e-14)
    assert alpha_signgd_decoupled_limit(10, 0.5) == pytest.approx(256.0, rel=1e-15)
    prev = -1.0
    for t in range(0, 80):
        cur = alpha_signgd_decoupled(t, 10, 0.1, 0.5)
        assert cur > prev
        prev = cur
    assert prev < 256.0
    with pytest.raises(DomainError):
        alpha_signgd_decoupled(1, 10, 0.1, 0.0)
    with pytest.raises(DomainError):
        alpha_signgd_decoupled_limit(10, 0.0)
    with pytest.raises(DomainError):
        alpha_signgd_decoupled(-1, 10, 0.1, 0.5)


def test_coupled_sign_psi_value():
    psi = coupled_sign_psi(0.0, 0.0, 4)
    assert psi == pytest.approx(1.0 / (16.0 * math.sqrt(3.0)), rel=1e-15)
    assert psi == pytest.approx(0.036084391824351615, rel=1e-12)
    # psi decreases as the logit gap a + b grows
    assert coupled_sign_psi(1.0, 0.5, 4) < psi


def test_scalar_step_first_moves():
    state = CoupledSignState(eta=0.05)
    state = coupled_signgd_scalar_step(state, 4, 0.5)
    assert state.a == 0.05 and state.b == 0.05
    assert state.t == 1 and state.phase == 1
    assert state.sign_a == 1.0 and state.sign_b == 1.0
    assert scalar_alpha(state, 4) == pytest.approx((0.05 - 3 * 0.05) ** 2, rel=1e-15)


def test_scalar_step_phase3_gap_bound():
    k, wd, eta = 4, 0.5, 0.05
    state = CoupledSignState(eta=eta)
    first3 = None
    for _ in range(3000):
        state = coupled_signgd_scalar_step(state, k, wd)
        if state.phase == 3 and first3 is None:
            first3 = state.t
        if first3 is not None and state.t > first3:
            psi = coupled_sign_psi(state.a, state.b, k)
            gap = max(abs((k - 1) * psi - wd * state.a), abs(psi - wd * state.b))
            assert gap < wd * eta
    assert first3 is not None


def test_oscillation_detector_window():
    base = CoupledSignState(eta=0.1, t=10)
    assert not oscillation_decay_due(base)
    both_recent = CoupledSignState(eta=0.1, t=10, last_flip_a=7, last_flip_b=9)
    assert oscillation_decay_due(both_recent)
    a_stale = CoupledSignState(eta=0.1, t=10, last_flip_a=6, last_flip_b=9)
    assert not oscillation_decay_due(a_stale)
    decayed = apply_decay(both_recent, 0.5)
    assert decayed.eta == pytest.approx(0.05)
    assert not oscillation_decay_due(decayed)


def test_run_with_decay_terminates_and_is_nonmonotone():
    states, _ = coupled_signgd_run_with_decay(4, 0.05, 0.5, shrink=0.5, tol=1e-6)
    assert [s.t for s in states] == list(range(len(states)))
    alphas = [scalar_alpha(s, 4) for s in states]
    assert all(np.isfinite(a) and a >= 0.0 for a in alphas)
    assert alphas[0] == 0.0
    peak = max(alphas)
    assert peak > 0.0
    assert 0 < alphas.index(peak) < len(states) - 1
    assert alphas[-1] < 1e-6 * peak


def test_run_with_decay_shrinks_eta_through_oscillation():
    """K = 5 dodges the exact lattice zero, so termination is driven by
    repeated eta halvings rather than a lucky a = (K-1) b crossing."""
    states, decay_steps = coupled_signgd_run_with_decay(5, 0.05, 0.5, shrink=0.5, tol=1e-6)
    assert decay_steps
    assert states[-1].eta == pytest.approx(0.05 * 0.5**len(decay_steps), rel=1e-12)
    assert states[-1].phase == 3
    alphas = [scalar_alpha(s, 5) for s in states]
    assert 0.0 < alphas[-1] <= 1e-6 * max(alphas)
    # eta changes exactly at the detector's steps
    assert [s.t for prev, s in zip(states, states[1:]) if s.eta != prev.eta] == decay_steps


def test_run_with_decay_budget_error_carries_trajectory():
    with pytest.raises(BudgetExceededError) as exc:
        coupled_signgd_run_with_decay(4, 0.05, 0.5, tol=1e-12, max_steps=2)
    traj = exc.value.trajectory
    assert len(traj) == 3
    assert traj[0] == (0, 0.0)
    assert traj[-1][1] > 0.0


def test_run_with_decay_validation():
    with pytest.raises(DomainError):
        coupled_signgd_run_with_decay(4, 0.05, 0.5, shrink=1.0)
    with pytest.raises(DomainError):
        coupled_signgd_run_with_decay(4, 0.05, 0.5, tol=0.0)
    with pytest.raises(DomainError):
        coupled_signgd_run_with_decay(4, 0.0, 0.5)


@pytest.mark.parametrize("k", [1, 2])
def test_run_with_decay_refuses_k_below_3(k):
    # At K = 2 the two sign arguments coincide, so a = b and alpha stays 0;
    # at K = 1 psi divides by zero.
    with pytest.raises(DomainError, match=f"k >= 3, got k = {k}"):
        coupled_signgd_run_with_decay(k, 0.05, 0.5)


def test_alpha_increment_decomposition_zero_case():
    w = np.random.default_rng(23).standard_normal((3, 3))
    lhs, rhs = alpha_increment_decomposition(w, np.zeros((3, 3)), np.zeros((3, 3)), 0.1, 0.9, 0.0)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_alpha_increment_decomposition_random():
    rng = np.random.default_rng(24)
    for _ in range(200):
        w = rng.standard_normal((4, 4))
        v = rng.standard_normal((4, 4))
        g = rng.standard_normal((4, 4))
        lhs, rhs = alpha_increment_decomposition(w, v, g, 0.1, 0.9, 0.5)
        assert abs(lhs - rhs) < 1e-10


def test_alpha_increment_zero_column_sum_gradient():
    rng = np.random.default_rng(25)
    w = rng.standard_normal((4, 4))
    g = rng.standard_normal((4, 4))
    g -= g.mean(axis=0)
    lr, wd = 0.1, 0.5
    lhs, rhs = alpha_increment_decomposition(w, np.zeros((4, 4)), g, lr, 0.9, wd)
    # gamma vanishes, so the balance reduces to -2*wd*alpha + lr*nu
    s_w = w.sum(axis=0)
    alpha = float(s_w @ s_w) / 4.0
    v1 = g + wd * w
    s_v = v1.sum(axis=0)
    nu = float(s_v @ s_v) / 4.0
    assert rhs == pytest.approx(-2.0 * wd * alpha + lr * nu, rel=1e-12)
    assert abs(lhs - rhs) < 1e-10


def test_ode_closed_form_initial_conditions():
    for wd in (0.001, 0.002, 0.01):
        assert ode_alpha_closed_form(0.0, 2.5, wd, 0.9) == pytest.approx(2.5, rel=1e-14)
        h = 1e-6
        deriv = (ode_alpha_closed_form(h, 1.0, wd, 0.9)
                 - ode_alpha_closed_form(0.0, 1.0, wd, 0.9)) / h
        assert abs(deriv) < 1e-4


def test_ode_frozen_roots_and_constants():
    log_beta = math.log(0.9)
    for wd, r1_ref, r2_ref, a_ref in [
        (0.002, -0.0248376724, -0.0805228433, 1.4460374632),
        (0.001, -0.0105470220, -0.0948134937, 1.1251627337),
    ]:
        disc = log_beta**2 - 4.0 * wd
        root = math.sqrt(disc)
        r1 = (log_beta + root) / 2.0
        r2 = (log_beta - root) / 2.0
        assert r1 == pytest.approx(r1_ref, abs=1e-8)
        assert r2 == pytest.approx(r2_ref, abs=1e-8)
        assert ode_bound_constant(wd, 0.9) == pytest.approx(a_ref, abs=1e-8)
        bound_exponent = -wd / (-log_beta)
        assert bound_exponent == pytest.approx(-0.0189824432 * wd / 0.002, abs=1e-8)
        # the slow closed-form mode decays faster than the envelope exponent
        assert r1 < bound_exponent
        # closed form at these roots: alpha(t) = A e^{r1 t} + (1-A) e^{r2 t}
        t = np.array([0.0, 1.0, 10.0, 50.0])
        manual = a_ref * np.exp(r1 * t) + (1.0 - a_ref) * np.exp(r2 * t)
        assert np.max(np.abs(ode_alpha_closed_form(t, 1.0, wd, 0.9) - manual)) < 1e-7


def _trapezoid_integrate_ode(alpha0, wd, beta, t_end, h):
    """Heun integration of alpha'(t) = -wd * I(t) with the convolution
    integral I advanced by exact exponential damping plus a trapezoid panel."""
    decay = beta**h
    steps = int(round(t_end / h))
    alphas = np.empty(steps + 1)
    alphas[0] = alpha0
    alpha, integral = alpha0, 0.0
    for i in range(steps):
        d1 = -wd * integral
        alpha_pred = alpha + h * d1
        integral_pred = decay * integral + 0.5 * h * (decay * alpha + alpha_pred)
        d2 = -wd * integral_pred
        alpha_next = alpha + 0.5 * h * (d1 + d2)
        integral = decay * integral + 0.5 * h * (decay * alpha + alpha_next)
        alpha = alpha_next
        alphas[i + 1] = alpha
    return alphas


def test_ode_closed_form_matches_numerical_integration():
    h = 1e-3
    for wd in (0.001, 0.002):
        sim = _trapezoid_integrate_ode(1.0, wd, 0.9, 50.0, h)
        times = np.arange(0, 50001, 5000) * h
        idx = np.arange(0, 50001, 5000)
        pred = ode_alpha_closed_form(times, 1.0, wd, 0.9)
        rel = np.abs(sim[idx] - pred) / np.abs(pred)
        assert rel.max() < 1e-4


def test_ode_integral_equation_residual():
    """Central-difference derivative plus a fine trapezoid convolution
    evaluates the integro-differential equation to near zero."""
    wd, beta = 0.002, 0.9
    for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
        h = 1e-5
        deriv = (ode_alpha_closed_form(t + h, 1.0, wd, beta)
                 - ode_alpha_closed_form(t - h, 1.0, wd, beta)) / (2 * h)
        s = np.linspace(0.0, t, 20001)
        vals = beta ** (t - s) * ode_alpha_closed_form(s, 1.0, wd, beta)
        integral = np.trapezoid(vals, s)
        assert abs(deriv + wd * integral) < 1e-6


def test_ode_bound_envelopes_closed_form():
    t = np.linspace(0.0, 50.0, 101)
    for wd in (0.001, 0.002):
        pred = ode_alpha_closed_form(t, 1.0, wd, 0.9)
        bound = ode_alpha_bound(t, 1.0, wd, 0.9)
        assert np.all(pred <= bound + 1e-12)


def test_ode_repeated_root_branch():
    beta = 0.9
    wd = math.log(beta) ** 2 / 4.0
    assert ode_alpha_closed_form(0.0, 1.0, wd, beta) == pytest.approx(1.0, rel=1e-14)
    r = math.log(beta) / 2.0
    t = 3.0
    assert ode_alpha_closed_form(t, 1.0, wd, beta) == pytest.approx(
        (1.0 - r * t) * math.exp(r * t), rel=1e-13
    )
    # continuity against the nearby real-root regime
    near = ode_alpha_closed_form(t, 1.0, wd * (1.0 - 1e-9), beta)
    assert abs(near - ode_alpha_closed_form(t, 1.0, wd, beta)) < 1e-6


def test_ode_complex_branch_solves_equation():
    wd, beta = 0.01, 0.9
    vals = ode_alpha_closed_form(np.linspace(0, 20, 41), 1.0, wd, beta)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(1.0, rel=1e-14)
    for t in (1.0, 2.0, 7.0):
        h = 1e-5
        deriv = (ode_alpha_closed_form(t + h, 1.0, wd, beta)
                 - ode_alpha_closed_form(t - h, 1.0, wd, beta)) / (2 * h)
        s = np.linspace(0.0, t, 20001)
        integral = np.trapezoid(beta ** (t - s) * ode_alpha_closed_form(s, 1.0, wd, beta), s)
        assert abs(deriv + wd * integral) < 1e-6


def test_ode_domain_errors():
    with pytest.raises(DomainError):
        ode_alpha_closed_form(1.0, 1.0, 0.0, 0.9)
    with pytest.raises(DomainError):
        ode_alpha_closed_form(1.0, 1.0, 0.002, 1.0)
    with pytest.raises(DomainError):
        ode_alpha_closed_form(-1.0, 1.0, 0.002, 0.9)
    with pytest.raises(DomainError):
        ode_bound_constant(0.01, 0.9)  # complex-root regime has no real envelope
    with pytest.raises(DomainError):
        ode_alpha_bound(1.0, 1.0, 0.06, 0.9)  # 2*wd exceeds log(1/beta)


def test_coupled_sign_steps_equal_the_replace_reference_field_for_field():
    """The oracle builds each state directly; every field of the first 400
    states, which run through 45 decays, equals the reference loop's by type
    and repr."""
    got = list(islice(coupled_signgd_steps(10, 0.01, 0.01, 0.5), 400))
    ref = coupled_signgd_reference_states(10, 0.01, 0.01, 0.5, 400)
    decays = [state.t for state, decayed in got if decayed]
    assert len(decays) == 45 and decays[0] == 260
    assert [d for _, d in got] == [d for _, d in ref]
    for (state, _), (expected, _) in zip(got, ref):
        assert type(state) is CoupledSignState
        for f in fields(CoupledSignState):
            a, b = getattr(state, f.name), getattr(expected, f.name)
            assert (type(a), repr(a)) == (type(b), repr(b)), (state.t, f.name)
