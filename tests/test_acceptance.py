"""End-to-end acceptance suite for the package.

Each test covers one acceptance criterion and prints a single verdict line
before asserting, so a run with ``pytest tests/test_acceptance.py -v -s``
shows every criterion's pass/fail status even when one of them breaks.
Tolerances are pinned in the assertions; do not loosen them.
"""
import math
import time

import numpy as np

from nc_lab import oracles
from nc_lab.harness import (
    ExperimentConfig,
    check_coupled_rowsum_recursion,
    check_coupled_sign_oscillation,
    check_decoupled_rowsum_decay,
    check_decoupled_sign_plateau,
    run_training,
)
from nc_lab.metrics import (
    ClassStatistics,
    LabeledFeatures,
    compute_class_statistics,
    nc0_alpha,
    nc0_metric,
    nc0_normalized,
    nc1_variability,
    nc2_angles,
    nc2_norms,
    nc2_structure,
    nc2m_duality,
    nc2w_norms,
    nc2w_structure,
    nc3_alignment,
    nc4_agreement,
    simplex_etf,
)
from nc_lab.metrics import _angle_deviation
from nc_lab.models import (
    ce_loss_and_grad,
    make_blob_dataset,
    make_nc_solution,
    one_hot,
)
from nc_lab.optim import (
    OptimizerConfig,
    OptimizerState,
    step_adam_family,
    step_signgd_coupled,
    step_signgd_decoupled,
)
from nc_lab.stats import ols_fit


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {label}: {status}{extra}")
    return ok


def _isometry(p, k, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, k)))
    return q * np.sign(np.diag(r))


def _stats_from_means(means):
    """ClassStatistics for already-centered means with no within-class spread."""
    means = np.asarray(means, dtype=float)
    p, k = means.shape
    centered = means - means.mean(axis=1, keepdims=True)
    return ClassStatistics(
        class_means=means,
        global_mean=means.mean(axis=1),
        centered_means=centered,
        sigma_b=centered @ centered.T / k,
        sigma_w=np.zeros((p, p)),
        per_class_counts=np.ones(k, dtype=np.int64),
    )


def test_criterion_01_decoupled_rowsum_power_law():
    # MLP, K=4 blobs, decoupled SGD with momentum: the logged row-sum energy
    # must follow (1 - lr*wd)^(2t) * alpha_0 at every epoch, within 10s.
    start = time.perf_counter()
    res = check_decoupled_rowsum_decay()
    elapsed = time.perf_counter() - start
    worst_rel = max(r[4] for r in res.rows)
    ok = (
        res.passed
        and res.details["logged_alpha_ok"]
        and worst_rel <= 1e-9
        and elapsed < 10.0
    )
    assert _verdict(1, "decoupled row-sum power law", ok,
                    f"max rel {worst_rel:.2e}, {elapsed:.2f}s")


def test_criterion_02_coupled_rowsum_recursion():
    # Coupled SGD across three momentum values: per-coordinate row sums match
    # the two-term recursion, the spectral radius stays below one, and the
    # energy collapses by more than six orders of magnitude.
    start = time.perf_counter()
    parts = []
    finals = []
    for beta in (0.0, 0.5, 0.9):
        roots = oracles.char_roots(beta, 0.05, 0.1)
        res = check_coupled_rowsum_recursion(momentum=beta)
        d = res.details
        parts.append(
            res.passed
            and d["max_coord_err"] <= 1e-9
            and roots.spectral_radius < 1.0
            and d["final_alpha"] < 1e-6 * d["alpha0"]
        )
        finals.append(d["final_alpha"] / d["alpha0"])
    elapsed = time.perf_counter() - start
    ok = all(parts) and elapsed < 30.0
    assert _verdict(2, "coupled row-sum recursion", ok,
                    f"final ratios {', '.join(f'{r:.1e}' for r in finals)}, "
                    f"{elapsed:.2f}s")


def test_criterion_03_sign_descent_plateau():
    # Decoupled sign descent on the square frozen-feature model climbs the
    # exact closed form monotonically and plateaus just under (K-2)^2 / wd^2.
    res = check_decoupled_sign_plateau()
    d = res.details
    worst_rel = max(r[4] for r in res.rows)
    ok = (
        res.passed
        and worst_rel <= 1e-9
        and d["monotone"]
        and 253.4 <= d["final_alpha"] <= 256.0
    )
    assert _verdict(3, "sign-descent plateau", ok,
                    f"final {d['final_alpha']:.4f}, max rel {worst_rel:.2e}")


def test_criterion_04_oscillation_decay_shutdown():
    # Coupled sign descent with oscillation-triggered learning-rate decay:
    # interior peak, termination below 1e-6 of the peak inside the step
    # budget, and the iterates never leave the two-parameter matrix family.
    res = check_coupled_sign_oscillation()
    d = res.details
    ok = (
        res.passed
        and 0 < d["peak_step"]
        and d["terminated_at"] is not None
        and d["terminated_at"] <= 10**5
        and d["final_alpha"] < 1e-6 * d["alpha_peak"]
        and d["family_dev_max"] <= 1e-12
        and d["scalar_dev_max"] <= 1e-12
    )
    assert _verdict(4, "oscillation decay shutdown", ok,
                    f"peak at t={d['peak_step']}, done at t={d['terminated_at']}, "
                    f"family dev {d['family_dev_max']:.1e}")


def test_criterion_05_gradient_row_sums_vanish():
    # The softmax cross-entropy weight gradient has zero column sums for any
    # weights, features, and labels.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        p = int(rng.integers(1, 9))
        n = int(rng.integers(1, 13))
        scale_w = float(rng.uniform(0.1, 3.0))
        scale_x = float(rng.uniform(0.1, 3.0))
        w = scale_w * rng.standard_normal((k, p))
        x = scale_x * rng.standard_normal((p, n))
        labels = rng.integers(0, k, size=n)
        _, grad_w, _ = ce_loss_and_grad(w, x, one_hot(labels, k))
        worst = max(worst, float(np.max(np.abs(grad_w.sum(axis=0)))))
    ok = worst < 1e-12
    assert _verdict(5, "gradient row sums vanish", ok, f"max {worst:.2e}")


def test_criterion_06_alpha_increment_identity():
    # The one-step energy decomposition holds exactly for random weights,
    # velocities, gradients, and hyperparameters.
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        p = int(rng.integers(2, 7))
        w = rng.standard_normal((k, p))
        v = rng.standard_normal((k, p))
        g = rng.standard_normal((k, p))
        lr = float(rng.uniform(0.01, 0.3))
        beta = float(rng.uniform(0.0, 0.99))
        wd = float(rng.uniform(0.0, 1.0))
        lhs, rhs = oracles.alpha_increment_decomposition(w, v, g, lr, beta, wd)
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    assert _verdict(6, "alpha increment identity", ok, f"max {worst:.2e}")


def _heun_convolution(alpha0, wd, beta, t_end, h):
    """Heun integration of alpha'(t) = -wd * I(t) with the convolution
    integral advanced by exact exponential damping plus a trapezoid panel."""
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


def test_criterion_07_continuous_time_decay():
    # The memory-kernel closed form reproduces a direct numerical integration
    # of the flow and stays under the exponential envelope on [0, 50].
    h = 1e-3
    idx = np.arange(0, 50001, 500)
    t_grid = np.linspace(0.0, 50.0, 101)
    worst_rel = 0.0
    bound_ok = True
    for wd in (0.001, 0.002):
        sim = _heun_convolution(1.0, wd, 0.9, 50.0, h)
        pred = oracles.ode_alpha_closed_form(idx * h, 1.0, wd, 0.9)
        worst_rel = max(worst_rel, float(np.max(np.abs(sim[idx] - pred) / np.abs(pred))))
        curve = oracles.ode_alpha_closed_form(t_grid, 1.0, wd, 0.9)
        envelope = oracles.ode_alpha_bound(t_grid, 1.0, wd, 0.9)
        bound_ok = bound_ok and bool(np.all(curve <= envelope + 1e-12))
    ok = worst_rel < 1e-4 and bound_ok
    assert _verdict(7, "continuous-time decay", ok,
                    f"max rel {worst_rel:.2e}, envelope {'holds' if bound_ok else 'broken'}")


def test_criterion_08_constructed_collapse_solutions():
    # Constructed collapsed solutions score at machine precision on the
    # row-sum, structure, and alignment metrics and classify perfectly.
    rng = np.random.default_rng(8)
    worst = 0.0
    agree_ok = True
    for _ in range(50):
        k = int(rng.integers(3, 11))
        p = int(rng.integers(k, 2 * k + 1))
        w, h, labels = make_nc_solution(k, p,
                                        scale_w=float(rng.uniform(0.5, 2.0)),
                                        scale_h=float(rng.uniform(0.5, 2.0)),
                                        isometry_seed=int(rng.integers(0, 10**6)))
        data = LabeledFeatures(h, labels, k)
        stats = compute_class_statistics(data)
        worst = max(worst, nc0_metric(w), nc2_structure(stats),
                    nc3_alignment(w, stats))
        agree_ok = agree_ok and nc4_agreement(w, data) == 1.0
    ok = worst < 1e-8 and agree_ok
    assert _verdict(8, "constructed collapse solutions", ok,
                    f"max metric {worst:.2e}, agreement {'1.0' if agree_ok else 'broken'}")


def test_criterion_09_metric_examples():
    # Every pinned metric example value, plus scale invariance of the
    # normalized metrics over 100 random inputs.
    bad = []

    def check(cond, label):
        if not cond:
            bad.append(label)

    # class statistics on hand-built inputs
    f = np.array([[1.0, 1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
    stats = compute_class_statistics(LabeledFeatures(f, [0, 0, 1, 1], 2))
    check(np.max(np.abs(stats.sigma_w)) == 0.0, "stats point classes sigma_w")
    check(np.allclose(stats.centered_means, [[1.0, -1.0], [0.0, 0.0]], atol=1e-15),
          "stats point classes means")
    g = np.ones((2, 6))
    stats = compute_class_statistics(LabeledFeatures(g, [0, 0, 1, 1, 2, 2], 3))
    check(np.max(np.abs(stats.sigma_b)) == 0.0, "stats identical sigma_b")
    check(np.max(np.abs(stats.sigma_w)) == 0.0, "stats identical sigma_w")
    data = make_blob_dataset(num_classes=3, dim=5, per_class=10, seed=7)
    stats = compute_class_statistics(LabeledFeatures(data.features, data.labels, 3))
    m = stats.centered_means
    trace_direct = sum(m[:, c] @ m[:, c] for c in range(3)) / 3.0
    check(abs(np.trace(stats.sigma_b) - trace_direct) < 1e-12, "stats trace identity")

    # row-sum deviation
    check(nc0_metric(np.array([[1.0, 0.0], [-1.0, 0.0]])) == 0.0, "nc0 balanced")
    w = np.array([[1.0, -1.0], [2.0, -2.0]])
    check(abs(nc0_metric(w) - 3.0 / np.sqrt(2.0)) < 1e-14, "nc0 hand value")
    check(all(nc0_metric(simplex_etf(k).T) < 1e-14 for k in (2, 4, 7)), "nc0 frames")

    # row-sum energy
    check(nc0_alpha(np.array([[1.0, 0.0], [-1.0, 0.0]])) == 0.0, "alpha balanced")
    check(abs(nc0_alpha(w) - 9.0) < 1e-13, "alpha hand value")
    for k, p, c in [(3, 2, 1.0), (4, 6, -0.5), (2, 3, 2.0)]:
        expect = p * k * c * c
        check(abs(nc0_alpha(np.full((k, p), c)) - expect) < 1e-12 * expect,
              f"alpha constant k={k}")

    # normalized row-sum deviation
    expected = (3.0 / np.sqrt(2.0)) / np.sqrt(10.0)
    check(abs(nc0_normalized(w) - expected) < 1e-14, "nc0n hand value")
    check(nc0_normalized(3.0 * simplex_etf(5).T) < 1e-14, "nc0n frame")
    rng = np.random.default_rng(12)
    inv = all(
        abs(nc0_normalized(2.0 * wr) - nc0_normalized(wr)) < 1e-12
        for wr in (rng.standard_normal((4, 6)) for _ in range(20))
    )
    check(inv, "nc0n doubling invariance")

    # within-class variability ratio
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    full = a @ a.T + np.eye(4)
    means = rng.standard_normal((4, 4))
    stats = ClassStatistics(
        class_means=means,
        global_mean=means.mean(axis=1),
        centered_means=means - means.mean(axis=1, keepdims=True),
        sigma_b=full,
        sigma_w=np.zeros((4, 4)),
        per_class_counts=np.ones(4, dtype=np.int64),
    )
    check(nc1_variability(stats) == 0.0, "nc1 zero spread")
    stats.sigma_w = full.copy()
    check(abs(nc1_variability(stats) - 1.0) < 1e-10, "nc1 equal covariances")
    two = ClassStatistics(
        class_means=np.zeros((2, 2)),
        global_mean=np.zeros(2),
        centered_means=np.zeros((2, 2)),
        sigma_b=np.diag([1.0, 0.0]),
        sigma_w=np.diag([0.5, 7.0]),
        per_class_counts=np.ones(2, dtype=np.int64),
    )
    check(abs(nc1_variability(two) - 0.25) < 1e-12, "nc1 diagonal case")

    # mean geometry
    frames_ok = True
    for k in range(4, 11):
        q = _isometry(k + 3, k, seed=k)
        fstats = _stats_from_means(q @ simplex_etf(k))
        frames_ok = frames_ok and (nc2_structure(fstats) < 1e-12
                                   and nc2_norms(fstats) < 1e-12
                                   and nc2_angles(fstats) < 1e-12)
    check(frames_ok, "nc2 embedded frames")
    check(abs(_angle_deviation(np.eye(5)) - 0.25) < 1e-12, "nc2a orthonormal")
    means = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    check(nc2_norms(_stats_from_means(means)) < 1e-14, "nc2n equal norms")

    # weight geometry and duality
    check(all(nc2w_structure(2.5 * simplex_etf(k)) < 1e-12 for k in (3, 5, 8)),
          "nc2w scaled frames")
    tiled = np.tile([[1.0, 2.0, -0.5]], (4, 1))
    check(nc2w_norms(tiled) < 1e-14 and nc0_metric(tiled) > 0.0, "nc2wn equal rows")
    duality_ok = True
    for k in (3, 6):
        etf = simplex_etf(k)
        duality_ok = duality_ok and nc2m_duality(etf, _stats_from_means(etf)) < 1e-12
    check(duality_ok, "nc2m self duality")

    # alignment
    rng = np.random.default_rng(14)
    means = rng.standard_normal((4, 4))
    means -= means.mean(axis=1, keepdims=True)
    stats = _stats_from_means(means)
    check(nc3_alignment(2.7 * means.T, stats) < 1e-12, "nc3 aligned")
    check(abs(nc3_alignment(-means.T, stats) - 2.0 / 16.0) < 1e-12 * (2.0 / 16.0),
          "nc3 anti-aligned")
    w3 = rng.standard_normal((4, 4))
    base = nc3_alignment(w3, stats)
    check(abs(nc3_alignment(3.0 * w3, _stats_from_means(5.0 * means)) - base) < 1e-12,
          "nc3 joint scaling")

    # nearest-mean agreement
    k = 4
    etf = simplex_etf(k)
    data = LabeledFeatures(etf, np.arange(k), k)
    check(nc4_agreement(etf.T, data) == 1.0, "nc4 aligned rows")
    check(nc4_agreement(etf.T[np.array([1, 2, 3, 0])], data) == 0.0, "nc4 derangement")
    rng = np.random.default_rng(3)
    wb = rng.standard_normal((2, 3))
    feats = rng.standard_normal((3, 100))
    labels = rng.integers(0, 2, size=100)
    labels[:2] = [0, 1]
    bdata = LabeledFeatures(feats, labels, 2)
    bmeans = np.stack([feats[:, labels == c].mean(axis=1) for c in range(2)], axis=1)
    agree = 0
    for n in range(100):
        hcol = feats[:, n]
        linear = int(np.argmax([wb[c] @ hcol for c in range(2)]))
        nearest = int(np.argmin([np.linalg.norm(hcol - bmeans[:, c]) for c in range(2)]))
        agree += linear == nearest
    check(nc4_agreement(wb, bdata) == agree / 100.0, "nc4 brute force")

    # scale invariance of the normalized metrics
    rng = np.random.default_rng(18)
    inv_ok = True
    for _ in range(100):
        k = int(rng.integers(3, 7))
        p = int(rng.integers(k, 9))
        wr = rng.standard_normal((k, p))
        mr = rng.standard_normal((p, k))
        mr -= mr.mean(axis=1, keepdims=True)
        st = _stats_from_means(mr)
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        sst = _stats_from_means(b * mr)
        inv_ok = inv_ok and (
            abs(nc0_normalized(a * wr) - nc0_normalized(wr)) < 1e-12
            and abs(nc2_structure(sst) - nc2_structure(st)) < 1e-12
            and abs(nc2w_structure(a * wr) - nc2w_structure(wr)) < 1e-12
            and abs(nc3_alignment(a * wr, sst) - nc3_alignment(wr, st)) < 1e-12
        )
    check(inv_ok, "scale invariance")

    ok = not bad
    assert _verdict(9, "metric example suite", ok,
                    "all examples" if ok else "failed: " + ", ".join(bad[:5]))


def test_criterion_10_adam_sign_limit():
    # Adam-family steps with both moment coefficients and eps at zero reduce
    # bitwise to the two sign-descent steps.
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10**4):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        p = rng.standard_normal(shape)
        g = rng.standard_normal(shape)
        lr = float(rng.uniform(0.001, 0.5))
        wd = float(rng.uniform(0.0, 1.0))
        ca, _ = step_adam_family(p, g, OptimizerState.initial(p, True),
                                 lr, 0.0, 0.0, 0.0, wd, 0.0)
        cb, _ = step_signgd_coupled(p, g, OptimizerState.initial(p), lr, wd)
        da, _ = step_adam_family(p, g, OptimizerState.initial(p, True),
                                 lr, 0.0, 0.0, 0.0, 0.0, wd)
        db, _ = step_signgd_decoupled(p, g, OptimizerState.initial(p), lr, wd)
        worst = max(worst,
                    float(np.max(np.abs(ca - cb))),
                    float(np.max(np.abs(da - db))))
    ok = worst == 0.0
    assert _verdict(10, "adam sign-descent limit", ok, f"max abs diff {worst:g}")


def test_criterion_11_weight_decay_direction():
    # Coupled SGD: at a fixed seed the final row-sum energy is strictly
    # decreasing in the decay strength. Decoupled sign descent: the plateau
    # keeps the energy at or above half the closed-form limit.
    finals = []
    for wd in (0.0, 0.005, 0.05):
        cfg = ExperimentConfig(
            model_kind="mlp", num_classes=4, dim=8, per_class=25,
            epochs=300, metric_period=300, seed=0,
            optimizer=OptimizerConfig(kind="sgd_coupled", lr=0.05, coupled_wd=wd),
        )
        res = run_training(cfg)
        finals.append(res.records[-1].values["nc0_alpha"])
    coupled_ok = finals[0] > finals[1] > finals[2]

    floors = []
    for wd in (0.005, 0.05, 0.5):
        cfg = ExperimentConfig(
            model_kind="ufm_fixed_features", init="zero", num_classes=10,
            epochs=3000, metric_period=3000,
            optimizer=OptimizerConfig(kind="signgd_decoupled", lr=0.1,
                                      decoupled_wd=wd),
        )
        res = run_training(cfg)
        final = res.records[-1].values["nc0_alpha"]
        floors.append(final >= 0.5 * oracles.alpha_signgd_decoupled_limit(10, wd))
    ok = coupled_ok and all(floors)
    assert _verdict(11, "weight-decay direction", ok,
                    f"coupled finals {', '.join(f'{v:.3g}' for v in finals)}, "
                    f"floors {'hold' if all(floors) else 'broken'}")


def test_criterion_12_regression_normal_equations():
    # The least-squares fit reproduces hand-solved normal equations on
    # five-point fixtures and satisfies t^2 = F.
    def oracle(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        sxx = float(((x - x.mean()) ** 2).sum())
        sxy = float(((x - x.mean()) * (y - y.mean())).sum())
        slope = sxy / sxx
        intercept = float(y.mean()) - slope * float(x.mean())
        resid = y - intercept - slope * x
        ss_res = float((resid ** 2).sum())
        stderr = math.sqrt(ss_res / (n - 2) / sxx)
        r2 = 1.0 - ss_res / float(((y - y.mean()) ** 2).sum())
        return slope, intercept, stderr, r2

    fixtures = [
        ([1.0, 2.0, 3.0, 4.0, 5.0], [2.2, 2.8, 4.5, 3.7, 5.5]),
        ([0.5, 1.5, 2.5, 3.5, 4.5], [9.1, 7.2, 5.3, 3.1, 1.0]),
    ]
    bad = []
    for i, (x, y) in enumerate(fixtures):
        slope, intercept, stderr, r2 = oracle(x, y)
        fit = ols_fit(x, y)
        if not (abs(fit.slope - slope) < 1e-10
                and abs(fit.intercept - intercept) < 1e-10
                and abs(fit.stderr - stderr) < 1e-10
                and abs(fit.r_squared - r2) < 1e-10):
            bad.append(f"fixture {i} normal equations")
        if abs(fit.t_value**2 - fit.f_statistic) > 1e-9 * abs(fit.f_statistic):
            bad.append(f"fixture {i} t^2 vs F")
    ok = not bad
    assert _verdict(12, "regression normal equations", ok,
                    "both fixtures" if ok else ", ".join(bad))


def test_criterion_13_deterministic_csv(tmp_path):
    # Two runs with the same config and seed write byte-identical metric CSVs.
    blobs = []
    for name in ("first.csv", "second.csv"):
        cfg = ExperimentConfig(
            model_kind="mlp", num_classes=4, dim=8, per_class=25,
            epochs=50, batch_size=10, metric_period=10, seed=123,
            optimizer=OptimizerConfig(kind="sgd_coupled", lr=0.05, momentum=0.9,
                                      coupled_wd=0.01),
            output_csv=str(tmp_path / name),
        )
        run_training(cfg)
        blobs.append((tmp_path / name).read_bytes())
    ok = len(blobs[0]) > 0 and blobs[0] == blobs[1]
    assert _verdict(13, "deterministic metric CSV", ok,
                    f"{len(blobs[0])} bytes each")
