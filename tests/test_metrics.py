import tracemalloc

import numpy as np
import pytest

from nc_lab import metrics
from nc_lab.errors import DomainError, NumericError, ShapeError
from nc_lab.metrics import (
    METRIC_KEYS,
    LabeledFeatures,
    all_metrics,
    compute_class_statistics,
    nc0_alpha,
    nc0_metric,
    nc0_normalized,
    nc1_variability,
    nc2_angles,
    nc2_norms,
    nc2_structure,
    nc2m_duality,
    nc2w_angles,
    nc2w_norms,
    nc2w_structure,
    nc3_alignment,
    nc4_agreement,
    simplex_etf,
)
from nc_lab.metrics import _nearest_mean
from nc_lab.models import make_blob_dataset
from helpers import make_nc_solution, snapshot


def _isometry(p, k, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((p, k)))
    return q * np.sign(np.diag(r))


def _stats_from_means(means):
    """ClassStatistics of one sample per class at the given means: no
    within-class spread."""
    means = np.asarray(means, dtype=float)
    k = means.shape[1]
    return compute_class_statistics(LabeledFeatures(means, np.arange(k), k))


def _two_class_diagonal_features():
    """Four samples per class around the means (1, 0) and (-1, 0), both
    exact: Sigma_B = diag(1, 0) and Sigma_W = diag(0.5, 7)."""
    f = np.sqrt(14.0)
    feats = np.array([[2.0, 0.0, 1.0, 1.0, 0.0, -2.0, -1.0, -1.0],
                      [0.0, 0.0, f, -f, 0.0, 0.0, f, -f]])
    return LabeledFeatures(feats, np.repeat([0, 1], 4), 2)


def _equal_scatter_features(means):
    """Two samples per class at mean +- its centered mean: Sigma_W equals
    Sigma_B = M M^T / K up to rounding."""
    means = np.asarray(means, dtype=float)
    k = means.shape[1]
    centered = means - means.mean(axis=1, keepdims=True)
    feats = np.concatenate([means + centered, means - centered], axis=1)
    return LabeledFeatures(feats, np.tile(np.arange(k), 2), k)


def test_simplex_etf_frame_identities():
    for k in range(2, 9):
        m = simplex_etf(k)
        assert np.max(np.abs(m @ np.ones(k))) < 1e-14
        assert np.max(np.abs(m - m.T)) == 0.0
        assert np.ptp(np.diag(m)) == 0.0
        off = m[~np.eye(k, dtype=bool)]
        assert np.ptp(off) < 1e-16
        norms = np.linalg.norm(m, axis=0)
        assert np.max(np.abs(norms - 1.0 / np.sqrt(k))) < 1e-14
        assert abs(np.linalg.norm(m) - 1.0) < 1e-14
    with pytest.raises(DomainError):
        simplex_etf(1)


def test_simplex_etf_is_a_fresh_writable_array_and_the_metrics_keep_their_own():
    frame = simplex_etf(4)
    assert frame.flags.writeable
    stats = _stats_from_means(simplex_etf(4))
    frame[:] = 0.0
    assert np.array_equal(simplex_etf(4), (np.eye(4) - 0.25) / np.sqrt(3.0))
    assert nc2w_structure(simplex_etf(4)) < 1e-15
    assert nc2_structure(stats) < 1e-15
    kept = metrics._etf_frame(4)
    assert kept is metrics._etf_frame(4) and not kept.flags.writeable
    assert np.array_equal(kept, simplex_etf(4))
    mask = metrics._off_diagonal(4)
    assert mask is metrics._off_diagonal(4) and not mask.flags.writeable
    assert np.array_equal(mask, ~np.eye(4, dtype=bool))


def test_labeled_features_validation():
    f = np.arange(12.0).reshape(3, 4)
    data = LabeledFeatures(f, [0, 1, 0, 1], 2)
    assert data.features.shape == (3, 4) and data.num_classes == 2
    assert np.array_equal(data.class_means, [[1.0, 2.0], [5.0, 6.0], [9.0, 10.0]])
    assert np.array_equal(LabeledFeatures(f, [0, 0, 0, 1], 2).class_means[:, 1], f[:, 3])
    with pytest.raises(ShapeError):
        LabeledFeatures(f, [[0, 1], [0, 1]], 2)
    with pytest.raises(ShapeError):
        LabeledFeatures(f, [0, 1, 0], 2)
    with pytest.raises(DomainError):
        LabeledFeatures(f, [0.5, 1, 0, 1], 2)
    with pytest.raises(DomainError):
        LabeledFeatures(f, [0, 1, 0, 2], 2)
    with pytest.raises(DomainError, match="class 1 has no samples"):
        LabeledFeatures(f, [0, 0, 0, 0], 2)
    with pytest.raises(DomainError):
        LabeledFeatures(f, [0, 1, 0, 1], 1)


def test_class_statistics_hand_cases():
    # two point classes at (+-1, 0), no spread
    f = np.array([[1.0, 1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
    stats = compute_class_statistics(LabeledFeatures(f, [0, 0, 1, 1], 2))
    assert np.array_equal(stats.nc1_terms, [0.0])
    assert np.allclose(stats.centered_means, [[1.0, -1.0], [0.0, 0.0]], atol=1e-15)
    assert np.allclose(stats.singular_values, [np.sqrt(2.0), 0.0], rtol=0.0, atol=1e-15)
    # all samples identical: Sigma_B == 0 keeps no direction
    g = np.ones((2, 6))
    stats = compute_class_statistics(LabeledFeatures(g, [0, 0, 1, 1, 2, 2], 3))
    assert np.max(np.abs(stats.singular_values)) == 0.0
    assert stats.nc1_terms.size == 0
    assert np.max(np.abs(stats.centered_means)) == 0.0
    # point classes at (+-1, +-e): s_1^2 / s_0^2 = e^2 against the 1e-10 cut
    for e, kept in ((2e-5, 2), (5e-6, 1)):
        f = np.array([[1.0, -1.0, 1.0, -1.0], [e, e, -e, -e]])
        stats = compute_class_statistics(LabeledFeatures(f, np.arange(4), 4))
        assert stats.nc1_terms.size == kept


def test_class_statistics_invariants_and_trace_identity():
    data = make_blob_dataset(num_classes=3, dim=5, per_class=10, seed=7)
    stats = compute_class_statistics(LabeledFeatures(data.features, data.labels, 3))
    m = stats.centered_means
    assert np.max(np.abs(m @ np.ones(3))) < 1e-10
    s = stats.singular_values
    assert s.shape == (3,) and np.all(np.diff(s) <= 0.0) and s[-1] >= 0.0
    # rank K - 1 = 2: the third value is rounding and its direction is cut
    assert s[-1] < 1e-14 * s[0] and stats.nc1_terms.shape == (2,)
    assert np.all(stats.nc1_terms >= 0.0)
    # direct summation oracle for the trace identity tr(Sigma_B) = sum s^2 / K
    trace_direct = sum(m[:, c] @ m[:, c] for c in range(3)) / 3.0
    assert abs(np.sum(s**2) / 3.0 - trace_direct) < 1e-12
    assert abs(np.sum(s**2) / 3.0 - np.linalg.norm(m) ** 2 / 3.0) < 1e-12


def test_nc0_metric_values():
    assert nc0_metric(np.array([[1.0, 0.0], [-1.0, 0.0]])) == 0.0
    w = np.array([[1.0, -1.0], [2.0, -2.0]])
    assert nc0_metric(w) == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-15)
    for k in (2, 4, 7):
        assert nc0_metric(simplex_etf(k).T) < 1e-15


def test_nc0_alpha_values():
    assert nc0_alpha(np.array([[1.0, 0.0], [-1.0, 0.0]])) == 0.0
    w = np.array([[1.0, -1.0], [2.0, -2.0]])
    assert nc0_alpha(w) == pytest.approx(9.0, rel=1e-15)
    # all entries c: column sums are Kc, so alpha = p*(Kc)^2/K = p*K*c^2
    for k, p, c in [(3, 2, 1.0), (4, 6, -0.5), (2, 3, 2.0)]:
        assert nc0_alpha(np.full((k, p), c)) == pytest.approx(p * k * c * c, rel=1e-13)


def test_nc0_normalized_values():
    w = np.array([[1.0, -1.0], [2.0, -2.0]])
    expected = (3.0 / np.sqrt(2.0)) / np.sqrt(10.0)
    assert nc0_normalized(w) == pytest.approx(expected, rel=1e-14)
    assert nc0_normalized(3.0 * simplex_etf(5).T) < 1e-15
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = rng.standard_normal((4, 6))
        assert nc0_normalized(2.0 * w) == pytest.approx(nc0_normalized(w), abs=1e-12)
    with pytest.raises(DomainError):
        nc0_normalized(np.zeros((3, 3)))


def test_nc1_values():
    rng = np.random.default_rng(13)
    means = rng.standard_normal((4, 4))
    assert nc1_variability(_stats_from_means(means)) == 0.0
    # Sigma_W = Sigma_B gives tr(Sigma_B pinv(Sigma_B)) / K = rank(Sigma_B) / K
    stats = compute_class_statistics(_equal_scatter_features(means))
    assert nc1_variability(stats) == pytest.approx(3.0 / 4.0, rel=1e-10)
    assert nc1_variability(compute_class_statistics(_two_class_diagonal_features())) == \
        pytest.approx(0.25, rel=1e-12)
    # equal class means, spread within: Sigma_B == 0
    spread = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    degenerate = LabeledFeatures(np.tile(spread, 3), np.repeat(np.arange(3), 4), 3)
    assert nc1_variability(compute_class_statistics(degenerate)) == 0.0


def test_nc2_family_on_embedded_frames():
    for k in range(4, 11):
        q = _isometry(k + 3, k, seed=k)
        stats = _stats_from_means(q @ simplex_etf(k))
        assert nc2_structure(stats) < 1e-14
        assert nc2_norms(stats) < 1e-14
        assert nc2_angles(stats) < 1e-14


def test_nc2_angle_deviation_orthonormal_columns():
    assert nc2w_angles(np.eye(5)) == pytest.approx(0.25, abs=1e-15)


def test_nc2_equal_norm_means():
    means = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
    stats = _stats_from_means(means)
    assert nc2_norms(stats) < 1e-15


def test_nc2_degenerate_errors():
    zero = _stats_from_means(np.zeros((3, 4)))
    assert zero.nc2 is zero.nc2n is zero.nc2a is None
    with pytest.raises(DomainError, match="structure metric undefined"):
        nc2_structure(zero)
    with pytest.raises(DomainError, match="norm spread undefined"):
        nc2_norms(zero)
    with pytest.raises(DomainError, match="angle metric undefined"):
        nc2_angles(zero)


def test_class_statistics_hold_the_nc2_family_of_their_centered_means():
    stats = _stats_from_means(_isometry(6, 4, 3) @ simplex_etf(4) + 0.1)
    assert (stats.nc2, stats.nc2n, stats.nc2a) == \
        (nc2_structure(stats), nc2_norms(stats), nc2_angles(stats))
    assert stats.nc2 > 0.0 and stats.nc2n > 0.0 and stats.nc2a > 0.0


def test_nc2w_values():
    for k in (3, 5, 8):
        assert nc2w_structure(2.5 * simplex_etf(k)) < 1e-14
    w = np.tile([[1.0, 2.0, -0.5]], (4, 1))
    assert nc2w_norms(w) < 1e-15
    assert nc0_metric(w) > 0.0
    with pytest.raises(DomainError):
        nc2w_structure(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        nc2w_angles(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_nc2m_duality_values():
    for k in (3, 6):
        etf = simplex_etf(k)
        stats = _stats_from_means(etf)
        assert nc2m_duality(etf, stats) < 1e-14
    with pytest.raises(ShapeError):
        nc2m_duality(np.zeros((3, 5)), _stats_from_means(simplex_etf(3)))
    with pytest.raises(DomainError):
        nc2m_duality(np.zeros((3, 3)), _stats_from_means(simplex_etf(3)))


def test_nc3_values():
    rng = np.random.default_rng(14)
    means = rng.standard_normal((4, 4))
    means -= means.mean(axis=1, keepdims=True)
    stats = _stats_from_means(means)
    assert nc3_alignment(2.7 * means.T, stats) < 1e-14
    assert nc3_alignment(-means.T, stats) == pytest.approx(2.0 / 16.0, rel=1e-12)
    w = rng.standard_normal((4, 4))
    base = nc3_alignment(w, stats)
    scaled_stats = _stats_from_means(5.0 * means)
    assert nc3_alignment(3.0 * w, scaled_stats) == pytest.approx(base, abs=1e-12)
    with pytest.raises(DomainError):
        nc3_alignment(np.zeros((4, 4)), stats)
    with pytest.raises(ShapeError):
        nc3_alignment(rng.standard_normal((4, 5)), stats)


def test_nc4_agreement_values():
    k = 4
    etf = simplex_etf(k)
    data = LabeledFeatures(etf, np.arange(k), k)
    assert nc4_agreement(etf.T, data) == 1.0
    derangement = np.array([1, 2, 3, 0])
    assert nc4_agreement(etf.T[derangement], data) == 0.0
    # the decisions kept for one W are not read for a W changed in place
    w = etf.T.copy()
    assert nc4_agreement(w, data) == 1.0
    w[:] = w[derangement]
    assert nc4_agreement(w, data) == 0.0


def test_nc4_matches_brute_force():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((2, 3))
    feats = rng.standard_normal((3, 100))
    labels = rng.integers(0, 2, size=100)
    labels[:2] = [0, 1]
    data = LabeledFeatures(feats, labels, 2)
    means = np.stack(
        [feats[:, labels == c].mean(axis=1) for c in range(2)], axis=1
    )
    agree = 0
    for n in range(100):
        h = feats[:, n]
        scores = [w[c] @ h for c in range(2)]
        linear = int(np.argmax(scores))
        dists = [np.linalg.norm(h - means[:, c]) for c in range(2)]
        nearest = int(np.argmin(dists))
        agree += linear == nearest
    assert nc4_agreement(w, data) == agree / 100.0


def _nc4_reference(w, data, h=None):
    """nc4 of W on the features ``h`` (default: the training features) from
    the p x K x N difference tensor (the direct distance form)."""
    w = np.asarray(w, dtype=float)
    h = data.features if h is None else np.asarray(h, dtype=float)
    means = np.empty((h.shape[0], data.num_classes))
    for c in range(data.num_classes):
        means[:, c] = data.features[:, data.labels == c].mean(axis=1)
    linear = np.argmax(w @ h, axis=0)
    diff = h[:, None, :] - means[:, :, None]
    dist2 = np.einsum("pkn,pkn->kn", diff, diff)
    nearest = np.argmin(dist2, axis=0)
    return float(np.mean(linear == nearest)), nearest


def _random_labeled(rng, k, p, n, offset):
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    feats = rng.standard_normal((p, n)) + offset
    return LabeledFeatures(feats, labels, k)


def test_nc4_gram_form_equals_direct_reference_on_random_inputs():
    rng = np.random.default_rng(2024)
    for case in range(240):
        k = int(rng.integers(2, 13))
        p = int(rng.integers(1, 41))
        n = int(rng.integers(k, 160))
        # Offsets far from the origin make the Gram form cancel; those
        # samples must still be decided as the direct form decides them.
        offset = [0.0, 0.0, 3.0, 1e4, 1e7][case % 5]
        data = _random_labeled(rng, k, p, n, offset)
        w = rng.standard_normal((k, p))
        test = None
        if case % 2:
            test = rng.standard_normal((p, int(rng.integers(1, 80)))) + offset
        ref_value, ref_nearest = _nc4_reference(w, data, test)
        h = data.features if test is None else test
        means = np.stack([data.features[:, data.labels == c].mean(axis=1)
                          for c in range(k)], axis=1)
        assert np.array_equal(_nearest_mean(h, means), ref_nearest), case
        if test is None:
            assert nc4_agreement(w, data) == ref_value, case
            assert all_metrics(w, data)["nc4"] == ref_value, case


def test_nc4_exact_ties_go_to_lowest_class_index():
    rng = np.random.default_rng(8)
    # Classes 2 and 4 hold the same samples, so their means are equal.
    block = rng.standard_normal((6, 7)) + 8.0
    feats = np.concatenate([rng.standard_normal((6, 7)) + 3.0, rng.standard_normal((6, 7)),
                            block, rng.standard_normal((6, 7)) - 3.0, block], axis=1)
    labels = np.repeat(np.arange(5), 7)
    data = LabeledFeatures(feats, labels, 5)
    means = np.stack([feats[:, labels == c].mean(axis=1) for c in range(5)], axis=1)
    assert np.array_equal(means[:, 2], means[:, 4])
    nearest = _nearest_mean(feats, means)
    ref_value, ref_nearest = _nc4_reference(np.eye(5, 6), data)
    assert np.array_equal(nearest, ref_nearest)
    assert not np.any(nearest == 4)
    assert np.all(nearest[labels == 4] == 2)
    assert nc4_agreement(np.eye(5, 6), data) == ref_value
    # Points on the bisector of two means are an exact tie in both forms.
    sym = LabeledFeatures(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 5.0]]), np.arange(3), 3)
    bisector = np.array([[0.0, 0.0, 0.0], [-3.0, 1.75, 0.5]])
    assert np.array_equal(_nearest_mean(bisector, sym.features), [0, 0, 0])
    w = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    assert np.array_equal(_nc4_reference(w, sym, bisector)[1], [0, 0, 0])


def test_nc4_memory_stays_linear_in_samples():
    rng = np.random.default_rng(0)
    k, p, n = 100, 256, 5000
    data = _random_labeled(rng, k, p, n, 0.0)
    w = rng.standard_normal((k, p))
    tracemalloc.start()
    try:
        nc4_agreement(w, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The difference tensor alone would be p * K * N * 8 bytes, about 1 GB.
    assert peak < 32 * 2**20


def test_collapse_chain_on_constructed_solutions():
    rng = np.random.default_rng(15)
    for _ in range(50):
        k = int(rng.integers(3, 11))
        p = int(rng.integers(k, 2 * k + 1))
        w, h, labels = make_nc_solution(k, p, scale_w=float(rng.uniform(0.5, 2.0)),
                                        scale_h=float(rng.uniform(0.5, 2.0)),
                                        isometry_seed=int(rng.integers(0, 10**6)))
        data = LabeledFeatures(h, labels, k)
        stats = compute_class_statistics(data)
        assert nc2_structure(stats) < 1e-8
        assert nc3_alignment(w, stats) < 1e-8
        assert nc0_metric(w) < 1e-8
        assert nc4_agreement(w, data) == 1.0


def test_row_sum_perturbation_bound():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 9))
        p = int(rng.integers(k, 2 * k))
        w, _, _ = make_nc_solution(k, p, isometry_seed=seed)
        eps = float(rng.uniform(1e-6, 1e-3))
        noise = rng.uniform(-1.0, 1.0, size=w.shape)
        assert nc0_metric(w + eps * noise) <= 10.0 * eps * np.sqrt(k)


def test_alpha_metric_relation():
    rng = np.random.default_rng(16)
    for _ in range(30):
        k = int(rng.integers(2, 9))
        p = int(rng.integers(2, 9))
        w = rng.standard_normal((k, p))
        lhs = k * nc0_alpha(w)
        rhs = (p * nc0_metric(w)) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_metrics_invariant_under_same_class_permutation():
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((5, 40))
    labels = np.repeat(np.arange(4), 10)
    w = rng.standard_normal((4, 5))
    base = all_metrics(w, LabeledFeatures(feats, labels, 4))
    perm = np.concatenate([rng.permutation(np.flatnonzero(labels == c)) for c in range(4)])
    shuffled = all_metrics(w, LabeledFeatures(feats[:, perm], labels[perm], 4))
    for key in METRIC_KEYS:
        assert base[key] == pytest.approx(shuffled[key], abs=1e-12), key


def test_scale_invariance_of_normalized_metrics():
    rng = np.random.default_rng(18)
    for _ in range(100):
        k = int(rng.integers(3, 7))
        p = int(rng.integers(k, 9))
        w = rng.standard_normal((k, p))
        means = rng.standard_normal((p, k))
        means -= means.mean(axis=1, keepdims=True)
        stats = _stats_from_means(means)
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        scaled = _stats_from_means(b * means)
        assert abs(nc2_structure(scaled) - nc2_structure(stats)) < 1e-12
        assert abs(nc2w_structure(a * w) - nc2w_structure(w)) < 1e-12
        assert abs(nc3_alignment(a * w, scaled) - nc3_alignment(w, stats)) < 1e-12


def test_all_metrics_complete_and_flagged():
    rng = np.random.default_rng(19)
    feats = rng.standard_normal((4, 30))
    labels = np.repeat(np.arange(3), 10)
    w = rng.standard_normal((3, 4))
    out = all_metrics(w, LabeledFeatures(feats, labels, 3))
    for key in METRIC_KEYS:
        assert key in out
        assert out[key] is not None
    assert out["flags"]["skipped"] == []
    assert not out["flags"]["sigma_b_degenerate"]
    # identical samples: centered means vanish, so mean-based metrics degrade
    const = np.ones((4, 30))
    out = all_metrics(w, LabeledFeatures(const, labels, 3))
    assert out["flags"]["sigma_b_degenerate"]
    assert out["nc1"] == 0.0
    for key in ("nc2", "nc2n", "nc2a", "nc2m", "nc3"):
        assert out[key] is None
        assert key in out["flags"]["skipped"]


def test_zero_weight_all_metrics():
    rng = np.random.default_rng(20)
    feats = rng.standard_normal((4, 20))
    labels = np.repeat(np.arange(2), 10)
    out = all_metrics(np.zeros((2, 4)), LabeledFeatures(feats, labels, 2))
    assert out["nc0"] == 0.0
    assert out["nc0_alpha"] == 0.0
    for key in ("nc0_normalized", "nc2w", "nc2wn", "nc2wa", "nc2m", "nc3"):
        assert out[key] is None


_STAT_FIELDS = ("class_means", "centered_means", "singular_values", "nc1_terms")


def _class_means_reference(h, labels, k):
    """(means, centered) with a boolean mask per class."""
    means = np.empty((h.shape[0], k))
    for c in range(k):
        means[:, c] = h[:, labels == c].mean(axis=1)
    return means, means - means.mean(axis=1)[:, None]


def test_kept_class_statistics_equal_a_fresh_computation_bitwise():
    rng = np.random.default_rng(505)
    for case in range(60):
        k = int(rng.integers(2, 20))
        p = int(rng.integers(1, 60))
        counts = 1 + rng.permutation(k) * int(rng.integers(1, 6))
        labels = np.repeat(np.arange(k), counts)
        rng.shuffle(labels)
        feats = rng.standard_normal((p, labels.size)) + [0.0, 3.0, 1e4][case % 3]
        data = LabeledFeatures(feats, labels, k)
        assert np.ptp(np.bincount(labels)) > 0
        all_metrics(rng.standard_normal((k, p)), data)
        kept = compute_class_statistics(data)
        assert compute_class_statistics(data) is kept
        fresh = compute_class_statistics(LabeledFeatures(feats.copy(), labels.copy(), k))
        for name in _STAT_FIELDS:
            assert np.array_equal(getattr(kept, name), getattr(fresh, name)), (case, name)
        for name in ("nc2", "nc2n", "nc2a"):
            assert getattr(kept, name) == getattr(fresh, name), (case, name)
        ref = _class_means_reference(feats, labels, k)
        for name, a, b in zip(("means", "centered"), (kept.class_means, kept.centered_means), ref):
            assert np.array_equal(a, b), (case, name)


def test_snapshot_runs_the_class_statistics_passes_once(monkeypatch):
    mean_passes, svd_shapes = [], []
    real_means, real_svd = metrics._class_means, np.linalg.svd

    def counted_means(data):
        mean_passes.append(data)
        return real_means(data)

    def counted_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    blobs = make_blob_dataset(num_classes=5, dim=8, per_class=7, seed=3)
    w = np.random.default_rng(3).standard_normal((5, 8))
    monkeypatch.setattr(metrics, "_class_means", counted_means)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    record = snapshot(0, 0.1, w, LabeledFeatures(blobs.features, blobs.labels, 5), None, 1.0)
    # One mean pass and one SVD of the 8 x 5 centered means (the other SVD
    # is of the stack of one 5 x 8 W); nc1 and the sigma_*_m columns share
    # that SVD.
    assert len(mean_passes) == 1
    assert sorted(svd_shapes) == [(1, 5, 8), (8, 5)]
    data = LabeledFeatures(blobs.features, blobs.labels, 5)
    stats = compute_class_statistics(data)
    assert record.values["nc1"] == nc1_variability(stats)
    assert record.values["nc4"] == nc4_agreement(w, data)
    assert record.sigma_min_m == stats.singular_values[-1]
    assert record.sigma_avg_m == stats.singular_values[:-1].mean()


def test_non_finite_class_statistics_raise_and_blank_the_snapshot():
    # (non-finite class means, an overflowing s_0^2, overflowing nc1 terms):
    # each raises NumericError, and the snapshot is a row of blank metrics.
    labels = np.array([0, 0, 1, 1])
    cases = (np.array([[np.nan, 1.0, 2.0, 3.0]]),
             np.array([[1e160, 1e160, -1e160, -1e160]]),
             np.array([[1e200, -1e200, 1.0, 1.0]]))
    for feats in cases:
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                compute_class_statistics(LabeledFeatures(feats, labels, 2))
            record = snapshot(3, 0.1, np.ones((2, 1)), LabeledFeatures(feats, labels, 2),
                              None, 1.0)
        assert all(record.values[key] is None for key in METRIC_KEYS)
        assert record.sigma_min_m is None and record.sigma_avg_m is None


def test_kept_class_statistics_are_read_only():
    blobs = make_blob_dataset(num_classes=3, dim=4, per_class=5, seed=1)
    data = LabeledFeatures(blobs.features, blobs.labels, 3)
    stats = compute_class_statistics(data)
    assert stats.class_means is data.class_means
    for name in _STAT_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(stats, name)[0] = 0


def test_linear_decisions_are_kept_for_a_w_of_the_same_shape_and_bytes():
    """The decisions of the last W are kept for a bit-equal copy of it, in
    either memory order, and computed afresh for a W that differs by the
    sign of one zero, holds a NaN, or has the same bytes in another shape.
    Every result is the argmax of a fresh product."""
    rng = np.random.default_rng(5)
    data = LabeledFeatures(rng.standard_normal((4, 12)), np.arange(12) % 3, 3)

    def fresh(w):
        return np.argmax(w @ data.features, axis=-2)

    w = rng.standard_normal((3, 4))
    w[0, 0] = 0.0
    kept = data._linear_decisions(w)
    assert np.array_equal(kept, fresh(w))
    assert data._linear_decisions(w.copy()) is kept
    assert data._linear_decisions(np.asfortranarray(w)) is kept

    negative_zero = w.copy()
    negative_zero[0, 0] = -0.0
    got = data._linear_decisions(negative_zero)
    assert got is not kept and np.array_equal(got, fresh(negative_zero))

    with_nan = w.copy()
    with_nan[1, 2] = np.nan
    got = data._linear_decisions(with_nan)
    assert np.array_equal(got, fresh(with_nan))
    assert data._linear_decisions(with_nan.copy()) is got

    kept = data._linear_decisions(w)
    stacked = w[None]               # the same bytes, a stack of one (1, 3, 4)
    got = data._linear_decisions(stacked)
    assert got is not kept and got.shape == (1, 12)
    assert np.array_equal(got, fresh(stacked))
