"""Properties of the class statistics over random shapes (hypothesis,
profile in conftest.py).

nc1 is computed in the rank-(K-1) coordinates of the centered class means,
from one thin SVD. The old p x p formula, tr(Sigma_W pinv(Sigma_B)) / K with
numpy's pinv, and the mask-per-class class means stay here as references.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given
from hypothesis import strategies as st

from nc_lab import metrics
from nc_lab.errors import DomainError
from nc_lab.metrics import (
    METRIC_KEYS,
    LabeledFeatures,
    all_metrics,
    compute_class_statistics,
    nc1_variability,
)

seeds = st.integers(0, 2**32 - 1)
EPS = np.finfo(np.float64).eps


def _means_reference(h, labels, k):
    """Class means with a boolean mask per class."""
    means = np.empty((h.shape[0], k))
    for c in range(k):
        means[:, c] = h[:, labels == c].mean(axis=1)
    return means


def _nc1_reference(h, labels, k):
    """(tr(Sigma_W pinv(Sigma_B)) / K with numpy's pinv, the condition number
    s_0 / s_(r-1) of the centered means at their rank r = min(p, K - 1))."""
    means = _means_reference(h, labels, k)
    centered = means - means.mean(axis=1, keepdims=True)
    dev = h - means[:, labels]
    sigma_w = dev @ dev.T / labels.size
    sigma_b = centered @ centered.T / k
    s = np.linalg.svd(centered, compute_uv=False)
    cond = s[0] / s[min(h.shape[0], k - 1) - 1]
    return float(np.trace(sigma_w @ np.linalg.pinv(sigma_b, rcond=1e-10))) / k, cond


def _nc1_exact(h, labels, k, means):
    """nc1 of the float class means ``means`` in 60-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    p, n = h.shape
    m = mp.matrix(p, k)
    for i in range(p):
        mean_i = mp.fsum(mp.mpf(means[i, c]) for c in range(k)) / k
        for c in range(k):
            m[i, c] = mp.mpf(means[i, c]) - mean_i
    u, s, _ = mp.svd_r(m)
    total = mp.mpf(0)
    for j in range(len(s)):
        if s[j] ** 2 > mp.mpf("1e-10") * s[0] ** 2:
            proj = [mp.fsum(u[i, j] * (mp.mpf(h[i, col]) - mp.mpf(means[i, labels[col]]))
                            for i in range(p)) for col in range(n)]
            total += mp.fsum(x**2 for x in proj) / s[j] ** 2
    return float(total / n)


def _labels(rng, counts):
    labels = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(labels)
    return labels


@given(seed=seeds, k=st.integers(2, 9), p=st.integers(1, 9), data=st.data())
def test_class_means_equal_the_mask_reference_wherever_the_samples_sit(seed, k, p, data):
    # Classes 0 and k - 1 hold the same samples in the same order at other
    # positions, so their means must be equal: a product with the one-hot
    # labels sums in an order set by the positions and would break this.
    rng = np.random.default_rng(seed)
    counts = data.draw(st.lists(st.integers(1, 40), min_size=k, max_size=k))
    counts[-1] = counts[0]
    labels = _labels(rng, counts)
    h = rng.standard_normal((p, labels.size)) * data.draw(st.sampled_from([1e-3, 1.0, 1e4]))
    h[:, labels == k - 1] = h[:, labels == 0]
    means = LabeledFeatures(h, labels, k).class_means
    assert np.array_equal(means, _means_reference(h, labels, k))
    assert np.array_equal(means[:, 0], means[:, k - 1])


@given(seed=seeds, wide=st.booleans(), data=st.data())
def test_nc1_matches_the_pseudo_inverse_reference(seed, wide, data):
    # K > p (rank p) and K <= p (rank K - 1) are both drawn.
    if wide:
        p = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(p + 1, p + 4))
    else:
        p = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(2, p))
    rng = np.random.default_rng(seed)
    counts = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    labels = _labels(rng, counts)
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    h = scale * (rng.standard_normal((p, labels.size)) + data.draw(st.floats(-5.0, 5.0)))
    old, cond = _nc1_reference(h, labels, k)
    assume(cond <= 1e3)
    features = LabeledFeatures(h, labels, k)
    got = nc1_variability(compute_class_statistics(features))
    exact = _nc1_exact(h, labels, k, features.class_means)
    assert abs(got - exact) <= 1e-12 * exact
    # Forming Sigma_B squares the condition number, and numpy's pinv of it
    # is accurate only to about eps * cond^2.
    assert abs(got - old) <= (1e-12 + 4.0 * EPS * cond**2) * exact


@given(seed=seeds, k=st.integers(2, 8), p=st.integers(1, 8), data=st.data())
def test_nc1_is_zero_on_collapsed_features(seed, k, p, data):
    # Integer centers make every class mean exact, so D = H - M[:, y] = 0.
    rng = np.random.default_rng(seed)
    counts = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    labels = _labels(rng, counts)
    centers = rng.integers(-50, 51, size=(p, k)) * 2.0 ** data.draw(st.integers(-20, 20))
    stats = compute_class_statistics(LabeledFeatures(centers[:, labels], labels, k))
    assert np.all(stats.nc1_terms == 0.0)
    assert nc1_variability(stats) == 0.0


@given(seed=seeds, k=st.integers(2, 6), p=st.integers(1, 6), half=st.integers(1, 4))
def test_equal_class_means_are_degenerate_with_zero_nc1(seed, k, p, half):
    # Each class holds its own order of the columns c +- v (integers), so
    # every class mean is exactly c, yet the classes have spread.
    rng = np.random.default_rng(seed)
    v = rng.integers(-9, 10, size=(p, half)).astype(float)
    block = rng.integers(-9, 10, size=(p, 1)) + np.concatenate([v, -v], axis=1)
    labels = _labels(rng, [2 * half] * k)
    h = np.empty((p, labels.size))
    for c in range(k):
        h[:, labels == c] = block[:, rng.permutation(2 * half)]
    data = LabeledFeatures(h, labels, k)
    out = all_metrics(rng.standard_normal((k, p)), data)
    assert out["flags"]["sigma_b_degenerate"]
    assert out["nc1"] == 0.0
    assert np.all(compute_class_statistics(data).singular_values == 0.0)


def _standalone(name, *args):
    """The public metric function ``name`` on its own, None where degenerate."""
    try:
        return getattr(metrics, name)(*args)
    except DomainError:
        return None


@given(seed=seeds, k=st.integers(2, 6), p=st.integers(1, 7),
       case=st.sampled_from(["plain", "zero_w", "zero_row", "coincident_means"]),
       data=st.data())
def test_all_metrics_equals_each_standalone_metric_function(seed, k, p, case, data):
    """Each value of all_metrics, which reads kept class statistics and
    kept decisions, equals by repr its public function's result on a fresh
    feature set, None included."""
    rng = np.random.default_rng(seed)
    counts = data.draw(st.lists(st.integers(1, 7), min_size=k, max_size=k))   # imbalanced
    if case == "coincident_means":
        # each class holds +-v for an integer v, so every class mean is
        # exactly zero
        counts = [2 * c for c in counts]
    labels = _labels(rng, counts)
    h = rng.standard_normal((p, labels.size)) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if case == "coincident_means":
        for c, count in enumerate(counts):
            v = rng.integers(-9, 10, size=(p, count // 2)).astype(float)
            h[:, labels == c] = np.concatenate([v, -v], axis=1)
    w = rng.standard_normal((k, p)) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if case == "zero_w":
        w[:] = 0.0
    elif case == "zero_row":
        w[rng.integers(k)] = 0.0
    bundle = all_metrics(w, LabeledFeatures(h, labels, k))
    fresh = LabeledFeatures(h, labels, k)
    stats = compute_class_statistics(fresh)
    expected = {
        "nc0": _standalone("nc0_metric", w),
        "nc0_alpha": _standalone("nc0_alpha", w),
        "nc0_normalized": _standalone("nc0_normalized", w),
        "nc1": _standalone("nc1_variability", stats),
        "nc2": _standalone("nc2_structure", stats),
        "nc2n": _standalone("nc2_norms", stats),
        "nc2a": _standalone("nc2_angles", stats),
        "nc2w": _standalone("nc2w_structure", w),
        "nc2wn": _standalone("nc2w_norms", w),
        "nc2wa": _standalone("nc2w_angles", w),
        "nc2m": _standalone("nc2m_duality", w, stats),
        "nc3": _standalone("nc3_alignment", w, stats),
        "nc4": _standalone("nc4_agreement", w, LabeledFeatures(h, labels, k)),
    }
    assert {key: repr(bundle[key]) for key in METRIC_KEYS} == \
        {key: repr(value) for key, value in expected.items()}
    assert bundle["flags"]["skipped"] == [key for key in METRIC_KEYS if expected[key] is None]
    if case in ("zero_w", "coincident_means"):
        assert expected["nc3"] is None
