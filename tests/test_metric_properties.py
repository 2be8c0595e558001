"""Properties of the class statistics and the metrics over random shapes
(hypothesis, profile in conftest.py).

nc1 is computed in the rank-(K-1) coordinates of the centered class means,
from one thin SVD. The old p x p formula, tr(Sigma_W pinv(Sigma_B)) / K with
numpy's pinv, and the mask-per-class class means stay here as references.
NC0 is necessary for NC: nc0_normalized is bounded by nc3 and by nc2w.
A pass over a stack of W equals, slice by slice, the per-W formulas.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import reference_snapshot
from nc_lab import harness, linalg, metrics
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
    """The public metric function ``name`` on its own, None where undefined."""
    out = getattr(metrics, name)(*args)
    if isinstance(out, tuple):
        return np.where(out[1], out[0], None).tolist()
    return float(out)


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
        "nc2": _standalone("nc2_structure", stats.centered_means),
        "nc2n": _standalone("nc2_norms", stats.centered_means),
        "nc2a": _standalone("nc2_angles", stats.centered_means),
        "nc2w": _standalone("nc2w_structure", w),
        "nc2wn": _standalone("nc2w_norms", w),
        "nc2wa": _standalone("nc2w_angles", w),
        "nc2m": _standalone("nc2m_duality", w, stats.centered_means),
        "nc3": _standalone("nc3_alignment", w, stats.centered_means),
        "nc4": _standalone("nc4_agreement", w, LabeledFeatures(h, labels, k)),
    }
    assert {key: repr(bundle[key]) for key in METRIC_KEYS} == \
        {key: repr(value) for key, value in expected.items()}
    assert bundle["flags"]["skipped"] == [key for key in METRIC_KEYS if expected[key] is None]
    if case in ("zero_w", "coincident_means"):
        assert expected["nc3"] is None


def _metric_bits(bundle) -> dict:
    return {**{key: repr(bundle[key]) for key in METRIC_KEYS}, "flags": bundle["flags"]}


@given(seed=seeds, k=st.integers(2, 12), wide=st.booleans(), slices=st.integers(1, 5),
       shared=st.booleans(), coincident=st.booleans(), data=st.data())
def test_a_stacked_metric_pass_equals_the_per_w_formulas_slice_by_slice(
        seed, k, wide, slices, shared, coincident, data):
    """all_metrics over an S x K x p stack of W, with one feature set for
    every slice or one per slice, equals slice by slice and by repr the
    per-W formulas it replaced (helpers.reference_snapshot), None and flags
    included; so do the records of the training loop's stacked pass, sigma
    columns included. A non-finite slice among them gets a blank record, and
    nothing warns."""
    rng = np.random.default_rng(seed)
    p = data.draw(st.integers(k, k + 4) if wide or k == 2 else st.integers(1, k - 1))
    counts = data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))   # imbalanced
    if coincident:
        counts = [2 * c for c in counts]
    labels = _labels(rng, counts)

    def scale():
        return 10.0 ** data.draw(st.floats(-3.0, 3.0))

    def features():
        h = rng.standard_normal((p, labels.size)) * scale()
        if coincident:          # each class holds +-v, so every class mean is exactly 0
            for c, count in enumerate(counts):
                v = rng.integers(-9, 10, size=(p, count // 2)).astype(float)
                h[:, labels == c] = np.concatenate([v, -v], axis=1)
        return h

    hs = [features()] * slices if shared else [features() for _ in range(slices)]
    ws = rng.standard_normal((slices, k, p))
    for w in ws:
        w *= scale()
        case = data.draw(st.sampled_from(["plain", "zero_w", "zero_row"]))
        if case == "zero_w":
            w[:] = 0.0
        elif case == "zero_row":
            w[rng.integers(k)] = 0.0
    expected = [reference_snapshot(w, h, labels, k) for w, h in zip(ws, hs)]

    def feature_sets(features):
        if shared:
            return LabeledFeatures(features[0], labels, k)
        return [LabeledFeatures(h, labels, k) for h in features]

    at = data.draw(st.integers(0, slices))
    with_nan = np.insert(ws, at, np.nan, axis=0)
    heads = [(0, 0.1, None)] * (slices + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = all_metrics(ws, feature_sets(hs))
        records = harness._snapshots(heads, with_nan, feature_sets(hs[:at] + hs[:1] + hs[at:]),
                                     np.eye(k)[:, labels])
    bundles = [{key: columns[key][i] for key in (*METRIC_KEYS, "flags")} for i in range(slices)]
    assert [_metric_bits(b) for b in bundles] == [_metric_bits(b) for b, _ in expected]
    blank = records.pop(at)
    assert all(blank.values[key] is None for key in METRIC_KEYS)
    assert blank.to_row()[-4:] == [None] * 4
    for rec, (bundle, sigmas) in zip(records, expected):
        assert [repr(v) for v in rec.to_row()[4:]] == \
            [repr(bundle[key]) for key in METRIC_KEYS] + [repr(v) for v in sigmas]


def _at(nested, index):
    """The entry at ``index`` of an all_metrics column (a nested list)."""
    for i in index:
        nested = nested[i]
    return nested


def _slice_bits(out, index=()) -> tuple:
    """repr of a metric's value at ``index`` of its leading axes, with its
    ``defined`` when the metric returns (values, defined)."""
    parts = out if isinstance(out, tuple) else (out,)
    return tuple(repr(np.asarray(part)[index].tolist()) for part in parts)


@given(seed=seeds, k=st.integers(2, 6), p=st.integers(1, 7), slices=st.integers(1, 4),
       lead=st.sampled_from([(), ("S",), (2, "S")]), data=st.data())
def test_every_metric_of_w_maps_each_slice_as_the_call_on_that_slice_alone(
        seed, k, p, slices, lead, data):
    """Each public metric of W, of W and the centered means, and of the
    means, and all_metrics, maps W of shape (..., K, p) (leading shape (),
    (S,) or (2, S)) to one value per slice: of that shape, and equal by repr
    to the call on the slice alone, ``defined``, None and flags included,
    whatever order the slices are stored in. The means are one p x K matrix
    for every slice or a stack of them."""
    rng = np.random.default_rng(seed)
    shape = tuple(slices if axis == "S" else axis for axis in lead)
    labels = _labels(rng, data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    h = rng.standard_normal((p, labels.size))
    if data.draw(st.booleans()):            # coincident class means: nc2, nc2m, nc3 undefined
        h[:] = 1.0
    ws = rng.standard_normal(shape + (k, p))
    ms = rng.standard_normal(shape + (p, k))
    if data.draw(st.booleans()):            # each slice stored in Fortran order
        ws = rng.standard_normal(shape + (p, k)).swapaxes(-1, -2)
        ms = rng.standard_normal(shape + (k, p)).swapaxes(-1, -2)
    for index in np.ndindex(shape):
        case = data.draw(st.sampled_from(["plain", "zero_w", "zero_row", "zero_means"]))
        if case == "zero_w":
            ws[index] = 0.0
        elif case == "zero_row":
            ws[index][rng.integers(k)] = 0.0
        elif case == "zero_means":
            ms[index] = 0.0
    features = LabeledFeatures(h, labels, k)
    shared = compute_class_statistics(features).centered_means
    calls = [(name, lambda w, m, f=getattr(metrics, name): f(w))
             for name in ("nc0_metric", "nc0_alpha", "nc0_normalized",
                          "nc2w_structure", "nc2w_norms", "nc2w_angles")]
    calls += [(name, lambda w, m, f=getattr(metrics, name): f(m))
              for name in ("nc2_structure", "nc2_norms", "nc2_angles")]
    calls += [(name, lambda w, m, f=getattr(metrics, name): f(w, m))
              for name in ("nc2m_duality", "nc3_alignment")]
    calls += [(name, lambda w, m, f=getattr(metrics, name): f(w, shared))
              for name in ("nc2m_duality", "nc3_alignment")]
    calls += [("nc4_agreement", lambda w, m: metrics.nc4_agreement(w, features)),
              ("singular_values", lambda w, m: linalg.singular_values(w))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls:
            whole = call(ws, ms)
            tail = (min(k, p),) if name == "singular_values" else ()
            for part in whole if isinstance(whole, tuple) else (whole,):
                assert np.shape(part) == shape + tail, name
            assert np.asarray(whole[0] if isinstance(whole, tuple) else whole).dtype == np.float64
            for index in np.ndindex(shape):
                assert _slice_bits(whole, index) == _slice_bits(call(ws[index], ms[index])), \
                    (name, index)
        columns = all_metrics(ws, features)
        for index in np.ndindex(shape):
            alone = all_metrics(ws[index], LabeledFeatures(h, labels, k))
            assert {key: repr(_at(columns[key], index)) for key in alone} == \
                {key: repr(value) for key, value in alone.items()}


def _gamma(n: int):
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative error bound of a
    sum or dot product of n + 1 terms (any order, FMA or not)."""
    mp = pytest.importorskip("mpmath")
    nu = n * mp.mpf(2) ** -53
    return nu / (1 - nu)


@given(seed=seeds, k=st.integers(2, 11), p=st.integers(1, 13),
       shape=st.sampled_from(["toward_mt", "toward_1v", "random"]),
       exponent=st.one_of(st.none(), st.integers(-12, 0)),
       scales=st.tuples(st.integers(-3, 3), st.integers(-3, 3)), data=st.data())
def test_nc0_normalized_is_bounded_by_nc3_and_by_nc2w(seed, k, p, shape, exponent, scales,
                                                       data):
    """nc0_normalized <= K^1.5 nc3 and nc0_normalized <= K^1.5 sqrt(nc2w) / p,
    each up to the rounding of the computed metrics, derived here.

    Exact arithmetic. M (p x K) is the float centered means and r = M 1,
    which is 0 up to the rounding bounded below, for any labels. With
    A = W/||W|| - M^T/||M||, W^T 1 / ||W|| = A^T 1 + r / ||M||, and
    ||A^T 1|| <= sqrt(K) ||A||; so ||W^T 1|| / ||W|| <= sqrt(K) ||A|| +
    ||r|| / ||M||.
    With G = W W^T and E the float simplex frame, whose entries sum to c_E,
    ||W^T 1||^2 = 1^T G 1 = ||G|| (1^T D 1 + c_E) for D = G/||G|| - E, and
    |1^T D 1| <= K ||D||, ||G|| <= ||W||^2; so ||W^T 1|| / ||W|| <=
    sqrt(K ||D|| + |c_E|). Equality in the first holds as A tends to
    1 v^T, which the toward_mt draws approach: W = cos(phi) M^T/||M|| +
    sin(phi) 1 v^T/||1 v^T||, with ratio cos(phi/2).

    Rounding, u = 2^-53 and gamma_n as in _gamma. A float norm of n values
    (a dot product and a square root) has relative error below
    gamma_(n+1); each division, subtraction or product with a float adds u.
    - M = means - mean of the K class means, per feature i: that mean is
      off by gamma_K sum_c |means_ic| / K, and each difference by u, so
      |r_i| <= gamma_K sum_c |means_ic| + u / (1 - u) sum_c |M_ic| =: r_i up;
      rho = ||r up|| / ||M||.
    - nc0_normalized = (||W^T 1|| / p) / ||W||: the column sums carry
      gamma_(K-1) sum_k |w_kj|, at most gamma_(K-1) sqrt(K) ||W|| in norm,
      so nc0_c <= F0 (||W^T 1|| / (p ||W||) + gamma_(K-1) sqrt(K) / p),
      F0 = (1 + gamma_(p+1)) (1 + u)^2 / (1 - gamma_(Kp+1)).
    - nc3 = ||W/||W|| - M^T/||M|| || / (K p): each quotient is off by eta
      = (1 + u) / (1 - gamma_(Kp+1)) - 1 relative, eta in norm, and the
      difference by u; so ||A|| <= A_up = (K p nc3_c / ((1 - gamma_(Kp+1))
      (1 - u)) + 2 eta (1 + u)) / (1 - u).
    - nc2w = ||G_c/||G_c|| - E|| / K^2: the product G_c is off by
      gamma_p ||W||^2 <= gamma_p sqrt(K) ||G|| in norm, so its direction by
      2 sqrt(K) gamma_p; the quotient by eta_G = (1 + u) / (1 -
      gamma_(K^2+1)) - 1 and the difference by u; so ||D|| <= D_up =
      K^2 nc2w_c / ((1 - u)^2 (1 - gamma_(K^2+1))) + eta_G + 2 sqrt(K) gamma_p.
    The bounds F0 ((sqrt(K) A_up + rho) / p + gamma_(K-1) sqrt(K) / p) and
    F0 (sqrt(K D_up + |c_E|) / p + gamma_(K-1) sqrt(K) / p) are evaluated
    at 50 digits, so their own rounding is far below u.
    """
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    counts = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))   # imbalanced
    labels = _labels(rng, counts)
    h = 10.0 ** scales[0] * rng.standard_normal((p, labels.size))
    stats = compute_class_statistics(LabeledFeatures(h, labels, k))
    m = stats.centered_means
    if shape == "random":
        w = rng.standard_normal((k, p))
    else:
        one_v = np.outer(np.ones(k), rng.standard_normal(p))
        tilt = 0.0 if exponent is None else 10.0 ** exponent
        phi = tilt if shape == "toward_mt" else np.pi / 2 - tilt
        w = np.cos(phi) * m.T / np.linalg.norm(m) + np.sin(phi) * one_v / np.linalg.norm(one_v)
    w = 10.0 ** scales[1] * w
    bundle = all_metrics(w, LabeledFeatures(h, labels, k))
    assume(bundle["nc3"] is not None)
    with mp.workdps(50):
        u = mp.mpf(2) ** -53
        sqrt_k = mp.sqrt(k)
        r_up = [_gamma(k) * mp.fsum(abs(mp.mpf(x)) for x in means_i)
                + u / (1 - u) * mp.fsum(abs(mp.mpf(x)) for x in m_i)
                for means_i, m_i in zip(stats.class_means, m)]
        rho = mp.sqrt(mp.fsum(x**2 for x in r_up) / mp.fsum(mp.mpf(x) ** 2 for x in m.flat))
        c_e = abs(mp.fsum(mp.mpf(x) for x in metrics.simplex_etf(k).flat))
        f0 = (1 + _gamma(p + 1)) * (1 + u) ** 2 / (1 - _gamma(k * p + 1))
        column_sums = _gamma(k - 1) * sqrt_k / p
        eta = (1 + u) / (1 - _gamma(k * p + 1)) - 1
        a_up = (k * p * mp.mpf(bundle["nc3"]) / ((1 - _gamma(k * p + 1)) * (1 - u))
                + 2 * eta * (1 + u)) / (1 - u)
        eta_g = (1 + u) / (1 - _gamma(k * k + 1)) - 1
        d_up = (k * k * mp.mpf(bundle["nc2w"]) / ((1 - u) ** 2 * (1 - _gamma(k * k + 1)))
                + eta_g + 2 * sqrt_k * _gamma(p))
        nc0 = mp.mpf(bundle["nc0_normalized"])
        assert nc0 <= f0 * ((sqrt_k * a_up + rho) / p + column_sums)
        assert nc0 <= f0 * (mp.sqrt(k * d_up + c_e) / p + column_sums)
