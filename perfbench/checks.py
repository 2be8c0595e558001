"""Correctness checks for the benchmark's workloads.

Every check recomputes what the program reported from an independent
derivation (a scalar recursion, a Gram-form distance, numpy's own least
squares or pseudo-inverse) or tests a property the method must have. None of
them compares against a stored copy of earlier output. Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv

import numpy as np

# Relative agreement demanded of quantities that the program and the check
# compute along different floating-point paths. Row sums are differences of
# O(|W|) entries, so their error floor is a small multiple of machine epsilon
# times alpha_0. The errors seen stay below 3e-15; 1e-9 is the program's own
# check tolerance and still flags a 1e-6 perturbation.
LAW_TOL = 1e-9
# Same-formula quantities (alpha from the final weight, OLS coefficients).
EXACT_TOL = 1e-12
# nc1 goes through two different SVD-based pseudo-inverses of a rank-(K-1)
# matrix; the two agree to about 1e-16 at the stress size.
NC1_TOL = 1e-9
# Cut-off of the pseudo-inverse, the program's documented rank tolerance.
PINV_RCOND = 1e-10


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def decoupled_alpha(alpha0: float, lr: float, wd: float, t: int) -> float:
    """alpha_t = (1 - lr*wd)^(2t) alpha_0: decoupled decay scales every row
    sum by (1 - lr*wd) per step, whatever the momentum."""
    return (1.0 - lr * wd) ** (2 * t) * alpha0


def coupled_scales(lr: float, wd: float, momentum: float, steps: int) -> list:
    """Row-sum scale s_t under coupled SGD with momentum.

    The weight gradient has zero column sums, so on the row sums the update
    reduces to u <- momentum*u + wd*s; s <- s - lr*u with s_0 = 1, u_0 = 0,
    and alpha_t = s_t^2 alpha_0.
    """
    s, u = 1.0, 0.0
    out = [s]
    for _ in range(steps):
        u = momentum * u + wd * s
        s = s - lr * u
        out.append(s)
    return out


def alpha_of_weight(w: np.ndarray) -> float:
    """||W^T 1||^2 / K for a K x p classifier."""
    col = np.add.reduce(np.asarray(w, dtype=np.float64), axis=0)
    return float(np.dot(col, col)) / w.shape[0]


def _law_problems(label, alphas, preds, alpha0) -> list:
    """alpha may decay to the rounding floor, so the error is measured
    against alpha_0 + |prediction|."""
    out = []
    for t, (sim, pred) in enumerate(zip(alphas, preds)):
        if abs(sim - pred) > LAW_TOL * (alpha0 + abs(pred)):
            out.append(f"{label}: alpha at row {t} is {sim!r}, law gives {pred!r}")
            break
    return out


# --- check-theorem and oscillation-run CSVs ---


def check_decoupled_rows(rows, lr: float, wd: float, epochs: int) -> list:
    """``check-theorem 1`` CSV: full batch, one step per epoch."""
    if [int(r["t"]) for r in rows] != list(range(epochs + 1)):
        return [f"theorem 1: expected rows t=0..{epochs}"]
    alphas = [float(r["alpha_sim"]) for r in rows]
    a0 = alphas[0]
    if not a0 > 0.0:
        return ["theorem 1: alpha_0 is not positive"]
    preds = [decoupled_alpha(a0, lr, wd, t) for t in range(epochs + 1)]
    return _law_problems("theorem 1", alphas, preds, a0)


def check_coupled_rows(rows, lr: float, wd: float, momentum: float, epochs: int,
                       steps_per_epoch: int) -> list:
    """``check-theorem 2`` CSV: one row per epoch, t counted in steps."""
    ts = [int(r["t"]) for r in rows]
    if ts != [e * steps_per_epoch for e in range(epochs + 1)]:
        return [f"theorem 2: expected rows every {steps_per_epoch} steps up to epoch {epochs}"]
    alphas = [float(r["alpha_sim"]) for r in rows]
    a0 = alphas[0]
    if not a0 > 0.0:
        return ["theorem 2: alpha_0 is not positive"]
    scales = coupled_scales(lr, wd, momentum, ts[-1])
    preds = [scales[t] ** 2 * a0 for t in ts]
    return _law_problems("theorem 2", alphas, preds, a0)


def check_sign_plateau_rows(rows, k: int, wd: float, steps: int) -> list:
    """``check-theorem 3`` CSV: a monotone climb from 0 that ends within 1%
    of (K-2)^2 / wd^2 and never passes it."""
    if [int(r["t"]) for r in rows] != list(range(steps + 1)):
        return [f"theorem 3: expected rows t=0..{steps}"]
    alphas = [float(r["alpha_sim"]) for r in rows]
    limit = (k - 2) ** 2 / wd**2
    out = []
    if alphas[0] != 0.0:
        out.append("theorem 3: alpha does not start at 0")
    slack = 1e-12 * limit
    if any(b < a - slack for a, b in zip(alphas, alphas[1:])):
        out.append("theorem 3: alpha is not monotone")
    if not 0.99 * limit <= alphas[-1] <= limit * (1.0 + LAW_TOL):
        out.append(f"theorem 3: final alpha {alphas[-1]!r} not within 1% of {limit!r}")
    return out


def check_oscillation_rows(rows, epochs: int, metric_period: int) -> list:
    """Metric CSV of an ``oscillation_decay`` run: alpha rises, then ends at
    or below 1e-6 of its peak; the logged lr never rises and is cut at least
    once."""
    want = list(range(0, epochs + 1, metric_period))
    if [int(r["epoch"]) for r in rows] != want:
        return ["oscillation run: unexpected logged epochs"]
    alphas = [float(r["nc0_alpha"]) for r in rows]
    lrs = [float(r["lr"]) for r in rows]
    peak = max(alphas)
    out = []
    if not peak > alphas[0]:
        out.append("oscillation run: alpha never rises")
    if not alphas[-1] <= 1e-6 * peak:
        out.append(f"oscillation run: final alpha {alphas[-1]!r} above 1e-6 of peak {peak!r}")
    if any(b > a for a, b in zip(lrs, lrs[1:])):
        out.append("oscillation run: logged lr increases")
    if not lrs[-1] < lrs[0]:
        out.append("oscillation run: lr was never cut")
    return out


# --- sweep grids and training runs ---


def check_rowsum_law(kind: str, alpha0: float, alpha_final: float, lr: float, wd: float,
                     momentum: float, steps: int) -> list:
    """Final alpha of an SGD run against its closed form."""
    if kind == "sgd_decoupled":
        pred = decoupled_alpha(alpha0, lr, wd, steps)
    elif kind == "sgd_coupled":
        pred = coupled_scales(lr, wd, momentum, steps)[-1] ** 2 * alpha0
    else:
        return []
    if abs(alpha_final - pred) > LAW_TOL * (alpha0 + abs(pred)):
        return [f"{kind} lr={lr} wd={wd} m={momentum}: final alpha {alpha_final!r}, "
                f"law gives {pred!r}"]
    return []


def check_alpha_matches_weight(label: str, logged: float, weight: np.ndarray) -> list:
    own = alpha_of_weight(weight)
    if not close(logged, own, EXACT_TOL, 1e-300):
        return [f"{label}: logged nc0_alpha {logged!r} but ||W^T 1||^2/K = {own!r}"]
    return []


_SUMMARY_COMPARED = ("lr", "momentum", "wd", "train_acc", "nc0", "nc0_alpha", "nc3")


def check_summary_readback(path, rows) -> list:
    """summary.csv parses with the csv module into one row per cell, with
    the same values the sweep returned."""
    back = read_csv(path)
    if len(back) != len(rows):
        return [f"summary.csv has {len(back)} rows for {len(rows)} cells"]
    for got, want in zip(back, rows):
        if got["kind"] != want["kind"] or got["status"] != want["status"]:
            return [f"summary.csv row for {want['kind']} differs in kind or status"]
        for col in _SUMMARY_COMPARED:
            cell = got[col]
            value = None if cell == "" else float(cell)
            if value != want.get(col):
                return [f"summary.csv {col} reads {cell!r}, sweep gave {want.get(col)!r}"]
    return []


def qualifying_xy(rows, threshold: float, x: str = "nc0", y: str = "nc3"):
    xs, ys = [], []
    for row in rows:
        if row.get("status") != "ok" or row.get("train_acc") is None:
            continue
        if row["train_acc"] < threshold or row.get(x) is None or row.get(y) is None:
            continue
        xs.append(row[x])
        ys.append(row[y])
    return np.array(xs), np.array(ys)


def check_ols(xs: np.ndarray, ys: np.ndarray, n: int, slope: float, intercept: float) -> list:
    if n != xs.size:
        return [f"regression used {n} rows, {xs.size} qualify"]
    design = np.column_stack([np.ones_like(xs), xs])
    (b0, b1), *_ = np.linalg.lstsq(design, ys, rcond=None)
    scale = float(np.abs(ys).max()) + abs(b1) * float(np.abs(xs).max())
    out = []
    if not close(slope, b1, 1e-9, EXACT_TOL * scale):
        out.append(f"OLS slope {slope!r}, lstsq gives {b1!r}")
    if not close(intercept, b0, 1e-9, EXACT_TOL * scale):
        out.append(f"OLS intercept {intercept!r}, lstsq gives {b0!r}")
    return out


def mlp_features(hidden_weights, hidden_biases, x: np.ndarray) -> np.ndarray:
    """Last hidden activations of a rectifier network, columns are samples."""
    a = x
    for w, b in zip(hidden_weights, hidden_biases):
        a = np.maximum(w @ a + b, 0.0)
    return a


def class_means(h: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    onehot = np.zeros((k, labels.size))
    onehot[labels, np.arange(labels.size)] = 1.0
    return (h @ onehot.T) / onehot.sum(axis=1)


def _decisions(scores: np.ndarray, pick_max: bool):
    """Per-column winner (lowest index on ties) and whether the runner-up
    is within rounding of it."""
    s = scores if pick_max else -scores
    order = np.argsort(-s, axis=0, kind="stable")
    best = order[0]
    cols = np.arange(s.shape[1])
    gap = s[best, cols] - s[order[1], cols]
    scale = np.abs(scores).max(axis=0)
    return best, gap <= 1e-9 * scale


def nc4_range(w: np.ndarray, h: np.ndarray, labels: np.ndarray, k: int):
    """Bounds on the classifier / nearest-mean agreement.

    Nearest mean in Gram form: argmin_c ||mu_c||^2 - 2 mu_c^T h, which needs
    K x N memory. Samples whose decision is within rounding of a tie may go
    either way, so they widen the interval.
    """
    means = class_means(h, labels, k)
    dist = (means * means).sum(axis=0)[:, None] - 2.0 * (means.T @ h)
    near, amb_near = _decisions(dist, pick_max=False)
    lin, amb_lin = _decisions(w @ h, pick_max=True)
    ambiguous = amb_near | amb_lin
    sure = (near == lin) & ~ambiguous
    n = labels.size
    return sure.sum() / n, (sure.sum() + ambiguous.sum()) / n


def nc1_reference(h: np.ndarray, labels: np.ndarray, k: int) -> float:
    """tr(Sigma_W pinv(Sigma_B)) / K with numpy's pseudo-inverse."""
    means = class_means(h, labels, k)
    centered = means - means.mean(axis=1, keepdims=True)
    dev = h - means[:, labels]
    sigma_w = dev @ dev.T / labels.size
    sigma_b = centered @ centered.T / k
    return float(np.trace(sigma_w @ np.linalg.pinv(sigma_b, rcond=PINV_RCOND))) / k


def check_final_metrics(label: str, nc1: float, nc4: float, w, h, labels, k: int) -> list:
    out = []
    lo, hi = nc4_range(w, h, labels, k)
    if not lo <= nc4 <= hi:
        out.append(f"{label}: nc4 {nc4!r} outside Gram-form range [{lo!r}, {hi!r}]")
    ref = nc1_reference(h, labels, k)
    if not close(nc1, ref, NC1_TOL):
        out.append(f"{label}: nc1 {nc1!r}, tr(Sigma_W pinv(Sigma_B))/K = {ref!r}")
    return out
