"""Reference constructions that only the tests use: a collapsed
configuration, the one-step alpha decomposition, the metric records of a
metric CSV, and the writer of the plain-text matrix files that
``nc-lab metrics`` reads."""

import numpy as np

from nc_lab.errors import DomainError
from nc_lab.harness import CSV_COLUMNS, MetricRecord, parse_csv
from nc_lab.linalg import as_array
from nc_lab.metrics import METRIC_KEYS, simplex_etf


def make_nc_solution(num_classes: int, feature_dim: int, scale_w: float = 1.0,
                     scale_h: float = 1.0, isometry_seed: int = 0):
    """A collapsed configuration: (W, H, labels) with H columns on an
    isometrically embedded simplex frame and W proportional to H^T.

    Requires feature_dim >= num_classes. Any positive scales leave the
    collapse metrics at zero and classifier/nearest-mean agreement at one.
    """
    k, p = int(num_classes), int(feature_dim)
    if p < k:
        raise DomainError(f"feature_dim must be >= num_classes, got {p} < {k}")
    if scale_w <= 0 or scale_h <= 0:
        raise DomainError("scales must be positive")
    rng = np.random.default_rng(isometry_seed)
    g = rng.standard_normal((p, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    base = q @ simplex_etf(k)                # p x k, isometric frame copy
    w = scale_w * base.T
    h = scale_h * base
    labels = np.arange(k)
    return w, h, labels


def alpha_increment_decomposition(w, v, grad, lr: float, momentum: float, wd: float):
    """Exact per-step decomposition of the alpha increment under coupled SGD.

    With V1 = momentum*V + grad + wd*W and W1 = W - lr*V1:
        (alpha(W1) - alpha(W)) / lr
          = -2*momentum*omega - 2*gamma - 2*wd*alpha + lr*nu,
    where omega, gamma, alpha, nu are the J-hat inner products <V W^T>,
    <G W^T>, <W W^T>, <V1 V1^T> and J-hat = (1/K) 1 1^T. Returns (lhs, rhs).
    """
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    k = w.shape[0]

    def j_inner(x, y):
        # <X Y^T, J-hat> = (1^T X) . (1^T Y) / K
        return float(x.sum(axis=0) @ y.sum(axis=0)) / k

    alpha = j_inner(w, w)
    omega = j_inner(v, w)
    gamma = j_inner(grad, w)
    v1 = momentum * v + grad + wd * w
    w1 = w - lr * v1
    nu = j_inner(v1, v1)
    lhs = (j_inner(w1, w1) - alpha) / lr
    rhs = -2.0 * momentum * omega - 2.0 * gamma - 2.0 * wd * alpha + lr * nu
    return lhs, rhs


def metric_records(text: str) -> list:
    """The MetricRecords of a metric CSV, the inverse of format_metric_csv;
    empty cells come back as None."""
    header, rows = parse_csv(text)
    assert header == list(CSV_COLUMNS)
    return [MetricRecord(values={k: row.pop(k) for k in METRIC_KEYS}, **row) for row in rows]


def format_matrix(m) -> str:
    """The plain-text matrix format: 'rows cols', then one line per row.

    Values are written with shortest round-trip decimal representation, so
    parse_matrix(format_matrix(m)) reproduces every float64 bit pattern.
    """
    a = as_array(m)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
