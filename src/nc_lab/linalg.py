"""The few linear-algebra ops the lab needs on float64 ndarrays, and the
parser of the plain-text matrix files that ``nc-lab metrics`` takes: a
'rows cols' line, then one line of values per row.

Every function takes a 2-D ndarray or nested lists and coerces;
singular_values takes matrices of shape (..., m, n), one or a stack of them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError

__all__ = [
    "as_array",
    "as_matrices",
    "singular_values",
    "pseudo_inverse",
    "parse_matrix",
]

DEFAULT_RANK_TOLERANCE = 1e-10


def as_array(m) -> np.ndarray:
    """Coerce an ndarray / nested-list operand to a float64 2-D array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def as_matrices(m) -> np.ndarray:
    """Coerce an operand of shape (..., rows, cols), one matrix or a stack
    of them along any leading axes, to a float64 array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2:
        raise ShapeError(f"expected a matrix or a stack of them, got ndim={a.ndim}")
    return a


def singular_values(a) -> np.ndarray:
    """Singular values of each m x n slice of ``a`` (..., m, n) in
    descending order: shape (..., min(m, n)), each row bit-equal to the call
    on its slice alone."""
    a = as_matrices(a)
    if not np.all(np.isfinite(a)):
        raise NumericError("singular_values requires finite input")
    return np.linalg.svd(a, compute_uv=False)


def pseudo_inverse(a, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values sigma <= rank_tolerance * sigma_max are treated as zero.
    The tolerance is relative; it must be nonnegative.
    """
    if rank_tolerance < 0:
        raise DomainError("rank_tolerance must be >= 0")
    a = as_array(a)
    if not np.all(np.isfinite(a)):
        raise NumericError("pseudo_inverse requires finite input")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > rank_tolerance * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def parse_matrix(text: str) -> np.ndarray:
    """Parse the plain-text matrix format: 'rows cols', then one line of
    whitespace-separated values per row.

    Every value must be finite: the file is outside input.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header line {lines[0]!r}: expected 'rows cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"malformed header line {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} row lines, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise ValueError(f"row {i}: expected {cols} values, found {len(parts)}")
        try:
            data[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"row {i}: unparseable value in {line!r}") from exc
    if not np.all(np.isfinite(data)):
        raise NumericError("matrix elements must be finite")
    return data
