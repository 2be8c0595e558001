import numpy as np
import pytest

from nc_lab.errors import NumericError, ShapeError
from nc_lab.harness import read_file
from nc_lab.linalg import (
    as_array,
    parse_matrix,
    pseudo_inverse,
    singular_values,
)
from nc_lab.metrics import simplex_etf
from helpers import format_matrix


def test_singular_values_examples():
    assert np.allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])
    assert np.array_equal(singular_values(np.zeros((3, 2))), [0.0, 0.0])
    sv = singular_values(simplex_etf(5))
    assert np.allclose(sv, [0.5, 0.5, 0.5, 0.5, 0.0], atol=1e-12)


def test_singular_values_frobenius_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rows = rng.integers(1, 33)
        cols = rng.integers(1, 33)
        a = rng.standard_normal((rows, cols))
        sv = singular_values(a)
        assert sv.shape == (min(rows, cols),)
        assert np.all(np.diff(sv) <= 1e-12)
        assert np.sum(sv**2) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-10)


def test_singular_values_rejects_non_finite():
    with pytest.raises(NumericError):
        singular_values(np.array([[1.0, np.inf]]))


def test_pseudo_inverse_examples():
    assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    assert np.max(np.abs(a @ pseudo_inverse(a) - np.eye(4))) < 1e-8
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    outer = np.outer(u, u)
    assert np.max(np.abs(pseudo_inverse(outer) - outer)) < 1e-8


def test_pseudo_inverse_penrose_on_rank_deficient():
    rng = np.random.default_rng(3)
    for _ in range(10):
        base = rng.standard_normal((5, 2))
        a = base @ rng.standard_normal((2, 4))
        dag = pseudo_inverse(a)
        assert np.max(np.abs(a @ dag @ a - a)) < 1e-8
        assert np.max(np.abs(dag @ a @ dag - dag)) < 1e-8


def test_pseudo_inverse_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        pseudo_inverse(np.eye(2), rank_tolerance=-1.0)


def test_matrix_text_round_trip(tmp_path):
    """The text format must reproduce float64 values bit for bit."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 5)) * np.pi
    text = format_matrix(a)
    back = parse_matrix(text)
    assert np.array_equal(back, a)
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(a))
    assert np.array_equal(parse_matrix(read_file(path, "matrix")), a)


def test_parse_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n3\n")
    with pytest.raises(ShapeError):
        parse_matrix("0 2\n")
    # Matrix files are outside input, so parse_matrix checks finiteness.
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(NumericError):
            parse_matrix(f"1 2\n1.0 {bad}\n")


def test_as_array_passthrough():
    m = np.array([[1.0]])
    assert as_array(m) is m
    with pytest.raises(ShapeError):
        as_array([1.0, 2.0])
