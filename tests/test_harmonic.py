import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigennoise import harmonic
from eigennoise.eigen import dense_eigh
from eigennoise.harmonic import (
    CoocMatrix,
    HarmonicModel,
    harmonic_number,
    materialize,
    materialize_log,
    pmi_matrix,
)


def test_xhat_entry_derived_values():
    values = materialize(HarmonicModel(n=4, m=2)).values
    assert values[0, 0] == pytest.approx(7.68, rel=1e-12)
    assert values[3, 3] == pytest.approx(0.48, rel=1e-12)


@given(st.integers(1, 30), st.integers(1, 30))
def test_xhat_entry_symmetric(i, j):
    values = materialize(HarmonicModel(n=30, m=3)).values
    assert values[i - 1, j - 1] == values[j - 1, i - 1]


def test_materialize_small_cases():
    c = materialize(HarmonicModel(n=2, m=1))
    expected = (8.0 / 3.0) * np.array([[1.0, 0.5], [0.5, 0.25]])
    np.testing.assert_allclose(c.values, expected, rtol=1e-12)
    assert c.row_marginals[0] == pytest.approx(4.0, rel=1e-12)
    c1 = materialize(HarmonicModel(n=1, m=1))
    np.testing.assert_allclose(c1.values, [[2.0]], rtol=1e-15)


@given(st.integers(1, 60), st.integers(1, 8))
@settings(max_examples=30)
def test_materialize_marginal_identity(n, m):
    model = HarmonicModel(n=n, m=m)
    c = materialize(model)
    ranks = np.arange(1, n + 1)
    np.testing.assert_allclose(c.row_marginals, 2.0 * m * n / ranks, rtol=1e-9)
    assert c.total == pytest.approx(2.0 * m * n * harmonic_number(n), rel=1e-9)


@pytest.mark.parametrize("build", [
    lambda: materialize(HarmonicModel(n=10)),
    lambda: materialize_log(HarmonicModel(n=10)),
    lambda: dense_eigh(np.eye(10)),
], ids=["materialize", "materialize_log", "dense_eigh"])
def test_dense_cap(monkeypatch, build):
    monkeypatch.setattr(harmonic, "DENSE_CAP", 5)
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == ("N=10 exceeds the dense cap 5; "
                              "use the analytic eigen path (eigen.eigennoise_analytic)")


def test_materialize_scale_linear_in_m():
    c1 = materialize(HarmonicModel(n=12, m=3))
    c2 = materialize(HarmonicModel(n=12, m=6))
    np.testing.assert_array_equal(c2.values, 2.0 * c1.values)
    np.testing.assert_array_equal(c2.row_marginals, 2.0 * c1.row_marginals)


@pytest.mark.parametrize("n", [2, 10, 60])
def test_pmi_is_identically_zero(n):
    c = materialize(HarmonicModel(n=n, m=4))
    assert np.abs(pmi_matrix(c)).max() < 1e-10


def test_pmi_shift_algebra():
    c = materialize(HarmonicModel(n=10, m=2))
    np.testing.assert_allclose(pmi_matrix(c, k=5.0), -math.log(5.0), atol=1e-9)


def test_pmi_hand_computed_matrix():
    c = CoocMatrix.from_values(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert pmi_matrix(c)[0, 0] == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)


def test_pmi_zero_cell_errors():
    c = CoocMatrix.from_values(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="everywhere-positive"):
        pmi_matrix(c)


def test_log_xhat_entry():
    grid = materialize_log(HarmonicModel(n=4, m=2))
    assert grid[0, 0] == pytest.approx(math.log(7.68), rel=1e-12)
    assert grid[0, 1] == grid[1, 0]


@given(st.integers(1, 20), st.integers(1, 20))
def test_log_xhat_rank_structure_identity(i, j):
    grid = materialize_log(HarmonicModel(n=20, m=5))
    value = grid[i - 1, j - 1]
    assert value - grid[0, 0] + math.log(i) + math.log(j) == pytest.approx(0.0, abs=1e-12)


def test_materialize_log_matches_entries():
    model = HarmonicModel(n=6, m=3)
    np.testing.assert_allclose(materialize_log(model), np.log(materialize(model).values),
                               rtol=0, atol=1e-12)


def test_structural_ranks():
    model = HarmonicModel(n=24, m=2)
    assert np.linalg.matrix_rank(materialize(model).values) == 1
    assert np.linalg.matrix_rank(materialize_log(model)) == 2


def test_model_validation():
    with pytest.raises(ValueError):
        HarmonicModel(n=0)
    with pytest.raises(ValueError):
        HarmonicModel(n=3, m=0)

