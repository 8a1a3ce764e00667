import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigennoise import eigen
from eigennoise.eigen import (
    dense_eigh,
    eigennoise_analytic,
    to_embedding,
    truncate,
)
from eigennoise.harmonic import HarmonicModel, materialize, materialize_log


def test_dense_eigh_identity():
    full = dense_eigh(np.eye(3))
    np.testing.assert_allclose(full.eigenvalues, [1.0, 1.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(full.vectors.T @ full.vectors, np.eye(3), atol=1e-12)


def test_dense_eigh_two_by_two():
    full = dense_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(full.eigenvalues, [3.0, 1.0], rtol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(full.vectors[:, 0], [s, s], atol=1e-12)
    # sign rule: largest-magnitude entry positive
    np.testing.assert_allclose(np.abs(full.vectors[:, 1]), [s, s], atol=1e-12)
    assert full.vectors[np.argmax(np.abs(full.vectors[:, 1])), 1] > 0


def test_dense_eigh_rank_one_model():
    c = materialize(HarmonicModel(n=2, m=1))
    full = dense_eigh(c.values)
    np.testing.assert_allclose(full.eigenvalues, [10.0 / 3.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(full.vectors[:, 0],
                               [2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)], rtol=1e-12)


def test_dense_eigh_reconstruction_random_symmetric():
    rng = np.random.Generator(np.random.Philox(key=42))
    a = rng.standard_normal((128, 128))
    a = (a + a.T) / 2.0
    full = dense_eigh(a)
    recon = full.vectors @ np.diag(full.eigenvalues) @ full.vectors.T
    assert np.abs(recon - a).max() < 1e-7
    # cross-check the spectrum against LAPACK
    np.testing.assert_allclose(np.sort(full.eigenvalues),
                               np.linalg.eigvalsh(a), atol=1e-8)


def test_dense_eigh_rejects_asymmetry():
    with pytest.raises(ValueError, match="asymmetry"):
        dense_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_truncate_rank_one_exact_at_any_d():
    c = materialize(HarmonicModel(n=6, m=2))
    full = dense_eigh(c.values)
    for d in (1, 3, 6):
        fact = truncate(full, d)
        err = np.linalg.norm(fact.u @ fact.v.T - c.values)
        assert err < 1e-9


def test_truncate_discarded_eigenvalue_energy():
    full = dense_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    fact = truncate(full, 1)
    err2 = np.linalg.norm(fact.u @ fact.v.T - np.array([[2.0, 1.0], [1.0, 2.0]])) ** 2
    assert err2 == pytest.approx(1.0, rel=1e-9)


def test_truncate_full_d_is_identity():
    a = materialize_log(HarmonicModel(n=5, m=3))
    full = dense_eigh(a)
    fact = truncate(full, 5)
    np.testing.assert_allclose(np.sort(fact.eigenvalues), np.sort(full.eigenvalues),
                               rtol=1e-12)
    np.testing.assert_allclose(fact.u @ fact.v.T, a, atol=1e-9)


def test_truncate_ordering_rules_differ_on_log_matrix():
    a = materialize_log(HarmonicModel(n=8, m=5))
    full = dense_eigh(a)
    by_mag = truncate(full, 2)
    # truncate orders by magnitude and keeps both nonzero pairs; the first
    # two by value (the decomposition's order) are the positive one and a
    # zero pair
    assert np.abs(by_mag.eigenvalues).min() > 1e-6
    assert np.abs(full.eigenvalues[:2]).min() < 1e-10


def test_analytic_linear_small_case():
    fact = eigennoise_analytic(2, 1, m=1, mode="linear")
    assert fact.eigenvalues[0] == pytest.approx(10.0 / 3.0, rel=1e-12)
    np.testing.assert_allclose(fact.u[:, 0],
                               [2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)], rtol=1e-12)


def test_analytic_full_dimension_reconstructs():
    m = 3
    fact = eigennoise_analytic(4, 4, m=m, mode="linear")
    c = materialize(HarmonicModel(n=4, m=m))
    np.testing.assert_allclose(fact.u @ fact.v.T, c.values, atol=1e-8)
    np.testing.assert_allclose(fact.u.T @ fact.u, np.eye(4), atol=1e-8)


def test_analytic_log_full_dimension_reconstructs():
    fact = eigennoise_analytic(6, 6, m=2, mode="log")
    target = materialize_log(HarmonicModel(n=6, m=2))
    np.testing.assert_allclose(fact.u @ fact.v.T, target, atol=1e-8)


@pytest.mark.parametrize("mode", ["linear", "log"])
@pytest.mark.parametrize("n", [2, 3, 9, 33])
def test_analytic_matches_jacobi_oracle(mode, n):
    m = 4
    model = HarmonicModel(n=n, m=m)
    matrix = materialize(model).values if mode == "linear" else materialize_log(model)
    full = dense_eigh(matrix)
    fact = eigennoise_analytic(n, min(n, 5), m=m, mode=mode)
    nonzero = fact.eigenvalues[np.abs(fact.eigenvalues) > 1e-12]
    by_mag = np.argsort(-np.abs(full.eigenvalues), kind="stable")
    for k, lam in enumerate(nonzero):
        oracle_lam = full.eigenvalues[by_mag[k]]
        assert lam == pytest.approx(oracle_lam, rel=1e-8)
        v_oracle = full.vectors[:, by_mag[k]]
        v_analytic = fact.u[:, k]
        diff = min(np.abs(v_oracle - v_analytic).max(),
                   np.abs(v_oracle + v_analytic).max())
        assert diff < 1e-8
    # the rest of the oracle spectrum is numerically zero
    rest = full.eigenvalues[by_mag[len(nonzero):]]
    assert np.abs(rest).max(initial=0.0) < 1e-8


@given(st.integers(2, 24), st.data())
@settings(max_examples=25, deadline=None)
def test_analytic_orthonormal_any_d(n, data):
    d = data.draw(st.integers(1, n))
    mode = data.draw(st.sampled_from(["linear", "log"]))
    fact = eigennoise_analytic(n, d, m=2, mode=mode)
    np.testing.assert_allclose(fact.u.T @ fact.u, np.eye(d), atol=1e-8)
    np.testing.assert_allclose(fact.v, fact.u * fact.eigenvalues[None, :], rtol=1e-9)
    recon = fact.u @ fact.v.T
    np.testing.assert_allclose(recon, recon.T, atol=1e-8)


def test_analytic_scale_invariance_of_u():
    a = eigennoise_analytic(12, 6, m=1, mode="linear")
    b = eigennoise_analytic(12, 6, m=7, mode="linear")
    np.testing.assert_allclose(a.u, b.u, atol=1e-12)
    assert b.eigenvalues[0] == pytest.approx(7.0 * a.eigenvalues[0], rel=1e-12)


def test_analytic_completion_seed_behavior():
    rot0 = eigennoise_analytic(10, 6, completion_seed=0)
    rot0_again = eigennoise_analytic(10, 6, completion_seed=0)
    rot1 = eigennoise_analytic(10, 6, completion_seed=1)
    np.testing.assert_array_equal(rot0.u, rot0_again.u)
    assert np.abs(rot0.u[:, 1:] - rot1.u[:, 1:]).max() > 1e-3
    # the leading (model) column never depends on the completion seed
    np.testing.assert_array_equal(rot0.u[:, 0], rot1.u[:, 0])
    np.testing.assert_allclose(rot1.u.T @ rot1.u, np.eye(6), atol=1e-9)
    # an unseeded completion would make the table differ from run to run
    with pytest.raises(TypeError):
        eigennoise_analytic(10, 6, completion_seed=None)


@pytest.mark.parametrize("mode", ["linear", "log"])
def test_analytic_default_vocab_cap(mode):
    n, d = 20000, 50
    tracemalloc.start()
    try:
        fact = eigennoise_analytic(n, d, mode=mode, completion_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table and one GS_BLOCK x N Gram-Schmidt buffer (0.32 of it at
    # d=50); one N x N float64 array would be 3.2 GB
    assert peak < 1.6 * n * d * 8
    u = fact.u
    assert np.abs(u.T @ u - np.eye(d)).max() <= 1e-8
    ranks = np.arange(1, n + 1, dtype=float)
    if mode == "linear":
        z = 1.0 / ranks
        np.testing.assert_allclose(u[:, 0], z / np.linalg.norm(z), rtol=1e-12)
        model_span = (z / np.linalg.norm(z))[:, None]
    else:
        model_span = np.linalg.qr(np.column_stack([np.ones(n), np.log(ranks)]))[0]
    k = model_span.shape[1]
    assert np.abs(model_span.T @ u[:, k:]).max() <= 1e-10
    np.testing.assert_array_equal(
        eigennoise_analytic(n, d, mode=mode, completion_seed=0).u, u)
    other = eigennoise_analytic(n, d, mode=mode, completion_seed=1)
    assert np.abs(other.u[:, k:] - u[:, k:]).max() > 1e-3


def _model_span(n, mode):
    ranks = np.arange(1, n + 1, dtype=float)
    if mode == "linear":
        return (1.0 / ranks / np.linalg.norm(1.0 / ranks))[:, None]
    return np.linalg.qr(np.column_stack([np.ones(n), np.log(ranks)]))[0]


@pytest.mark.parametrize("mode", ["linear", "log"])
@pytest.mark.parametrize("d", [33, 70, 130])
def test_analytic_completion_across_blocks(mode, d):
    # d - k spans 2 to 9 Gram-Schmidt blocks of 16, mostly with a partial last one
    for n in (d, d + 1, 10 * d):
        span = _model_span(n, mode)
        k = span.shape[1]
        first = None
        for seed in (0, 1, 7):
            fact = eigennoise_analytic(n, d, mode=mode, completion_seed=seed)
            u = fact.u
            assert u.shape == (n, d)
            assert np.abs(u.T @ u - np.eye(d)).max() <= 1e-12
            assert np.abs(span.T @ u[:, k:]).max() <= 1e-12
            np.testing.assert_array_equal(
                eigennoise_analytic(n, d, mode=mode, completion_seed=seed).u, u)
            np.testing.assert_array_equal(fact.v, u * fact.eigenvalues)
            if first is None:
                first = u
            else:
                np.testing.assert_array_equal(u[:, :k], first[:, :k])
                assert np.abs(u[:, k:] - first[:, k:]).max() > 1e-3


@pytest.mark.parametrize("mode, k", [("linear", 1), ("log", 2)])
@pytest.mark.parametrize("draw_rows", [7, 1024])
def test_analytic_completion_starts_from_one_whole_draw(monkeypatch, mode, k, draw_rows):
    # the draw is written into U in pieces of DRAW_ROWS rows; the pieces
    # must carry the values, in order, of one (n, d - k) Philox draw
    n, d, seed = 50, 9, 5
    monkeypatch.setattr(eigen, "DRAW_ROWS", draw_rows)
    monkeypatch.setattr(eigen, "_orthonormalize_from", lambda u, k: None)
    u = eigennoise_analytic(n, d, mode=mode, completion_seed=seed).u
    rng = np.random.Generator(np.random.Philox(key=seed))
    np.testing.assert_array_equal(u[:, k:], rng.standard_normal((n, d - k)))


def _reference_orthonormalize_from(u, k):
    # the completion as it was built with an N x GS_BLOCK projection product
    # and a copy of each block's rows
    for j0 in range(k, u.shape[1], eigen.GS_BLOCK):
        block, done = u[:, j0:j0 + eigen.GS_BLOCK], u[:, :j0]
        for _ in range(2):
            block -= done @ (done.T @ block)
        rows = block.T.copy()
        for i, row in enumerate(rows):
            for _ in range(2):
                row -= (rows[:i] @ row) @ rows[:i]
            row /= np.linalg.norm(row)
            if row[np.argmax(np.abs(row))] < 0:
                row *= -1.0
        block[...] = rows.T


@pytest.mark.parametrize("mode", ["linear", "log"])
@pytest.mark.parametrize("draw_rows", [7, 1024])
@pytest.mark.parametrize("n, d", [(50, 9), (1000, 33), (2500, 130), (4097, 50)])
def test_analytic_completion_equals_whole_block_reference(monkeypatch, mode, draw_rows, n, d):
    # every block's projection product and rows share one preallocated
    # buffer; each shape ends in a partial DRAW_ROWS chunk of the draw, and
    # in one mode or the other in a partial or one-column Gram-Schmidt
    # block, and the table must not change
    monkeypatch.setattr(eigen, "DRAW_ROWS", draw_rows)
    rows = eigennoise_analytic(n, d, mode=mode, completion_seed=3).rows
    monkeypatch.setattr(eigen, "_orthonormalize_from", _reference_orthonormalize_from)
    assert np.array_equal(rows, eigennoise_analytic(n, d, mode=mode, completion_seed=3).rows)


def test_analytic_rejects_bad_d():
    with pytest.raises(ValueError):
        eigennoise_analytic(4, 5)
    with pytest.raises(ValueError):
        eigennoise_analytic(4, 0)
    with pytest.raises(ValueError):
        eigennoise_analytic(4, 2, mode="cubic")


def test_to_embedding_appends_zero_rows():
    fact = eigennoise_analytic(2, 1, m=1, mode="linear")
    table = to_embedding(fact)
    assert table.rows.shape == (4, 1)
    np.testing.assert_allclose(table.rows[0, 0], 0.8944, atol=5e-5)
    np.testing.assert_allclose(table.rows[1, 0], 0.4472, atol=5e-5)
    np.testing.assert_array_equal(table.rows[2:], np.zeros((2, 1)))


@pytest.mark.parametrize("build", [
    lambda: eigennoise_analytic(30, 5, mode="linear", completion_seed=1),
    lambda: eigennoise_analytic(30, 5, mode="log", completion_seed=1),
    lambda: truncate(dense_eigh(materialize(HarmonicModel(n=30, m=2)).values), 5),
], ids=["analytic-linear", "analytic-log", "truncate"])
def test_to_embedding_shares_the_factor(build):
    # the factor is built in the table's rows: wrapping it copies nothing
    fact = build()
    table = to_embedding(fact)
    assert np.shares_memory(table.rows, fact.u)
    assert table.rows.shape == (32, 5) and (table.n, table.d) == (30, 5)
    np.testing.assert_array_equal(table.rows[:30], fact.u)
    np.testing.assert_array_equal(table.rows[30:], np.zeros((2, 5)))


def test_to_embedding_paper_scale_shape():
    fact = eigennoise_analytic(2000, 50, mode="linear")
    table = to_embedding(fact)
    assert table.rows.shape == (2002, 50)
