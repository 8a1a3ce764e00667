import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigennoise import factorization
from eigennoise.eigen import dense_eigh, truncate
from eigennoise.factorization import (
    BiasFreeModel,
    GloVeFullModel,
    glove_weight,
    grad_eq1,
    grad_eq2,
    loss_eq1,
    loss_eq2,
    train_factorization,
)
from eigennoise.harmonic import CoocMatrix, HarmonicModel, materialize_log


def _fd_grad(loss_fn, arr, eps=1e-5):
    """Central finite differences, mutating arr entry by entry."""
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + eps
        hi = loss_fn()
        arr[idx] = orig - eps
        lo = loss_fn()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def _zipf_independent_counts(n, scale=4096.0):
    x = scale / np.arange(1, n + 1)
    return CoocMatrix.from_values(np.outer(x, x) / x.sum())


def test_glove_weight_shape():
    w = glove_weight(np.array([0.0, 1.0, 100.0, 400.0]))
    np.testing.assert_allclose(w, [0.0, 0.01**0.75, 1.0, 1.0], rtol=1e-12)


def test_loss_eq1_zero_cases(monkeypatch):
    x = CoocMatrix.from_values(np.ones((3, 3)))
    model = GloVeFullModel(u=np.zeros((3, 2)), v=np.zeros((3, 2)),
                           a=np.zeros(3), b=np.zeros(3))
    assert loss_eq1(model, x) == 0.0  # ln 1 = 0 everywhere

    monkeypatch.setattr(factorization, "DEFAULT_X_MAX", 1.0)
    x1 = CoocMatrix.from_values(np.array([[math.e]]))
    exact = GloVeFullModel(u=np.array([[1.0]]), v=np.array([[1.0]]),
                           a=np.zeros(1), b=np.zeros(1))
    assert loss_eq1(exact, x1) == pytest.approx(0.0, abs=1e-15)
    cold = GloVeFullModel(u=np.zeros((1, 1)), v=np.zeros((1, 1)),
                          a=np.zeros(1), b=np.zeros(1))
    assert loss_eq1(cold, x1) == pytest.approx(1.0, rel=1e-12)


def test_loss_eq1_skips_zero_cells(monkeypatch):
    monkeypatch.setattr(factorization, "DEFAULT_X_MAX", 1.0)
    x = CoocMatrix.from_values(np.array([[math.e, 0.0], [0.0, math.e]]))
    model = GloVeFullModel(u=np.zeros((2, 1)), v=np.zeros((2, 1)),
                           a=np.zeros(2), b=np.zeros(2))
    assert loss_eq1(model, x) == pytest.approx(2.0, rel=1e-12)


def test_loss_eq1_marginal_biases_are_exact_on_independent_counts():
    c = _zipf_independent_counts(12)
    model = GloVeFullModel(
        u=np.zeros((12, 3)), v=np.zeros((12, 3)),
        a=np.log(c.row_marginals),
        b=np.log(c.col_marginals) - math.log(c.total),
    )
    assert loss_eq1(model, c) == pytest.approx(0.0, abs=1e-9)


def test_loss_eq1_rejects_nonfinite():
    x = CoocMatrix.from_values(np.ones((2, 2)))
    model = GloVeFullModel(u=np.full((2, 1), np.nan), v=np.zeros((2, 1)),
                           a=np.zeros(2), b=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        loss_eq1(model, x)


def test_loss_eq2_zero_and_shape():
    model = BiasFreeModel(u=np.zeros((3, 2)), v=np.zeros((3, 2)))
    assert loss_eq2(model, np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError, match="shape"):
        loss_eq2(model, np.zeros((3, 4)))


def test_loss_eq2_zero_at_full_rank_truncation():
    target = materialize_log(HarmonicModel(n=6, m=2))
    fact = truncate(dense_eigh(target), 6)
    assert loss_eq2(BiasFreeModel(fact.u, fact.v), target) < 1e-9


def test_loss_eq2_eckart_young_residual():
    target = materialize_log(HarmonicModel(n=9, m=5))
    full = dense_eigh(target)
    for d in (1, 2, 4):
        fact = truncate(full, d)
        discarded = np.sort(np.abs(full.eigenvalues))[::-1][d:]
        expected = float((discarded**2).sum())
        got = loss_eq2(BiasFreeModel(fact.u, fact.v), target)
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_grad_eq2_zero_at_origin_and_at_solution():
    target = materialize_log(HarmonicModel(n=5, m=2))
    zero = BiasFreeModel(u=np.zeros((5, 2)), v=np.zeros((5, 2)))
    grads = grad_eq2(zero, np.zeros((5, 5)))
    assert np.abs(grads["u"]).max() == 0.0
    fact = truncate(dense_eigh(target), 5)
    at_solution = grad_eq2(BiasFreeModel(fact.u, fact.v), target)
    assert np.abs(at_solution["u"]).max() < 1e-7
    assert np.abs(at_solution["v"]).max() < 1e-7


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_grad_eq2_matches_finite_differences(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    model = BiasFreeModel(u=rng.standard_normal((n, d)),
                          v=rng.standard_normal((n, d)))
    target = rng.standard_normal((n, n))
    grads = grad_eq2(model, target)
    fd_u = _fd_grad(lambda: loss_eq2(model, target), model.u)
    fd_v = _fd_grad(lambda: loss_eq2(model, target), model.v)
    np.testing.assert_allclose(grads["u"], fd_u, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(grads["v"], fd_v, rtol=1e-5, atol=1e-6)


def test_grad_eq1_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(key=3))
    n, d = 5, 2
    counts = rng.uniform(0.5, 200.0, (n, n))
    counts[0, 1] = 0.0  # exercise the skipped-cell path
    x = CoocMatrix.from_values(counts)
    model = GloVeFullModel(u=rng.standard_normal((n, d)),
                           v=rng.standard_normal((n, d)),
                           a=rng.standard_normal(n),
                           b=rng.standard_normal(n))
    grads = grad_eq1(model, x)
    for name, arr in (("u", model.u), ("v", model.v), ("a", model.a), ("b", model.b)):
        fd = _fd_grad(lambda: loss_eq1(model, x), arr)
        np.testing.assert_allclose(grads[name], fd, rtol=1e-5, atol=1e-6)


def test_train_zero_steps_returns_initialization():
    target = materialize_log(HarmonicModel(n=4, m=2))
    res = train_factorization("eq2", target, d=2, steps=0, seed=5)
    rng = np.random.Generator(np.random.Philox(key=5))
    span = 0.25
    np.testing.assert_array_equal(res.model.u, rng.uniform(-span, span, (4, 2)))
    assert len(res.trace) == 1


def test_train_deterministic_per_seed():
    target = materialize_log(HarmonicModel(n=6, m=3))
    a = train_factorization("eq2", target, d=2, steps=50, seed=9)
    b = train_factorization("eq2", target, d=2, steps=50, seed=9)
    np.testing.assert_array_equal(a.model.u, b.model.u)
    assert a.trace == b.trace
    c = train_factorization("eq2", target, d=2, steps=50, seed=10)
    assert np.abs(a.model.u - c.model.u).max() > 0


def test_train_trailing_window_non_increasing():
    target = materialize_log(HarmonicModel(n=8, m=5))
    res = train_factorization("eq2", target, d=2, steps=400,
                              learning_rate=0.005, seed=0)
    tail = res.trace[-100:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_train_reaches_eigen_optimal_residual():
    target = materialize_log(HarmonicModel(n=8, m=5))
    full = dense_eigh(target)
    for d in (1, 2):
        fact = truncate(full, d)
        opt = loss_eq2(BiasFreeModel(fact.u, fact.v), target)
        res = train_factorization("eq2", target, d=d, steps=3000,
                                  learning_rate=0.005, seed=0)
        assert res.trace[-1] <= 1.05 * opt + 1e-9 * res.trace[0]


def test_trained_model_never_beats_eigen_truncation():
    target = materialize_log(HarmonicModel(n=8, m=5))
    fact = truncate(dense_eigh(target), 1)
    opt = loss_eq2(BiasFreeModel(fact.u, fact.v), target)
    for seed in range(5):
        res = train_factorization("eq2", target, d=1, steps=1500,
                                  learning_rate=0.005, seed=seed)
        assert res.trace[-1] >= opt - 1e-9


def test_train_divergence_reports_step():
    target = materialize_log(HarmonicModel(n=8, m=5))
    with pytest.raises(ArithmeticError, match="step"):
        train_factorization("eq2", target, d=2, steps=200, learning_rate=50.0)


def _two_pass_training(objective, data, d, steps, learning_rate, seed):
    """The trainer's loop written out with a separate gradient and loss pass
    per step, in the order gradient, update, loss."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    span = 0.5 / d
    n = data.values.shape[0] if objective == "eq1" else data.shape[0]
    if objective == "eq1":
        model = GloVeFullModel(*(rng.uniform(-span, span, shape)
                                 for shape in ((n, d), (n, d), n, n)))
        loss_fn, grad_fn = loss_eq1, grad_eq1
    else:
        model = BiasFreeModel(*(rng.uniform(-span, span, (n, d)) for _ in range(2)))
        loss_fn, grad_fn = loss_eq2, grad_eq2
    trace = [loss_fn(model, data)]
    for step in range(steps):
        grads = grad_fn(model, data)
        for name, g in grads.items():
            setattr(model, name, getattr(model, name) - learning_rate * g)
        loss = loss_fn(model, data)
        if not np.isfinite(loss):
            raise ArithmeticError(f"training diverged at step {step + 1}")
        trace.append(loss)
    return model, trace


@pytest.mark.parametrize("objective, data, d, steps, learning_rate", [
    ("eq1", _zipf_independent_counts(16), 4, 300, 0.002),
    ("eq2", materialize_log(HarmonicModel(n=8, m=5)), 2, 300, 0.005),
], ids=["eq1", "eq2"])
def test_train_matches_a_two_pass_loop_bit_for_bit(objective, data, d, steps,
                                                   learning_rate):
    res = train_factorization(objective, data, d=d, steps=steps,
                              learning_rate=learning_rate, seed=7)
    model, trace = _two_pass_training(objective, data, d, steps, learning_rate, seed=7)
    assert res.trace == trace
    for name in vars(model):
        assert np.array_equal(getattr(res.model, name), getattr(model, name)), name


def test_train_diverges_at_the_step_a_two_pass_loop_does():
    target = materialize_log(HarmonicModel(n=8, m=5))
    with pytest.raises(ArithmeticError) as ref:
        _two_pass_training("eq2", target, 2, 200, 50.0, seed=0)
    with pytest.raises(ArithmeticError) as got:
        train_factorization("eq2", target, d=2, steps=200, learning_rate=50.0)
    assert str(got.value) == str(ref.value)


def test_train_eq1_biases_track_log_marginals():
    c = _zipf_independent_counts(16)
    res = train_factorization("eq1", c, d=4, steps=400,
                              learning_rate=0.002, seed=0)
    corr = np.corrcoef(res.model.a, np.log(c.row_marginals))[0, 1]
    assert corr >= 0.95


def test_train_rejects_bad_arguments():
    with pytest.raises(ValueError):
        train_factorization("eq3", np.zeros((2, 2)), d=1)
    with pytest.raises(ValueError):
        train_factorization("eq2", np.zeros((2, 3)), d=1)
    with pytest.raises(ValueError):
        train_factorization("eq2", np.zeros((300, 300)), d=1)
