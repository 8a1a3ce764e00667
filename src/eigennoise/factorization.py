"""Reference co-occurrence factorization objectives with analytic gradients.

Two losses over word/context factors U, V:

* the full weighted objective with row/column biases a, b against log
  counts (weight f(x) = min(1, (x/x_max)^alpha), zero cells skipped);
* the bias-free unweighted objective sum (u_i . v_j - target_ij)^2
  against a dense log-frequency target.

A small deterministic full-batch gradient-descent trainer verifies the
eigen solution and the bias-terms-learn-the-marginals behavior at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonic import CoocMatrix

DEFAULT_X_MAX = 100.0
DEFAULT_ALPHA = 0.75


@dataclass
class GloVeFullModel:
    u: np.ndarray  # (N, d)
    v: np.ndarray  # (N, d)
    a: np.ndarray  # (N,) row biases
    b: np.ndarray  # (N,) column biases
    x_max: float = DEFAULT_X_MAX
    alpha: float = DEFAULT_ALPHA


@dataclass
class BiasFreeModel:
    u: np.ndarray  # (N, d)
    v: np.ndarray  # (N, d)


def glove_weight(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    """f(x) = min(1, (x/x_max)^alpha), with f(0) = 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        w = np.where(x > 0, np.minimum(1.0, (x / x_max) ** alpha), 0.0)
    return w


def _check_finite(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError("model parameters must be finite")


def loss_eq1(model: GloVeFullModel, x: CoocMatrix) -> float:
    """Weighted squared error of u_i.v_j + a_i + b_j against log counts.

    Cells with zero counts are skipped, matching training on positive
    observations only.
    """
    _check_finite(model.u, model.v, model.a, model.b)
    counts = x.values
    mask = counts > 0
    w = glove_weight(counts, model.x_max, model.alpha)
    pred = model.u @ model.v.T + model.a[:, None] + model.b[None, :]
    logx = np.zeros_like(counts)
    logx[mask] = np.log(counts[mask])
    err = np.where(mask, pred - logx, 0.0)
    return float((w * err**2).sum())


def grad_eq1(model: GloVeFullModel, x: CoocMatrix) -> dict[str, np.ndarray]:
    _check_finite(model.u, model.v, model.a, model.b)
    counts = x.values
    mask = counts > 0
    w = glove_weight(counts, model.x_max, model.alpha)
    pred = model.u @ model.v.T + model.a[:, None] + model.b[None, :]
    logx = np.zeros_like(counts)
    logx[mask] = np.log(counts[mask])
    werr = 2.0 * w * np.where(mask, pred - logx, 0.0)
    return {
        "u": werr @ model.v,
        "v": werr.T @ model.u,
        "a": werr.sum(axis=1),
        "b": werr.sum(axis=0),
    }


def loss_eq2(model: BiasFreeModel, target: np.ndarray) -> float:
    """Unweighted squared error of U V^T against a dense target."""
    _check_finite(model.u, model.v)
    target = np.asarray(target, dtype=float)
    if not np.isfinite(target).all():
        raise ValueError("target must be finite")
    if target.shape != (model.u.shape[0], model.v.shape[0]):
        raise ValueError(
            f"target shape {target.shape} does not match factors "
            f"({model.u.shape[0]}, {model.v.shape[0]})"
        )
    resid = model.u @ model.v.T - target
    with np.errstate(over="ignore"):  # divergence shows up as inf, caller checks
        return float((resid**2).sum())


def grad_eq2(model: BiasFreeModel, target: np.ndarray) -> dict[str, np.ndarray]:
    """d/dU = 2 (U V^T - T) V and symmetrically for V."""
    _check_finite(model.u, model.v)
    target = np.asarray(target, dtype=float)
    if target.shape != (model.u.shape[0], model.v.shape[0]):
        raise ValueError(
            f"target shape {target.shape} does not match factors "
            f"({model.u.shape[0]}, {model.v.shape[0]})"
        )
    resid = 2.0 * (model.u @ model.v.T - target)
    return {"u": resid @ model.v, "v": resid.T @ model.u}


@dataclass
class TrainResult:
    model: "GloVeFullModel | BiasFreeModel"
    trace: list[float]  # loss at initialization, then after every step


def train_factorization(
    objective: str,
    data: "CoocMatrix | np.ndarray",
    d: int,
    steps: int = 1000,
    learning_rate: float = 0.01,
    seed: int = 0,
    x_max: float = DEFAULT_X_MAX,
    alpha: float = DEFAULT_ALPHA,
) -> TrainResult:
    """Gradient-descent training of either objective on a dense instance.

    Deterministic per seed; all parameters initialize from a seeded
    uniform(-0.5/d, 0.5/d). The loss is recorded after every step.
    """
    if objective not in ("eq1", "eq2"):
        raise ValueError(f"objective must be 'eq1' or 'eq2', got {objective!r}")
    if objective == "eq1":
        if not isinstance(data, CoocMatrix):
            data = CoocMatrix.from_values(np.asarray(data, dtype=float))
        n = data.n
    else:
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"eq2 target must be square, got shape {data.shape}")
        n = data.shape[0]
    if n > 256:
        raise ValueError(f"reference trainer is capped at N=256, got N={n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    span = 0.5 / d
    if objective == "eq1":
        model = GloVeFullModel(
            u=rng.uniform(-span, span, (n, d)),
            v=rng.uniform(-span, span, (n, d)),
            a=rng.uniform(-span, span, n),
            b=rng.uniform(-span, span, n),
            x_max=x_max,
            alpha=alpha,
        )
        loss_fn = lambda: loss_eq1(model, data)
        grad_fn = lambda: grad_eq1(model, data)
    else:
        model = BiasFreeModel(
            u=rng.uniform(-span, span, (n, d)),
            v=rng.uniform(-span, span, (n, d)),
        )
        loss_fn = lambda: loss_eq2(model, data)
        grad_fn = lambda: grad_eq2(model, data)

    trace = [loss_fn()]
    for step in range(steps):
        grads = grad_fn()
        for name, g in grads.items():
            setattr(model, name, getattr(model, name) - learning_rate * g)
        loss = loss_fn()
        if not np.isfinite(loss):
            raise ArithmeticError(f"training diverged at step {step + 1}")
        trace.append(loss)
    return TrainResult(model=model, trace=trace)
