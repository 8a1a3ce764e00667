"""Reference co-occurrence factorization objectives with analytic gradients.

Two losses over word/context factors U, V:

* the full weighted objective with row/column biases a, b against log
  counts (weight f(x) = min(1, (x/x_max)^alpha), zero cells skipped),
  with GloVe's x_max = 100 and alpha = 3/4 (``DEFAULT_X_MAX`` and
  ``DEFAULT_ALPHA``, read at each call);
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


@dataclass
class BiasFreeModel:
    u: np.ndarray  # (N, d)
    v: np.ndarray  # (N, d)


def glove_weight(x: np.ndarray) -> np.ndarray:
    """f(x) = min(1, (x/x_max)^alpha), with f(0) = 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        w = np.where(x > 0, np.minimum(1.0, (x / DEFAULT_X_MAX) ** DEFAULT_ALPHA), 0.0)
    return w


def _check_finite(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError("model parameters must be finite")


def _eq1(model: GloVeFullModel, x: CoocMatrix) -> tuple[float, np.ndarray]:
    """Loss (1) and its derivative with respect to each cell's prediction."""
    _check_finite(model.u, model.v, model.a, model.b)
    counts = x.values
    mask = counts > 0
    w = glove_weight(counts)
    pred = model.u @ model.v.T + model.a[:, None] + model.b[None, :]
    logx = np.zeros_like(counts)
    logx[mask] = np.log(counts[mask])
    err = np.where(mask, pred - logx, 0.0)
    return float((w * err**2).sum()), 2.0 * w * err


def _eq2(model: BiasFreeModel, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss (2) and its derivative with respect to each cell's prediction."""
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
        return float((resid**2).sum()), 2.0 * resid


def _grads(model: "GloVeFullModel | BiasFreeModel",
           dpred: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients from the derivative with respect to U V^T (+ biases)."""
    grads = {"u": dpred @ model.v, "v": dpred.T @ model.u}
    if isinstance(model, GloVeFullModel):
        grads.update(a=dpred.sum(axis=1), b=dpred.sum(axis=0))
    return grads


def loss_eq1(model: GloVeFullModel, x: CoocMatrix) -> float:
    """Weighted squared error of u_i.v_j + a_i + b_j against log counts.

    Cells with zero counts are skipped, matching training on positive
    observations only.
    """
    return _eq1(model, x)[0]


def grad_eq1(model: GloVeFullModel, x: CoocMatrix) -> dict[str, np.ndarray]:
    return _grads(model, _eq1(model, x)[1])


def loss_eq2(model: BiasFreeModel, target: np.ndarray) -> float:
    """Unweighted squared error of U V^T against a dense target."""
    return _eq2(model, target)[0]


def grad_eq2(model: BiasFreeModel, target: np.ndarray) -> dict[str, np.ndarray]:
    """d/dU = 2 (U V^T - T) V and symmetrically for V."""
    return _grads(model, _eq2(model, target)[1])


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
    # drawn in field order: u, v, then the biases a, b for eq1
    shapes = [(n, d), (n, d)] + ([n, n] if objective == "eq1" else [])
    params = [rng.uniform(-0.5 / d, 0.5 / d, shape) for shape in shapes]
    model, objective_fn = ((GloVeFullModel(*params), _eq1) if objective == "eq1"
                           else (BiasFreeModel(*params), _eq2))

    # each pass gives the loss at the current parameters and the residual
    # their gradients come from: one U V^T per step
    loss, dpred = objective_fn(model, data)
    trace = [loss]
    for step in range(steps):
        for name, g in _grads(model, dpred).items():
            setattr(model, name, getattr(model, name) - learning_rate * g)
        loss, dpred = objective_fn(model, data)
        if not np.isfinite(loss):
            raise ArithmeticError(f"training diverged at step {step + 1}")
        trace.append(loss)
    return TrainResult(model=model, trace=trace)
