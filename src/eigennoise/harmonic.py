"""Closed-form independent co-occurrence model over Zipfian ranks.

Joint frequency for ranks i, j is ``2*m*N / (i*j*H_N)``: each token
self-samples ``2m`` window partners from the Zipf unigram model, so rows
marginalize to ``2*m*N/i`` and the model is exactly independent (its PMI
is identically zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_WINDOW

#: The largest N that is materialized densely, read at each call.
DENSE_CAP = 4096


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, summed in ascending k for determinism."""
    if n < 1:
        raise ValueError(f"harmonic_number requires n >= 1, got {n}")
    total = 0.0
    for k in range(1, n + 1):
        total += 1.0 / k
    return total


@dataclass(frozen=True)
class HarmonicModel:
    """Value object for the rank co-occurrence model: size N, window m."""

    n: int
    m: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vocabulary size must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"window half-width must be >= 1, got {self.m}")

    @property
    def scale(self) -> float:
        """Common factor 2*m*N/H_N of every entry."""
        return 2.0 * self.m * self.n / harmonic_number(self.n)


@dataclass(frozen=True)
class CoocMatrix:
    """Dense co-occurrence counts; the marginals are derived from them."""

    values: np.ndarray  # (N, N), non-negative

    @classmethod
    def from_values(cls, values: np.ndarray) -> "CoocMatrix":
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"co-occurrence matrix must be square, got {values.shape}")
        if (values < 0).any():
            raise ValueError("co-occurrence entries must be non-negative")
        return cls(values=values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def row_marginals(self) -> np.ndarray:
        return self.values.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.values.sum(axis=0)

    @property
    def total(self) -> float:
        return float(self.row_marginals.sum())


def check_dense(n: int) -> None:
    """Refuse an N x N dense array for N above ``DENSE_CAP``."""
    if n > DENSE_CAP:
        raise ValueError(f"N={n} exceeds the dense cap {DENSE_CAP}; "
                         "use the analytic eigen path (eigen.eigennoise_analytic)")


def materialize(model: HarmonicModel) -> CoocMatrix:
    """Dense N x N matrix of the model.

    Only feasible for small N; larger vocabularies should stay on the
    analytic path (eigen.eigennoise_analytic), which never materializes.
    """
    check_dense(model.n)
    inv_rank = 1.0 / np.arange(1, model.n + 1, dtype=float)
    values = model.scale * np.outer(inv_rank, inv_rank)
    return CoocMatrix.from_values(values)


def materialize_log(model: HarmonicModel) -> np.ndarray:
    """Dense matrix of log joint frequencies (the factorization target)."""
    check_dense(model.n)
    log_rank = np.log(np.arange(1, model.n + 1, dtype=float))
    return math.log(model.scale) - log_rank[:, None] - log_rank[None, :]


def pmi_matrix(c: CoocMatrix, k: float = 1.0) -> np.ndarray:
    """Shifted PMI over all cells (brute-force diagnostic; small N only)."""
    if (c.values <= 0).any():
        raise ValueError("PMI matrix requires an everywhere-positive input")
    return np.log(c.values * c.total) - np.log(
        np.outer(c.row_marginals, c.col_marginals) * k
    )
