"""Eigen-decomposition of the harmonic co-occurrence model.

Two routes to the same factors:

* an analytic construction exploiting the model's low rank (rank 1 in
  linear space, rank 2 in log space), whose degenerate zero-eigenspace
  is filled by a seeded Haar-random orthonormal frame, built in place
  in U_d by blocked Gram-Schmidt; it never forms an N x N array;
* LAPACK's dense symmetric eigensolver, used as the brute-force oracle.

The retained factor U_d (unit eigenvector columns) is the embedding, built
in the first N rows of its table; V_d carries the eigenvalue scaling, is
computed from U_d when read, and is exposed for diagnostics only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .defaults import DEFAULT_WINDOW
from . import harmonic
from .harmonic import HarmonicModel

#: Columns per block of the completion's Gram-Schmidt, chosen by timing
#: 20,000 x 50 and 20,000 x 300 builds: 8 was slower at d=300, 32 slower
#: at d=50. Not an option.
GS_BLOCK = 16
#: Rows of the completion's Gaussian draw made at a time. The values and
#: their order are those of one whole draw, without its N x (d - k)
#: temporary, which raised the peak RSS of a 20,000 x 50 build by ~5 MB.
DRAW_ROWS = 1024
#: The largest asymmetry ``dense_eigh`` accepts.
ASYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class FullDecomposition:
    """All N eigenpairs; eigenvalues descending by value, signs fixed."""

    eigenvalues: np.ndarray  # (N,)
    vectors: np.ndarray  # (N, N), column k pairs with eigenvalues[k]

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class EigenFactorization:
    """d retained eigenpairs: U_d has unit columns, V_d = U_d * diag(eigenvalues)."""

    eigenvalues: np.ndarray  # (d,)
    rows: np.ndarray  # (N + 2, d): U_d, then the zero OOV and PAD rows of the table

    @property
    def u(self) -> np.ndarray:
        """U_d, the first N rows of ``rows``: (N, d)."""
        return self.rows[:-2]

    @property
    def v(self) -> np.ndarray:
        """V_d, computed on each access: (N, d)."""
        return self.u * self.eigenvalues[None, :]


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip columns in place so each one's largest-magnitude entry is positive."""
    for col in vectors.T:
        if col[np.argmax(np.abs(col))] < 0:
            col *= -1.0


def dense_eigh(matrix: np.ndarray) -> FullDecomposition:
    """Dense symmetric eigensolver (LAPACK via ``numpy.linalg.eigh``).

    Rejects non-square input, N above ``harmonic.DENSE_CAP`` and asymmetry
    above ``ASYMMETRY_TOL``, then decomposes the symmetrised matrix. This
    is the brute-force oracle the analytic construction is checked against.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    harmonic.check_dense(n)
    asym = float(np.abs(a - a.T).max()) if n > 1 else 0.0
    if asym > ASYMMETRY_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds tolerance {ASYMMETRY_TOL:.3e}")
    values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-values, kind="stable")
    vectors = vectors[:, order]
    _fix_signs(vectors)
    return FullDecomposition(eigenvalues=values[order], vectors=vectors)


def _by_magnitude(values: np.ndarray) -> np.ndarray:
    """Indices of ``values`` by descending magnitude, ties in index order."""
    return np.argsort(-np.abs(values), kind="stable")


def truncate(full: FullDecomposition, d: int) -> EigenFactorization:
    """Retain the d eigenpairs of largest eigenvalue magnitude."""
    if not 1 <= d <= full.n:
        raise ValueError(f"d={d} outside 1..{full.n}")
    keep = _by_magnitude(full.eigenvalues)[:d]
    rows = np.zeros((full.n + 2, d))
    rows[:-2] = full.vectors[:, keep]
    return EigenFactorization(eigenvalues=full.eigenvalues[keep], rows=rows)


def _log_mode_pairs(model: HarmonicModel) -> tuple[np.ndarray, np.ndarray]:
    """Exact nonzero eigenpairs of the log-frequency matrix.

    That matrix is alpha*J - beta 1^T - 1 beta^T with beta_i = log i, so
    its range lies in span{1, beta}: project onto an orthonormal basis of
    that plane, solve the 2x2 problem in closed form, and lift back.
    """
    n = model.n
    alpha = math.log(model.scale)
    if n == 1:
        return np.array([alpha]), np.array([[1.0]])
    beta = np.log(np.arange(1, n + 1, dtype=float))
    ones = np.ones(n)
    q1 = ones / math.sqrt(n)
    centered = beta - beta.mean()
    q2 = centered / np.linalg.norm(centered)

    def apply(vec: np.ndarray) -> np.ndarray:
        s1 = vec.sum()
        sb = beta @ vec
        return (alpha * s1 - sb) * ones - s1 * beta

    t11 = q1 @ apply(q1)
    t12 = q1 @ apply(q2)
    t22 = q2 @ apply(q2)
    half_tr = 0.5 * (t11 + t22)
    rad = math.hypot(0.5 * (t11 - t22), t12)
    values = np.array([half_tr + rad, half_tr - rad])
    vectors = np.empty((n, 2))
    for k, lam in enumerate(values):
        # t12 = -|beta - mean(beta)| sqrt(n) <= -log 2 for n >= 2, so w is never 0
        w = np.array([t12, lam - t11])
        w = w / np.linalg.norm(w)
        vectors[:, k] = w[0] * q1 + w[1] * q2
    return values, vectors


def _orthonormalize_from(u: np.ndarray, k: int) -> None:
    """Make columns k.. of ``u`` orthonormal in place, given orthonormal
    columns 0..k-1.

    Blocked classical Gram-Schmidt, applied twice (CGS2). Each block of
    ``GS_BLOCK`` columns is projected twice off every earlier column with
    one matrix product. The block is then copied to contiguous rows; each
    row is projected twice off the rows before it and normalized, and the
    rows are sign-fixed (``_fix_signs``) and written back. Flipping a
    finished row leaves later rows' bits as they are: (-r.x)(-r) = (r.x)r.
    On Gaussian columns this gives the Q of a thin QR whose R has a
    positive diagonal: a Haar-random frame of the complement (Mezzadri,
    arXiv:math-ph/0609050). Cost O(N * d^2). Both buffers are allocated
    once: one ``GS_BLOCK`` x N buffer holds each block's projection
    product and then its rows, and one N-vector each row's projection.
    """
    n = u.shape[0]
    scratch, vec = np.empty(GS_BLOCK * n), np.empty(n)
    for j0 in range(k, u.shape[1], GS_BLOCK):
        block, done = u[:, j0:j0 + GS_BLOCK], u[:, :j0]
        width = block.shape[1]
        product = scratch[:n * width].reshape(n, width)
        for _ in range(2):
            block -= np.matmul(done, done.T @ block, out=product)
        rows = scratch[:width * n].reshape(width, n)
        rows[...] = block.T
        for i, row in enumerate(rows):
            for _ in range(2):
                row -= np.matmul(rows[:i] @ row, rows[:i], out=vec)
            row /= np.linalg.norm(row)
        _fix_signs(rows.T)
        block[...] = rows.T


def eigennoise_analytic(
    n: int,
    d: int,
    m: int = DEFAULT_WINDOW,
    mode: str = "linear",
    completion_seed: int = 0,
) -> EigenFactorization:
    """EigenNoise factors without materializing the N x N matrix.

    Linear mode: the model is rank 1, so column 1 of U_d is the
    normalized inverse-rank vector with eigenvalue (2mN/H_N) * sum 1/i^2.
    Log mode: the two nonzero eigenpairs of the rank-2 log matrix fill
    columns 1-2, ordered by magnitude. All remaining columns are
    an orthonormal frame of the zero eigenspace drawn from the Haar
    distribution by ``completion_seed``: the same seed gives the same
    table. The (N+2) x d table is allocated once; the model columns and a
    Philox Gaussian draw are written into its first N rows (U_d),
    ``DRAW_ROWS`` rows at a time, and the draw is orthonormalized in place
    (``_orthonormalize_from``). Nothing N x N is formed; cost O(N*d^2)
    time, O(N*d) memory: the table and one ``GS_BLOCK`` x N buffer.
    """
    completion_seed = operator.index(completion_seed)  # None would unseed Philox
    if not 1 <= d <= n:
        raise ValueError(f"d={d} outside 1..{n}")
    model = HarmonicModel(n=n, m=m)
    if mode == "linear":
        z = 1.0 / np.arange(1, n + 1, dtype=float)
        values = np.array([model.scale * float(z @ z)])
        vectors = (z / np.linalg.norm(z))[:, None]
    elif mode == "log":
        values, vectors = _log_mode_pairs(model)
    else:
        raise ValueError(f"mode must be 'linear' or 'log', got {mode!r}")
    order = _by_magnitude(values)
    k = min(len(values), d)
    values = np.concatenate([values[order[:k]], np.zeros(d - k)])
    rows = np.zeros((n + 2, d))
    u = rows[:n]
    u[:, :k] = vectors[:, order[:k]]
    _fix_signs(u[:, :k])
    if d > k:
        rng = np.random.Generator(np.random.Philox(key=completion_seed))
        for r0 in range(0, n, DRAW_ROWS):  # the stream of one (n, d - k) draw
            u[r0:r0 + DRAW_ROWS, k:] = rng.standard_normal((min(DRAW_ROWS, n - r0), d - k))
        _orthonormalize_from(u, k)
    return EigenFactorization(eigenvalues=values, rows=rows)


def to_embedding(fact: EigenFactorization) -> EmbeddingTable:
    """The embedding table over ``fact.rows``, which it shares: no copy."""
    return EmbeddingTable(rows=fact.rows)
