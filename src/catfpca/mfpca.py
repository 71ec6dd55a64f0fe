"""Weighted multivariate functional PCA via an exact finite-dimensional reduction.

Every sample path is piecewise constant on the cell grid.  With Z the
(n, q*m) matrix of cell values, p its column mean and D the diagonal of
w_j * delta_a over the block index (j, a), the empirical covariance
operator is exactly represented by A^T A / n with

    A = (Z - p) D^{1/2}.

Its nonzero spectrum is also that of the n x n matrix A A^T / n (the
kernel-PCA identity), so one symmetric eigensolve of the smaller Gram
matrix gives the whole decomposition: the primal A^T A when q*m <= n, the
dual A A^T otherwise.  Eigenvalues are mu / n, eigenfunction cell values
D^{-1/2} V and scores A V = U sqrt(mu).  Only eigenvalues above 1e-12 of
lambda_1, at most n - 1 of them, are retained (see :func:`eigendecompose`);
in the dual, eigenfunctions far below lambda_1 are re-orthonormalized.  The
dense (q*m, q*m) kernel is never formed, and the cost is
O(n * q*m * min(n, q*m)).  The dense kernel and the operator matrix the
tests compare against live in ``oracles``.

Memory: after the eigh, the decomposition holds A, the (R, q*m)
eigenfunction block and one (n, R) block of eigenvectors, which becomes the
scores in place; one pass over bounded row blocks scales and sign-fixes the
eigenfunctions and gives their importance.  numpy's eigh needs, beyond its
(N, N) input and output, its own workspace of about 2 N^2 doubles, N = min(n, q*m).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ValidationError
from .estimation import WeightScheme, compute_weights, panel_cell_values
from .ingest import Panel
from .trajectory import CellGrid

__all__ = [
    "MfpcaResult",
    "eigendecompose",
    "reconstruct",
    "run_mfpca",
]

# relative spectral cut of the retained eigenvalues
_EIG_RTOL = 1e-12
# dual-form components below this fraction of the largest eigenvalue are
# re-orthonormalized (see eigendecompose)
_DUAL_RTOL = 1e-4
# entries within this fraction of an eigenfunction's largest |value| tie for its sign pivot
_PIVOT_RTOL = 1e-10
# values of an (R, q*m) block reduced per pass; bounds each temporary at about 0.5 MB
_BLOCK_VALUES = 1 << 16


def _weight_diag(weights: WeightScheme, grid: CellGrid) -> np.ndarray:
    """Diagonal of D over the flat block index (j, a) = j*m + a."""
    return (weights.weights[:, None] * grid.lengths[None, :]).ravel()


def eigendecompose(
    A: np.ndarray,
    weights: WeightScheme,
    grid: CellGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Descending eigenvalues, eigenfunction blocks, scores and importance from one eigh.

    The solve is ``eigh`` of the smaller Gram matrix of A (p = q*m):

    - primal, p <= n: ``A^T A = V diag(mu) V^T``, eigenfunction cell values
      D^{-1/2} V and scores A V;
    - dual, p > n: ``A A^T = U diag(mu) U^T``, scores U sqrt(mu) and
      eigenfunctions from the normalized columns of A^T U.

    Either way the eigenvalues are mu / n, with mu clipped at 0.  The Gram
    matrix and the products with A cost O(n * p * min(n, p)), and the eigh
    O(min(n, p)^3), which is no more.

    In the dual, A^T u_r / sqrt(mu_r) is H-orthogonal to the other
    components only to about eps * lambda_1 / lambda_r, so every retained
    component below 1e-4 of lambda_1 is projected off all larger ones twice
    and the block is orthonormalized by QR; its scores are then A V.

    Retention: the eigenvalues above 1e-12 of the largest are kept, at most
    n - 1 of them (the rank bound of an n-sample empirical operator); none
    when the largest is 0.  Below the cut, eigh's eigenvalues are at the
    level of its rounding error, so their components are not determined.

    Parameters
    ----------
    A : (n, q*m) centred cell values scaled by the square root of the
        weight diagonal of ``weights`` on ``grid``.

    Returns
    -------
    (eigenvalues (R,), eigenfunctions (R, q, m), scores (n, R), importance (R, q))

    One pass over bounded row blocks finishes the eigenfunctions: each block
    is divided by sqrt(d), sign-fixed with its score columns so its first
    entry within 1e-10 (relative) of its largest absolute value is positive,
    and reduced to its importance rows ``w_j * ||phi_rj||^2``.  Eigenfunctions
    are orthonormal under the weighted inner product, so each importance row
    sums to 1.
    """
    n, p = A.shape
    primal = p <= n
    mu, vecs = np.linalg.eigh(A.T @ A if primal else A @ A.T)
    mu = np.maximum(mu[::-1], 0.0)
    evals = mu / n
    R = int(np.count_nonzero(evals > _EIG_RTOL * evals[0])) if evals[0] > 0 else 0
    R = min(R, n - 1)

    # the R leading eigenvectors are copied once and eigh's (N, N) array is
    # dropped before any product with A
    if primal:
        phis = vecs[:, ::-1][:, :R].T.copy()
        del vecs
        scores = A @ phis.T
    else:
        scores = vecs[:, ::-1][:, :R].copy()
        del vecs
        phis = _dual_pairs(A, scores, mu[:R])
    root_d = np.sqrt(_weight_diag(weights, grid))
    imp = np.empty((R, weights.q))
    for rows in _row_blocks(R, p):
        block = phis[rows]
        block /= root_d
        # deterministic sign: the first cell entry within _PIVOT_RTOL of the largest |value|
        # made positive, so entries that tie up to rounding cannot flip the component
        size = np.abs(block)
        pivot = (size >= size.max(axis=1, keepdims=True) * (1 - _PIVOT_RTOL)).argmax(axis=1)
        del size  # before the block's square is made
        sign = np.where(block[np.arange(block.shape[0]), pivot] < 0, -1.0, 1.0)
        block *= sign[:, None]
        scores[:, rows] *= sign
        imp[rows] = block.reshape(-1, weights.q, grid.m) ** 2 @ grid.lengths * weights.weights
    return evals[:R], phis.reshape(R, weights.q, grid.m), scores, imp


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of consecutive rows, at most _BLOCK_VALUES values (and one row) each."""
    step = max(1, _BLOCK_VALUES // width)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _dual_pairs(A: np.ndarray, U: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvector rows (R, p) from eigenvectors U of A A^T; U becomes the scores.

    U (n, R) is overwritten with the scores U sqrt(mu), re-computed as A V
    for the re-orthonormalized rows.
    """
    phis = U.T @ A
    U *= np.sqrt(mu)
    big = int(np.count_nonzero(mu >= _DUAL_RTOL * mu[0])) if mu.size else 0
    for rows in _row_blocks(big, A.shape[1]):
        phis[rows] /= np.linalg.norm(phis[rows], axis=1)[:, None]
    if big < mu.size:
        _orthonormalize_tail(phis, big)
        np.matmul(A, phis[big:].T, out=U[:, big:])
    return phis


def _orthonormalize_tail(phis: np.ndarray, lo: int) -> None:
    """Rebuild rows lo: of ``phis`` orthonormal to the rows above them, in place.

    The rows go in row blocks of at most _BLOCK_VALUES values, so no
    temporary holds more than a block: each block is projected off every row
    above it twice (classical Gram-Schmidt twice is orthogonal to working
    precision), then orthonormalized by QR.  A tail of one block is the whole
    tail's QR; past one block the last bits depend on the block size.
    """
    for rows in _row_blocks(phis.shape[0] - lo, phis.shape[1]):
        above, block = phis[:lo + rows.start], phis[lo + rows.start:lo + rows.stop]
        for _ in range(2):
            block -= (block @ above.T) @ above
        block[:] = np.linalg.qr(block.T)[0].T


def reconstruct(result: "MfpcaResult", i: int, k: int) -> np.ndarray:
    """Rank-k Karhunen-Loeve reconstruction of trajectory i, shape (q, m).

    k = 0 returns the mean curves; values are real, not 0/1.
    """
    R = result.eigenvalues.size
    if not (0 <= k <= R):
        raise DomainError(f"truncation order k={k} outside [0, {R}]")
    if not (0 <= i < result.scores.shape[0]):
        raise DomainError(f"trajectory index {i} outside the panel")
    out = result.mean.copy()
    for r in range(k):
        out += result.scores[i, r] * result.eigenfunctions[r]
    return out


@dataclass(frozen=True)
class MfpcaResult:
    """Everything the decomposition produces, on one grid with one weighting."""

    eigenvalues: np.ndarray        # (R,) descending, >= 0
    eigenfunctions: np.ndarray     # (R, q, m) cell values
    scores: np.ndarray             # (n, R)
    importance: np.ndarray         # (R, q)
    total_variance: float          # sum of all eigenvalues = weighted trace
    mean: np.ndarray               # (q, m)
    variance: np.ndarray           # (q, m) variance of each cell value
    weights: WeightScheme
    grid: CellGrid
    mode: str
    states: tuple
    items: tuple                   # ((subject, condition), ...)

    @property
    def variance_proportions(self) -> np.ndarray:
        if self.total_variance <= 0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / self.total_variance

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def R(self) -> int:
        return self.eigenvalues.size

    def components_for_fraction(self, fraction: float) -> int:
        """Smallest k whose retained variance reaches the given fraction."""
        if not (0.0 < fraction <= 1.0):
            raise DomainError(f"variance fraction must be in (0, 1], got {fraction}")
        if self.total_variance <= 0 or self.R == 0:
            return 0
        cum = np.cumsum(self.variance_proportions)
        hit = np.nonzero(cum >= fraction - 1e-15)[0]
        return int(hit[0]) + 1 if hit.size else self.R


def run_mfpca(
    panel: Panel,
    *,
    scheme: str = "equal",
    weights: Optional[WeightScheme] = None,
    grid: Optional[CellGrid] = None,
) -> MfpcaResult:
    """Full pipeline: cell values -> weights -> one Gram eigensolve -> result.

    The eigensolve is ``eigh`` of A^T A when q*m <= n and of A A^T
    otherwise, at O(n * q*m * min(n, q*m)); see :func:`eigendecompose`.

    ``grid`` defaults to the panel's union grid, on which the decomposition
    is exact.  On another grid cell values are exact length-weighted
    averages (an L2 projection).
    """
    if grid is None:
        grid = panel.grid()
    Z = panel_cell_values(panel, grid)
    n, q, m = Z.shape
    # centred and weighted in place: A shares Z's memory, no second n x q*m copy
    A = Z.reshape(n, q * m)
    mean = A.mean(axis=0)
    A -= mean
    variance = np.einsum("ij,ij->j", A, A) / n
    if weights is None:
        weights = compute_weights(mean.reshape(q, m), variance.reshape(q, m), grid, panel.space,
                                  scheme)
    elif weights.q != q:
        raise ValidationError(f"weights are for q={weights.q} states, panel has q={q}")
    d = _weight_diag(weights, grid)
    A *= np.sqrt(d)
    total_variance = float(np.sum(variance * d))  # no BLAS: the same at every thread count
    evals, phis, scores, imp = eigendecompose(A, weights, grid)
    return MfpcaResult(
        eigenvalues=evals,
        eigenfunctions=phis,
        scores=scores,
        importance=imp,
        total_variance=total_variance,
        mean=mean.reshape(q, m),
        variance=variance.reshape(q, m),
        weights=weights,
        grid=grid,
        mode=panel.mode,
        states=panel.space.states,
        items=panel.keys,
    )
