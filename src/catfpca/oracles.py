"""References the tests and ``oracle-check`` compare the library against; small panels only.

The dense reference is built from production ``panel_cell_values``: the
(q*m, q*m) covariance kernel G (:func:`estimate_field`), the operator
matrix S = D^{1/2} G D^{1/2} (:func:`assemble_operator`) and the deviation
of G from a result's spectral expansion (:func:`mercer_check`).
``run_mfpca`` never forms G.  The naive oracles share no code with
production: trajectories are evaluated pointwise at cell midpoints, moments
are accumulated in explicit Python loops, and eigenvalues come from a
hand-rolled cyclic Jacobi iteration instead of LAPACK.  Slow on purpose.
Consistency experiments measure simulated panels against :class:`TwoStateTruth`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .estimation import WeightScheme, mean_on_grid, panel_cell_values
from .ingest import Panel
from .mfpca import MfpcaResult, _weight_diag
from .simulate import ProcessSpec, simulate_panel
from .trajectory import CellGrid, StateSpace

__all__ = [
    "ProbabilityField", "estimate_field", "assemble_operator", "mercer_check",
    "oracle_covariance", "naive_operator_matrix", "jacobi_eigenvalues",
    "TwoStateTruth", "consistency_experiment", "median_errors",
]


@dataclass(frozen=True, eq=False, repr=False)
class ProbabilityField:
    """Mean curves p_j and covariance kernels gamma_jl on a cell grid.

    ``cov_matrix`` is the flat (q*m, q*m) kernel with block index j*m + a;
    ``cov`` exposes the same memory as a (q, q, m, m) view indexed
    (j, l, a, b).  Both arrays are read-only.
    """

    grid: CellGrid
    space: StateSpace
    mean: np.ndarray
    cov_matrix: np.ndarray
    n: int
    mode: str

    def __post_init__(self):
        q, m = self.q, self.m
        mean = np.asarray(self.mean, dtype=np.float64)
        cov_matrix = np.asarray(self.cov_matrix, dtype=np.float64)
        if mean.shape != (q, m):
            raise ValidationError(f"mean must have shape {(q, m)}, got {mean.shape}")
        if cov_matrix.shape != (q * m, q * m):
            raise ValidationError(
                f"cov_matrix must have shape {(q * m, q * m)}, got {cov_matrix.shape}"
            )
        mean.setflags(write=False)
        cov_matrix.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov_matrix", cov_matrix)
        object.__setattr__(self, "n", int(self.n))

    @property
    def q(self) -> int:
        return self.space.q

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def cov(self) -> np.ndarray:
        """(q, q, m, m) zero-copy view with entry (j, l, a, b) = gamma_jl(cell a, cell b)."""
        q, m = self.q, self.m
        return self.cov_matrix.reshape(q, m, q, m).transpose(0, 2, 1, 3)

    @property
    def variance_diagonal(self) -> np.ndarray:
        """(q, m) curve of gamma_jj(t, t) values."""
        return np.diagonal(self.cov_matrix).reshape(self.q, self.m).copy()

    def __repr__(self) -> str:
        return f"ProbabilityField(q={self.q}, m={self.m}, n={self.n}, mode={self.mode})"


def estimate_field(panel: Panel, grid: Optional[CellGrid] = None, *,
                   exact: bool = True) -> ProbabilityField:
    """Mean curves and the q x q x m x m covariance kernel of the cell values (1/n convention).

    ``grid`` defaults to the panel's union grid, on which the estimate is
    exact; ``exact`` is passed to ``panel_cell_values``, and the default
    requires the grid to refine every trajectory.
    """
    if grid is None:
        grid = panel.grid()
    Z = panel_cell_values(panel, grid, exact=exact)
    n, q, m = Z.shape
    flat = Z.reshape(n, q * m)
    mean = flat.mean(axis=0)
    cov = flat.T @ flat / n
    cov -= np.outer(mean, mean)
    return ProbabilityField(grid, panel.space, mean.reshape(q, m), cov, n, panel.mode)


def assemble_operator(field: ProbabilityField, weights: WeightScheme) -> np.ndarray:
    """Symmetrized operator matrix S = D^{1/2} G D^{1/2}, positive semidefinite."""
    if weights.q != field.q:
        raise ValidationError(f"weights are for q={weights.q} states, field has q={field.q}")
    G = field.cov_matrix
    if not np.all(np.isfinite(G)):
        raise ValidationError("covariance kernel contains non-finite entries")
    asym = np.abs(G - G.T).max()
    scale = max(1.0, np.abs(G).max())
    if asym > 1e-10 * scale:
        raise NumericalError(f"kernel asymmetry {asym:.3e} exceeds tolerance")
    sq = np.sqrt(_weight_diag(weights, field.grid))
    S = sq[:, None] * G * sq[None, :]
    return 0.5 * (S + S.T)


def mercer_check(result: MfpcaResult, field: ProbabilityField) -> float:
    """Max absolute deviation of the kernel from its spectral expansion.

    A result of ``run_mfpca`` retains every eigenvalue above 1e-12 of the
    largest, so its deviation is rounding; a result cut to fewer components
    deviates by the discarded ones.
    """
    R = result.eigenvalues.size
    qm = field.q * field.m
    phis = result.eigenfunctions.reshape(R, qm)
    recon = (phis * result.eigenvalues[:, None]).T @ phis
    return float(np.abs(field.cov_matrix - recon).max())


def oracle_covariance(panel: Panel, grid: CellGrid) -> ProbabilityField:
    """Brute-force field estimate: midpoint evaluation, loop accumulation."""
    n = panel.n
    q = panel.space.q
    m = grid.m
    mids = [0.5 * (grid.nodes[a] + grid.nodes[a + 1]) for a in range(m)]

    X = np.zeros((n, q * m))
    for i, it in enumerate(panel.items):
        for a in range(m):
            subset = it.trajectory.evaluate(mids[a])
            for j in subset:
                X[i, j * m + a] = 1.0

    K = q * m
    mean = [0.0] * K
    for i in range(n):
        for u in range(K):
            mean[u] += X[i, u]
    for u in range(K):
        mean[u] /= n

    joint = [[0.0] * K for _ in range(K)]
    for i in range(n):
        xi = X[i]
        for u in range(K):
            if xi[u] == 0.0:
                continue
            row = joint[u]
            for v in range(K):
                row[v] += xi[v]
    cov = np.empty((K, K))
    for u in range(K):
        for v in range(K):
            cov[u, v] = joint[u][v] / n - mean[u] * mean[v]

    return ProbabilityField(
        grid, panel.space, np.array(mean).reshape(q, m), cov, n, panel.mode
    )


def naive_operator_matrix(field: ProbabilityField, weights: WeightScheme) -> np.ndarray:
    """S = D^{1/2} G D^{1/2} assembled entry by entry from the 4-d kernel."""
    q, m = field.q, field.m
    cov4 = field.cov  # (j, l, a, b)
    lengths = field.grid.lengths
    w = weights.weights
    S = np.empty((q * m, q * m))
    for j in range(q):
        for a in range(m):
            for l in range(q):
                for b in range(m):
                    S[j * m + a, l * m + b] = (
                        np.sqrt(w[j] * lengths[a])
                        * cov4[j, l, a, b]
                        * np.sqrt(w[l] * lengths[b])
                    )
    return S


def _offdiag_norm(A: np.ndarray) -> float:
    B = A.copy()
    np.fill_diagonal(B, 0.0)
    return float(np.linalg.norm(B))


def jacobi_eigenvalues(A: np.ndarray, max_sweeps: int = 60, tol: float = 1e-13) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Independent of LAPACK; converges quadratically, accurate to ~1e-13
    relative for the well-conditioned PSD matrices it is used on.
    """
    A = np.array(A, dtype=np.float64)
    K = A.shape[0]
    if A.shape != (K, K):
        raise NumericalError("jacobi_eigenvalues needs a square matrix")
    if K == 1:
        return A.ravel().copy()
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(K)
    skip = tol * norm / (2 * K)  # entries this small cannot break convergence
    for _ in range(max_sweeps):
        if _offdiag_norm(A) <= tol * norm:
            break
        for p in range(K - 1):
            for r in range(p + 1, K):
                apr = A[p, r]
                if abs(apr) <= skip:
                    continue
                theta = 0.5 * (A[r, r] - A[p, p]) / apr
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                row_p = A[p, :].copy()
                row_r = A[r, :].copy()
                A[p, :] = c * row_p - s * row_r
                A[r, :] = s * row_p + c * row_r
                col_p = A[:, p].copy()
                col_r = A[:, r].copy()
                A[:, p] = c * col_p - s * col_r
                A[:, r] = s * col_p + c * col_r
    else:
        off = _offdiag_norm(A)
        if off > 1e-8 * norm:
            raise NumericalError(f"Jacobi iteration did not converge (off={off:.3e})")
    return np.sort(np.diag(A))[::-1].copy()


class TwoStateTruth:
    """Closed-form occupancy and joint probabilities of a two-state Markov chain.

    With jump rates a (state 0 -> 1) and b (1 -> 0) and P[Y(0)=0] = p0:
    p_0(t) = pi + (p0 - pi) exp(-rho t) with rho = a + b, pi = b / rho.
    """

    def __init__(self, rate_01: float, rate_10: float, p0: float):
        if rate_01 <= 0 or rate_10 <= 0:
            raise ValidationError("rates must be positive")
        if not (0.0 <= p0 <= 1.0):
            raise ValidationError("p0 must be a probability")
        self.rho = rate_01 + rate_10
        self.pi0 = rate_10 / self.rho
        self.beta = p0 - self.pi0

    @classmethod
    def from_spec(cls, spec: ProcessSpec) -> "TwoStateTruth":
        if spec.q != 2 or spec.mode != "TDS":
            raise ValidationError("analytic truth requires a two-state TDS chain")
        for s in spec.sojourn:
            if s.dist != "exponential":
                raise ValidationError("analytic truth requires exponential sojourns")
        return cls(spec.sojourn[0].rate, spec.sojourn[1].rate, float(spec.initial[0]))

    def p(self, j: int, t) -> np.ndarray:
        p0 = self.pi0 + self.beta * np.exp(-self.rho * np.asarray(t, dtype=np.float64))
        return p0 if j == 0 else 1.0 - p0

    def _transition(self, j: int, l: int, tau) -> np.ndarray:
        """P[Y(s + tau) = l | Y(s) = j] for the stationary jump structure."""
        pi_l = self.pi0 if l == 0 else 1.0 - self.pi0
        delta = 1.0 if j == l else 0.0
        return pi_l + (delta - pi_l) * np.exp(-self.rho * np.asarray(tau, dtype=np.float64))

    def joint(self, j: int, l: int, s, t) -> np.ndarray:
        """p_jl(s, t) elementwise; handles either ordering of s and t."""
        s = np.asarray(s, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        fwd = self.p(j, s) * self._transition(j, l, np.abs(t - s))
        bwd = self.p(l, t) * self._transition(l, j, np.abs(s - t))
        return np.where(s <= t, fwd, bwd)

    def gamma(self, j: int, l: int, s, t) -> np.ndarray:
        return self.joint(j, l, s, t) - self.p(j, np.asarray(s)) * self.p(l, np.asarray(t))

    def _int_p0(self, u0: float, u1: float) -> float:
        pi, b, r = self.pi0, self.beta, self.rho
        return pi * (u1 - u0) + b / r * (math.exp(-r * u0) - math.exp(-r * u1))

    def _int_p0_sq(self, u0: float, u1: float) -> float:
        pi, b, r = self.pi0, self.beta, self.rho
        return (
            pi * pi * (u1 - u0)
            + 2 * pi * b / r * (math.exp(-r * u0) - math.exp(-r * u1))
            + b * b / (2 * r) * (math.exp(-2 * r * u0) - math.exp(-2 * r * u1))
        )

    def mean_error_sq(self, grid: CellGrid, p_hat: np.ndarray, weights: np.ndarray) -> float:
        """Exact ||p_hat - p||_H^2 for a step-function estimate on the grid."""
        total = 0.0
        nodes = grid.nodes
        for a in range(grid.m):
            u0, u1 = nodes[a], nodes[a + 1]
            ip = self._int_p0(u0, u1)
            ip2 = self._int_p0_sq(u0, u1)
            dlt = u1 - u0
            c0 = p_hat[0, a]
            c1 = p_hat[1, a]
            # state 1 curve is 1 - p_0, integrals follow by expansion
            total += weights[0] * (c0 * c0 * dlt - 2 * c0 * ip + ip2)
            total += weights[1] * (c1 * c1 * dlt - 2 * c1 * (dlt - ip) + (dlt - 2 * ip + ip2))
        return total


def _replicate_seed(seed: int, block: int, rep: int) -> int:
    ss = np.random.SeedSequence(entropy=[seed, block, rep])
    return int(ss.generate_state(1, np.uint64)[0])


def consistency_experiment(
    spec: ProcessSpec,
    n_values: Sequence[int],
    seed: int,
    *,
    replicates: int = 20,
    truth: Optional[TwoStateTruth] = None,
    kernel_cells: int = 0,
) -> list[dict]:
    """Estimation errors against the analytic truth for growing sample sizes.

    Returns one row per (n, replicate) with the exact H-norm error of the
    mean curve and, when ``kernel_cells > 0``, the spectral-norm error of
    the assembled covariance matrices on a uniform grid of that many cells
    (truth kernel evaluated at cell midpoints).
    """
    if truth is None:
        truth = TwoStateTruth.from_spec(spec)
    w = np.full(2, 0.5)
    rows = []
    for block, n in enumerate(n_values):
        for rep in range(replicates):
            panel = simulate_panel(spec, n, _replicate_seed(seed, block, rep))
            grid = panel.grid()
            p_hat = mean_on_grid(panel, grid)
            err = math.sqrt(max(truth.mean_error_sq(grid, p_hat, w), 0.0))
            row = {"n": n, "replicate": rep, "mean_error": err}
            if kernel_cells > 0:
                row["kernel_error"] = _kernel_error(panel, truth, kernel_cells, w)
            rows.append(row)
    return rows


def _kernel_error(panel: Panel, truth: TwoStateTruth, cells: int, w: np.ndarray) -> float:
    grid = CellGrid.uniform(cells, float(panel.horizons[0]))
    field_hat = estimate_field(panel, grid, exact=False)
    mid = grid.midpoints
    ss, tt = np.meshgrid(mid, mid, indexing="ij")
    q, m = 2, grid.m
    cov = np.empty((q * m, q * m))
    for j in range(q):
        for l in range(q):
            cov[j * m:(j + 1) * m, l * m:(l + 1) * m] = truth.gamma(j, l, ss, tt)
    field_true = ProbabilityField(
        grid, panel.space,
        np.vstack([truth.p(0, mid), truth.p(1, mid)]),
        0.5 * (cov + cov.T), panel.n, panel.mode,
    )
    scheme = WeightScheme("equal", w)
    diff = assemble_operator(field_hat, scheme) - assemble_operator(field_true, scheme)
    return float(np.abs(np.linalg.eigvalsh(diff)).max())


def median_errors(rows: list[dict], key: str = "mean_error") -> dict[int, float]:
    """Median error per sample size, for rate checks."""
    by_n: dict[int, list[float]] = {}
    for row in rows:
        by_n.setdefault(row["n"], []).append(row[key])
    return {n: float(np.median(v)) for n, v in sorted(by_n.items())}
