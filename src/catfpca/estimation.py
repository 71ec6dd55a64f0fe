"""Empirical probability curves, covariance kernels and weighting schemes.

Everything is computed exactly on a cell grid from the panel's flat
encoding (``ingest._flat``: breakpoints, segment counts and (segment,
state) memberships): when the grid refines all sample paths (the union grid
does by construction), cell values are the constant 0/1 segment values and
every time integral is a finite sum with no quadrature error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import GridError, ValidationError
from .ingest import Panel, _flat, _grid_misfits
from .trajectory import CellGrid, StateSpace

__all__ = [
    "ProbabilityField",
    "WeightScheme",
    "WEIGHT_SCHEMES",
    "panel_cell_values",
    "estimate_field",
    "mean_on_grid",
    "compute_weights",
    "selection_count_curve",
]

WEIGHT_SCHEMES = ("equal", "trace_normalizing", "inverse_mean_probability")

_SCHEME_ALIASES = {
    "equal": "equal",
    "e": "equal",
    "trace_normalizing": "trace_normalizing",
    "trace": "trace_normalizing",
    "inverse_mean_probability": "inverse_mean_probability",
    "invmean": "inverse_mean_probability",
    "pmean": "inverse_mean_probability",
}


class ProbabilityField:
    """Mean curves p_j and covariance kernels gamma_jl on a cell grid.

    ``cov_matrix`` is the flat (q*m, q*m) kernel with block index j*m + a;
    ``cov`` exposes the same memory as a (q, q, m, m) view indexed
    (j, l, a, b).
    """

    __slots__ = ("grid", "space", "mean", "cov_matrix", "n", "mode")

    def __init__(self, grid: CellGrid, space: StateSpace, mean: np.ndarray,
                 cov_matrix: np.ndarray, n: int, mode: str):
        q, m = space.q, grid.m
        mean = np.asarray(mean, dtype=np.float64)
        cov_matrix = np.asarray(cov_matrix, dtype=np.float64)
        if mean.shape != (q, m):
            raise ValidationError(f"mean must have shape {(q, m)}, got {mean.shape}")
        if cov_matrix.shape != (q * m, q * m):
            raise ValidationError(
                f"cov_matrix must have shape {(q * m, q * m)}, got {cov_matrix.shape}"
            )
        mean.setflags(write=False)
        cov_matrix.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov_matrix", cov_matrix)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("ProbabilityField is immutable")

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
        diag = np.diagonal(self.cov_matrix).reshape(self.q, self.m)
        return diag.copy()

    def __repr__(self) -> str:
        return f"ProbabilityField(q={self.q}, m={self.m}, n={self.n}, mode={self.mode})"


@dataclass(frozen=True)
class WeightScheme:
    """The q positive weights defining the inner product, plus their provenance."""

    scheme: str
    weights: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be a 1-d array of positive finite reals")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def q(self) -> int:
        return self.weights.size

    @property
    def normalized_weights(self) -> np.ndarray:
        """Weights rescaled to sum to one, the form used in reports."""
        return self.weights / self.weights.sum()

    @classmethod
    def equal(cls, q: int) -> "WeightScheme":
        return cls("equal", np.full(q, 1.0 / q), normalized=True)

    def scaled(self, c: float) -> "WeightScheme":
        return WeightScheme(self.scheme, self.weights * c, normalized=False)


def _keys(panel: Panel, mask: np.ndarray) -> str:
    return ", ".join(panel.items[i].key for i in np.flatnonzero(mask)[:5])


def _flat_on(panel: Panel, grid: CellGrid) -> tuple[tuple, np.ndarray]:
    """The panel's flat encoding and which items the grid does not refine.

    Items whose horizon is not the grid's raise GridError.
    """
    if panel.n < 1:
        raise ValidationError("need at least one trajectory")
    flat = _flat(panel.trajectories)
    breakpoints, _, counts, _, _ = flat
    off_horizon, not_refined = _grid_misfits(breakpoints, counts, grid.nodes)
    if off_horizon.any():
        raise GridError(f"items with horizon != {grid.horizon}: {_keys(panel, off_horizon)}")
    return flat, not_refined


def panel_cell_values(panel: Panel, grid: CellGrid, *, exact: Optional[bool] = None) -> np.ndarray:
    """Cell values of every item's 0/1 state functions, shape (n, q, m).

    Values are length-weighted cell averages, i.e. the L2 projection onto
    step functions on the grid; on a grid that refines every trajectory
    they are the constant 0/1 segment values.  ``exact=True`` requires such
    a grid (GridError otherwise).
    """
    (breakpoints, _, counts, sizes, states), not_refined = _flat_on(panel, grid)
    if exact is True and not_refined.any():
        raise GridError(f"grid is not a refinement of: {_keys(panel, not_refined)}")
    return _kernels.batch_cell_averages(breakpoints, counts, sizes, states, panel.space.q,
                                        grid.nodes)


def estimate_field(panel: Panel, grid: Optional[CellGrid] = None, *,
                   exact: Optional[bool] = True) -> ProbabilityField:
    """Estimate mean curves and the q x q x m x m covariance kernel (1/n convention).

    Parameters
    ----------
    panel : Panel
        Normalized panel (shared horizon).
    grid : CellGrid, optional
        Defaults to the panel's union grid, on which the estimate is exact.
    exact : bool or None
        Passed to :func:`panel_cell_values`; the default requires the grid
        to refine every trajectory.
    """
    if grid is None:
        grid = panel.grid()
        exact = True
    Z = panel_cell_values(panel, grid, exact=exact)
    n, q, m = Z.shape
    flat = Z.reshape(n, q * m)
    mean_flat = flat.mean(axis=0)
    cov = flat.T @ flat / n
    cov -= np.outer(mean_flat, mean_flat)
    return ProbabilityField(grid, panel.space, mean_flat.reshape(q, m), cov, n, panel.mode)


def mean_on_grid(panel: Panel, grid: CellGrid) -> np.ndarray:
    """(q, m) mean curves via segment accumulation, without the dense tensor.

    Exact-integer accumulation: each (segment, state) membership adds +1 at
    the segment's first node and -1 at its last, and a cumulative sum over
    the nodes recovers occupancy counts.  Requires the grid to refine the
    panel.
    """
    (breakpoints, _, counts, sizes, states), not_refined = _flat_on(panel, grid)
    if not_refined.any():
        raise GridError(f"{panel.items[np.argmax(not_refined)].key}: breakpoints are not grid nodes")
    q, m = panel.space.q, grid.m
    node = np.searchsorted(grid.nodes, breakpoints)
    # each membership's segment: segment s of item i runs from breakpoint s + i to s + i + 1
    left = np.repeat(np.arange(sizes.size) + np.repeat(np.arange(panel.n), counts), sizes)
    at = states * (m + 1)
    diff = np.bincount(np.concatenate([at + node[left], at + node[left + 1]]),
                       weights=np.repeat([1.0, -1.0], left.size), minlength=q * (m + 1))
    return np.cumsum(diff.reshape(q, m + 1)[:, :-1], axis=1) / panel.n


def compute_weights(field: ProbabilityField, scheme: str) -> WeightScheme:
    """Weights for the inner product under one of the three schemes.

    equal: w_j = 1/q.  trace_normalizing: w_j is the reciprocal of the
    integrated variance of state j's cell values, which gives every
    per-state covariance operator unit trace on any grid.
    inverse_mean_probability: w_j is the reciprocal of the average
    probability of occurrence.
    """
    return _weights(field.mean, field.variance_diagonal, field.grid, field.space, scheme)


def _weights(mean: np.ndarray, variance: np.ndarray, grid: CellGrid, space: StateSpace,
             scheme: str) -> WeightScheme:
    """:func:`compute_weights` from the (q, m) mean and variance curves alone."""
    tag = _SCHEME_ALIASES.get(scheme.strip().lower())
    if tag is None:
        raise ValidationError(f"unknown weight scheme {scheme!r}; choose from {WEIGHT_SCHEMES}")
    if tag == "equal":
        return WeightScheme.equal(space.q)
    if tag == "trace_normalizing":
        integrals = variance @ grid.lengths
        kind = "integrated variance"
    else:
        integrals = mean @ grid.lengths
        kind = "mean occupancy"
    bad = np.nonzero(integrals <= 0.0)[0]
    if bad.size:
        labels = ", ".join(space.states[j] for j in bad)
        raise ValidationError(
            f"states with zero {kind}: {labels}; drop them from the state space "
            "or use the equal weight scheme"
        )
    return WeightScheme(tag, 1.0 / integrals, normalized=False)


def selection_count_curve(obj, grid: Optional[CellGrid] = None) -> tuple[CellGrid, np.ndarray]:
    """Mean number of simultaneously selected states over time.

    ``obj`` is a Panel, or anything carrying (q, m) mean curves on a grid
    (a ProbabilityField or an MfpcaResult).  Identically 1 for TDS; for
    TCATA it varies in [0, q].
    """
    if not isinstance(obj, Panel):
        return obj.grid, obj.mean.sum(axis=0)
    if grid is None:
        grid = obj.grid()
    return grid, mean_on_grid(obj, grid).sum(axis=0)
