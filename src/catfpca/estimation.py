"""Cell values, mean probability curves and weighting schemes.

Everything is computed exactly on a cell grid from the panel's runs, the
maximal on-runs of each state that a ``Panel`` stores and ``Panel.runs()``
returns: when the grid refines all sample paths (the union grid, whose
nodes are every run endpoint, does by construction), cell values are the
constant 0/1 segment values and every time integral is a finite sum with
no quadrature error.  The dense covariance kernel is not built here;
``oracles.estimate_field`` builds it from :func:`panel_cell_values` as a
reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import GridError, ValidationError
from .ingest import Panel
from .trajectory import CellGrid, StateSpace

__all__ = [
    "WeightScheme",
    "WEIGHT_SCHEMES",
    "panel_cell_values",
    "mean_on_grid",
    "compute_weights",
    "selection_count_curve",
]

WEIGHT_SCHEMES = ("equal", "trace_normalizing", "inverse_mean_probability")


@dataclass(frozen=True)
class WeightScheme:
    """The q positive weights defining the inner product, plus their provenance."""

    scheme: str
    weights: np.ndarray

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
        return cls("equal", np.full(q, 1.0 / q))


def _keys(panel: Panel, mask: np.ndarray) -> str:
    return ", ".join(map(panel.key, np.flatnonzero(mask)[:5].tolist()))


def _check_horizon(panel: Panel, grid: CellGrid) -> None:
    """ValidationError for an empty panel, GridError for an item off the grid's horizon."""
    if panel.n < 1:
        raise ValidationError("need at least one trajectory")
    off_horizon = panel.horizons != grid.horizon
    if off_horizon.any():
        raise GridError(f"items with horizon != {grid.horizon}: {_keys(panel, off_horizon)}")


def _not_refined(panel: Panel, grid: CellGrid) -> np.ndarray:
    """Which items the grid does not refine, after _check_horizon: those with a run endpoint
    off the grid's nodes."""
    _check_horizon(panel, grid)
    item, _, onset, offset = panel.runs()
    nodes = grid.nodes
    off_grid = [item[nodes[np.searchsorted(nodes, t)] != t]  # every t <= the horizon, nodes[-1]
                for t in (onset, offset)]
    return np.isin(np.arange(panel.n), np.concatenate(off_grid))


def panel_cell_values(panel: Panel, grid: CellGrid, *, exact: bool = False) -> np.ndarray:
    """Cell values of every item's 0/1 state functions, shape (n, q, m).

    Values are length-weighted cell averages, i.e. the L2 projection onto
    step functions on the grid; on a grid that refines every trajectory
    they are the constant 0/1 segment values.  ``exact=True`` requires such
    a grid (GridError otherwise).
    """
    if not exact:
        _check_horizon(panel, grid)
    elif (not_refined := _not_refined(panel, grid)).any():
        raise GridError(f"grid is not a refinement of: {_keys(panel, not_refined)}")
    return _kernels.batch_cell_averages(panel.runs(), panel.n, panel.space.q, grid.nodes)


def mean_on_grid(panel: Panel, grid: CellGrid) -> np.ndarray:
    """(q, m) mean curves via run accumulation, without the dense tensor.

    Exact-integer accumulation: each run of ``Panel.runs()`` adds +1 at its
    onset's node and -1 at its offset's, and a cumulative sum over the nodes
    recovers occupancy counts.  Requires the grid to refine the panel.
    """
    not_refined = _not_refined(panel, grid)
    if not_refined.any():
        raise GridError(f"{panel.key(int(np.argmax(not_refined)))}: breakpoints are not grid nodes")
    q, m = panel.space.q, grid.m
    _, state, onset, offset = panel.runs()
    at = state * (m + 1)
    diff = np.bincount(np.concatenate([at + np.searchsorted(grid.nodes, onset),
                                       at + np.searchsorted(grid.nodes, offset)]),
                       weights=np.repeat([1.0, -1.0], state.size), minlength=q * (m + 1))
    return np.cumsum(diff.reshape(q, m + 1)[:, :-1], axis=1) / panel.n


def compute_weights(mean: np.ndarray, variance: np.ndarray, grid: CellGrid, space: StateSpace,
                    scheme: str) -> WeightScheme:
    """Weights for the inner product from the (q, m) mean and variance curves on ``grid``.

    equal: w_j = 1/q.  trace_normalizing: w_j is the reciprocal of the
    integrated variance of state j's cell values, which gives every
    per-state covariance operator unit trace on any grid.
    inverse_mean_probability: w_j is the reciprocal of the average
    probability of occurrence.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValidationError(f"unknown weight scheme {scheme!r}; choose from {WEIGHT_SCHEMES}")
    if scheme == "equal":
        return WeightScheme.equal(space.q)
    if scheme == "trace_normalizing":
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
    return WeightScheme(scheme, 1.0 / integrals)


def selection_count_curve(result) -> tuple[CellGrid, np.ndarray]:
    """Mean number of simultaneously selected states over time, on the grid of ``result``.

    ``result`` carries (q, m) mean curves on a grid: an MfpcaResult, or the
    reference ``oracles.ProbabilityField``.  Identically 1 for TDS; for
    TCATA it varies in [0, q].
    """
    return result.grid, result.mean.sum(axis=0)
