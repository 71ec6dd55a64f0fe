"""Rasterization: exact on refining grids, integral-preserving on any grid."""
import numpy as np
import pytest

from catfpca import _kernels, panel_cell_values
from catfpca.trajectory import CellGrid

from conftest import random_panel


def test_exact_cells_are_binary_on_refining_grids(rng):
    panel = random_panel(rng, "TCATA", n=6, q=3)
    Z = panel_cell_values(panel, panel.grid())
    assert set(np.unique(Z)) <= {0.0, 1.0}


def test_cell_averages_integrate_exactly(rng):
    # averaging onto any grid preserves the integral of each indicator
    panel = random_panel(rng, "TCATA", n=6, q=3)
    coarse = CellGrid.uniform(7)
    Z = panel_cell_values(panel, coarse)
    for traj, avg in zip(panel.trajectories, Z):
        integral_coarse = avg @ coarse.lengths
        integral_exact = segment_values(traj, panel.space.q).T @ np.diff(traj.breakpoints)
        assert np.abs(integral_coarse - integral_exact).max() <= 1e-14


def segment_values(traj, q):
    """(segments, q) 0/1 values: entry (k, j) is 1 when segment k holds state j."""
    values = np.zeros((traj.n_segments, q))
    for k, subset in enumerate(traj.segments):
        values[k, list(subset)] = 1.0
    return values


def per_item_cell_averages(breaks, values, nodes):
    """Reference: one trajectory at a time, pieces added to cells in time order."""
    merged = np.union1d(breaks, nodes)
    seg_idx = np.searchsorted(breaks, merged[:-1], side="right") - 1
    cell_idx = np.searchsorted(nodes, merged[:-1], side="right") - 1
    out = np.zeros((nodes.size - 1, values.shape[1]))
    np.add.at(out, cell_idx, np.diff(merged)[:, None] * values[seg_idx])
    out /= np.diff(nodes)[:, None]
    return out.T


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_panel_rasterization_equals_per_item_reference(rng, monkeypatch, mode):
    panel = random_panel(rng, mode, n=40, q=4)
    union = panel.grid()
    grids = [
        union,                                                    # refining
        CellGrid(np.union1d(union.nodes, np.linspace(0.0, 1.0, 9))),  # refining, finer
        CellGrid.uniform(7),                                      # not refining
        CellGrid(np.sort(np.concatenate([[0.0, 1.0], rng.random(30)]))),
        # not refining, breakpoints on nodes: the span search's sides matter
        CellGrid(np.append(union.nodes[:-1:2], 1.0)),             # every other union node
        CellGrid([0.0, 1.0]),                                     # one cell
        CellGrid(np.union1d(union.nodes[::3], np.linspace(0.0, 1.0, 5))),
    ]
    q = panel.space.q
    breaks = [traj.breakpoints for traj in panel.trajectories]
    values = [segment_values(traj, q) for traj in panel.trajectories]
    arrays = panel.breakpoints, panel.counts, panel.active
    for block in (None, 1):
        if block is not None:  # one item per pass
            monkeypatch.setattr(_kernels, "_BLOCK_VALUES", block)
        for grid in grids:
            got = _kernels.batch_cell_averages(*arrays, grid.nodes)
            want = np.stack([per_item_cell_averages(b, v, grid.nodes)
                             for b, v in zip(breaks, values)])
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    exact = _kernels.batch_cell_averages(*arrays, union.nodes)
    assert set(np.unique(exact)) <= {0.0, 1.0}
