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


def state_runs(traj, q):
    """(state, onset, offset) of each maximal on-run, by state and onset."""
    breaks, found = traj.breakpoints, []
    for j in range(q):
        on = [j in subset for subset in traj.segments]
        for k, holds in enumerate(on):
            if holds and (k == 0 or not on[k - 1]):
                stop = k
                while stop + 1 < len(on) and on[stop + 1]:
                    stop += 1
                found.append((j, breaks[k], breaks[stop + 1]))
    return found


def per_item_run_averages(traj, q, nodes):
    """Reference: one trajectory at a time, each run's pieces added to cells in onset order."""
    out = np.zeros((q, nodes.size - 1))
    for j, onset, offset in state_runs(traj, q):
        cuts = np.concatenate([[onset], nodes[(nodes > onset) & (nodes < offset)], [offset]])
        np.add.at(out[j], np.searchsorted(nodes, cuts[:-1], side="right") - 1, np.diff(cuts))
    return out / np.diff(nodes)


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_panel_rasterization_equals_per_item_reference(rng, monkeypatch, mode):
    panel = random_panel(rng, mode, n=40, q=4)
    union = panel.grid()
    refining = [
        union,
        CellGrid(np.union1d(union.nodes, np.linspace(0.0, 1.0, 9))),  # finer
    ]
    coarse = [
        CellGrid.uniform(7),
        CellGrid(np.sort(np.concatenate([[0.0, 1.0], rng.random(30)]))),
        # breakpoints on nodes: the span search's sides matter
        CellGrid(np.append(union.nodes[:-1:2], 1.0)),             # every other union node
        CellGrid([0.0, 1.0]),                                     # one cell
        CellGrid(np.union1d(union.nodes[::3], np.linspace(0.0, 1.0, 5))),
    ]
    q, trajectories = panel.space.q, panel.trajectories
    values = [segment_values(traj, q) for traj in trajectories]
    for block in (None, 1):
        if block is not None:  # one item per pass
            monkeypatch.setattr(_kernels, "_BLOCK_VALUES", block)
        for grid in refining + coarse:
            got = _kernels.batch_cell_averages(panel.runs(), panel.n, q, grid.nodes)
            want = np.stack([per_item_run_averages(traj, q, grid.nodes) for traj in trajectories])
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            if mode == "TDS" or grid in refining:  # runs add the same pieces as segments
                by_segment = np.stack([per_item_cell_averages(traj.breakpoints, v, grid.nodes)
                                       for traj, v in zip(trajectories, values)])
                assert np.array_equal(got.view(np.int64), by_segment.view(np.int64))
    exact = _kernels.batch_cell_averages(panel.runs(), panel.n, q, union.nodes)
    assert set(np.unique(exact)) <= {0.0, 1.0}
