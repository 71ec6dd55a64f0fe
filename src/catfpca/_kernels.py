"""Grid rasterization of piecewise-constant trajectories.

Each cell value is the length-weighted average of the step function over the
cell, an exact integral.  On a grid that refines the trajectory every cell
lies inside one segment, so the average is the segment value itself, bit for
bit.
"""
from __future__ import annotations

import numpy as np


def _cell_averages(breaks: np.ndarray, values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(q, m) length-weighted averages of one step function over grid cells."""
    m = nodes.size - 1
    merged = np.union1d(breaks, nodes)
    lens = np.diff(merged)
    seg_idx = np.searchsorted(breaks, merged[:-1], side="right") - 1
    cell_idx = np.searchsorted(nodes, merged[:-1], side="right") - 1
    contrib = lens[:, None] * values[seg_idx]
    out = np.zeros((m, values.shape[1]))
    np.add.at(out, cell_idx, contrib)
    out /= np.diff(nodes)[:, None]
    return out.T


def batch_cell_averages(breaks_list, values_list, nodes) -> np.ndarray:
    """Rasterize a whole panel at once; returns (n, q, m)."""
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    q = values_list[0].shape[1]
    out = np.empty((len(breaks_list), q, nodes.size - 1))
    for i, (b, v) in enumerate(zip(breaks_list, values_list)):
        out[i] = _cell_averages(b, v, nodes)
    return out
