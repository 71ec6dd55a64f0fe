"""Grid rasterization of piecewise-constant trajectories.

Each cell value is the length-weighted average of the step function over the
cell, an exact integral.  On a grid that refines the trajectory every cell
lies inside one segment, so the average is the segment value itself, bit for
bit.
"""
from __future__ import annotations

import numpy as np

# pieces x states handled per pass; bounds the temporaries at about 0.5 MB each
_BLOCK_VALUES = 1 << 16


def _cell_sums(breaks_list, values_list, nodes: np.ndarray) -> np.ndarray:
    """(n, q, m) integrals of each item's step functions over each cell, in one pass.

    Item i's pieces are the intervals between consecutive points of the
    union of its breakpoints and the grid nodes.  Each piece adds
    length * segment value to its cell, in time order per item, so every
    sum is accumulated in the same order, and to the same bits, as a loop
    over items would.
    """
    n, m = len(breaks_list), nodes.size - 1
    values = np.concatenate(values_list)
    q = values.shape[1]
    counts = np.array([b.size for b in breaks_list])
    # every item's breakpoints and the nodes, sorted by (item, time) with a
    # breakpoint ahead of an equal node; duplicates then keep the breakpoint
    t = np.concatenate([*breaks_list, np.tile(nodes, n)])
    item = np.concatenate([np.repeat(np.arange(n), counts), np.repeat(np.arange(n), m + 1)])
    is_break = np.arange(t.size) < counts.sum()
    order = np.lexsort((~is_break, t, item))
    t, item, is_break = t[order], item[order], is_break[order]
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = (t[1:] != t[:-1]) | (item[1:] != item[:-1])
    t, item, is_break = t[keep], item[keep], is_break[keep]
    # piece p runs from t[p] to t[p + 1] inside one item; item i's segment k
    # is row k + (breakpoints of items before i) - i of ``values``
    piece = item[:-1] == item[1:]
    segment = (np.cumsum(is_break) - 1 - item)[:-1][piece]
    cell = np.searchsorted(nodes, t[:-1][piece], side="right") - 1
    contrib = np.diff(t)[piece][:, None] * values[segment]
    bins = (item[:-1][piece] * (q * m) + cell)[:, None] + np.arange(0, q * m, m)
    sums = np.bincount(bins.ravel(), weights=contrib.ravel(), minlength=n * q * m)
    return sums.reshape(n, q, m)


def batch_cell_averages(breaks_list, values_list, nodes) -> np.ndarray:
    """Rasterize a whole panel, a bounded block of items per pass; returns (n, q, m)."""
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    n, m = len(breaks_list), nodes.size - 1
    q = values_list[0].shape[1]
    out = np.empty((n, q, m))
    step = max(1, _BLOCK_VALUES // ((m + 1) * q))
    for i in range(0, n, step):
        out[i:i + step] = _cell_sums(breaks_list[i:i + step], values_list[i:i + step], nodes)
    out /= np.diff(nodes)
    return out
