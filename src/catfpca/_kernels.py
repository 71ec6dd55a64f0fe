"""Grid rasterization of a panel's step functions, read from its flat arrays.

A ``Panel`` of n items stores all breakpoints, item after item; the segment
count of each item; and a (segments, q) bool matrix of the states on over
each segment.  State j of an item is the 0/1 step function that is 1 on the
segments whose row holds j.

Each cell value is the length-weighted average of that step function over the
cell, an exact integral.  On a grid that refines the trajectory every cell
lies inside one segment, so the average is the segment value itself, bit for
bit.
"""
from __future__ import annotations

import numpy as np

# pieces x states handled per pass; bounds the temporaries at about 0.5 MB each
_BLOCK_VALUES = 1 << 16


def _cell_sums(breakpoints, counts, active, nodes: np.ndarray) -> np.ndarray:
    """(n, q, m) integrals of each item's step functions over each cell, in one pass.

    Item i's pieces are the intervals between consecutive points of the
    union of its breakpoints and the grid nodes.  Each piece adds its length
    to every state on over its segment, in time order per item, so every
    sum is accumulated in the same order, and to the same bits, as a loop
    over items would.
    """
    n, q, m = counts.size, active.shape[1], nodes.size - 1
    # every item's breakpoints and the nodes, sorted by (item, time) with a
    # breakpoint ahead of an equal node; duplicates then keep the breakpoint
    t = np.concatenate([breakpoints, np.tile(nodes, n)])
    item = np.concatenate([np.repeat(np.arange(n), counts + 1), np.repeat(np.arange(n), m + 1)])
    is_break = np.arange(t.size) < breakpoints.size
    order = np.lexsort((~is_break, t, item))
    t, item, is_break = t[order], item[order], is_break[order]
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = (t[1:] != t[:-1]) | (item[1:] != item[:-1])
    t, item, is_break = t[keep], item[keep], is_break[keep]
    # piece p runs from t[p] to t[p + 1] inside one item; item i's segment k
    # is segment k + (segments of items before i) of the block
    piece = item[:-1] == item[1:]
    segment = (np.cumsum(is_break) - 1 - item)[:-1][piece]
    cell = np.searchsorted(nodes, t[:-1][piece], side="right") - 1
    # one entry per (piece, state on over its segment), piece after piece; take and a
    # flat index run several times faster here than fancy indexing and a 2-d nonzero
    entry, state = np.divmod(np.flatnonzero(active.take(segment, axis=0)), q)
    bins = (item[:-1][piece] * (q * m) + cell)[entry] + state * m
    lengths = np.diff(t)[piece][entry]
    return np.bincount(bins, weights=lengths, minlength=n * q * m).reshape(n, q, m)


def batch_cell_averages(breakpoints, counts, active, nodes) -> np.ndarray:
    """Rasterize a whole panel from its flat arrays, a bounded block of items per pass.

    ``breakpoints`` holds counts[i] + 1 breakpoints per item and ``active``
    one (q,) row per segment; returns the (n, q, m) cell averages.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    n, q, m = counts.size, active.shape[1], nodes.size - 1
    segment_at = np.concatenate([[0], np.cumsum(counts)])
    out = np.empty((n, q, m))
    step = max(1, _BLOCK_VALUES // ((m + 1) * q))
    for i in range(0, n, step):
        j = min(i + step, n)
        s, e = segment_at[i], segment_at[j]
        out[i:j] = _cell_sums(breakpoints[s + i:e + j], counts[i:j], active[s:e], nodes)
    out /= np.diff(nodes)
    return out
