"""Grid rasterization of a panel's step functions, read from its flat arrays.

A ``Panel`` of n items stores all breakpoints, item after item; the segment
count of each item; and a (segments, q) bool matrix of the states on over
each segment.  State j of an item is the 0/1 step function that is 1 on the
segments whose row holds j.

Each cell value is the length-weighted average of that step function over the
cell, an exact integral.  A segment [a, b) meets a contiguous span of cells,
and each (segment, cell) piece adds |[a, b) ∩ cell| to the states on over the
segment.  On a grid that refines the trajectory every cell lies inside one
segment, so the average is the segment value itself, bit for bit.
"""
from __future__ import annotations

import numpy as np

# pieces x states handled per pass; bounds the temporaries at about 0.5 MB each
_BLOCK_VALUES = 1 << 16


def batch_cell_averages(breakpoints, counts, active, nodes) -> np.ndarray:
    """Rasterize a whole panel from its flat arrays, a bounded block of items per pass.

    ``breakpoints`` holds counts[i] + 1 breakpoints per item and ``active``
    one (q,) row per segment; returns the (n, q, m) cell averages.  Pieces
    are added in time order, to the same bits as a loop over items gives.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    n, q, m = counts.size, active.shape[1], nodes.size - 1
    # segment s of item owner[s] runs from breakpoint s + owner[s] to the next one
    owner = np.repeat(np.arange(n), counts)
    left = np.arange(owner.size) + owner
    a, b = breakpoints[left], breakpoints[left + 1]
    first = np.searchsorted(nodes, a, side="right") - 1
    span = np.searchsorted(nodes, b, side="left") - first
    # pieces end[s] to end[s + 1] are segment s's, piece p lies in cell p + shift[s]
    end = np.concatenate([[0], np.cumsum(span)])
    shift = first - end[:-1]
    out = np.empty((n, q, m))
    step = max(1, _BLOCK_VALUES // ((m + 1) * q))
    for i in range(0, n, step):
        j = min(i + step, n)
        s, e = np.searchsorted(owner, [i, j])
        segment = np.repeat(np.arange(s, e), span[s:e])
        cell = np.arange(end[s], end[e]) + shift[segment]
        lengths = np.minimum(b[segment], nodes[cell + 1]) - np.maximum(a[segment], nodes[cell])
        # one entry per (piece, state on over its segment), piece after piece; take and a
        # flat index run several times faster here than fancy indexing and a 2-d nonzero
        entry, state = np.divmod(np.flatnonzero(active.take(segment, axis=0)), q)
        bins = ((owner[segment] - i) * (q * m) + cell)[entry] + state * m
        out[i:j] = np.bincount(bins, lengths[entry], (j - i) * q * m).reshape(j - i, q, m)
    out /= np.diff(nodes)
    return out
