"""Grid rasterization of a panel's step functions, read from its runs.

State j of an item is the 0/1 step function that is 1 on the state's
maximal on-runs, the ``(item, state, onset, offset)`` arrays that a
``Panel`` stores and ``Panel.runs()`` returns without a copy.  Each cell
value is the length-weighted average of that step function over the cell,
an exact integral.  A run [a, b) meets a contiguous span of cells, and each
(run, cell) piece adds |[a, b) ∩ cell| to its state.  On a grid that refines
the trajectory every cell lies inside one run or outside all of them, so the
value is exactly 0 or 1.  On any other grid a run that spans several
segments within one cell is added as one piece, so such a cell can differ in
its last bit from a sum over the segments.
"""
from __future__ import annotations

import numpy as np

# pieces per pass, counting (m + 1) * q per item; bounds the temporaries at about 0.5 MB each
_BLOCK_VALUES = 1 << 16


def batch_cell_averages(runs, n: int, q: int, nodes) -> np.ndarray:
    """Rasterize a whole panel from its runs, a bounded block of items per pass.

    ``runs`` is ``(item, state, onset, offset)`` ordered by item, state and
    onset, as ``Panel.runs()`` returns it; returns the (n, q, m) cell
    averages.  Each cell adds its pieces in onset order, to the same bits as a
    loop over items gives.
    """
    item, state, onset, offset = runs
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    m = nodes.size - 1
    first = np.searchsorted(nodes, onset, side="right") - 1
    span = np.searchsorted(nodes, offset, side="left") - first
    # pieces end[r] to end[r + 1] are run r's, piece p lies in cell p + shift[r]
    end = np.concatenate([[0], np.cumsum(span)])
    shift = first - end[:-1]
    row = item * q + state  # the (item, state) row of the output each run adds to
    out = np.empty((n, q, m))
    step = max(1, _BLOCK_VALUES // ((m + 1) * q))
    for i in range(0, n, step):
        j = min(i + step, n)
        s, e = np.searchsorted(item, [i, j])
        run = np.repeat(np.arange(s, e), span[s:e])
        cell = np.arange(end[s], end[e]) + shift[run]
        lengths = np.minimum(offset[run], nodes[cell + 1]) - np.maximum(onset[run], nodes[cell])
        bins = (row[run] - i * q) * m + cell
        out[i:j] = np.bincount(bins, lengths, (j - i) * q * m).reshape(j - i, q, m)
    out /= np.diff(nodes)
    return out
