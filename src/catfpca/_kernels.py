"""Grid rasterization of a panel's step functions, read from its flat encoding.

A panel of n trajectories is encoded as flat arrays (``ingest._flat``): all
breakpoints, item after item; the segment count of each item; the number of
states active on each segment; and the state of every (segment, state)
membership, segment after segment.  State j of an item is the 0/1 step
function that is 1 on the segments holding j.

Each cell value is the length-weighted average of that step function over the
cell, an exact integral.  On a grid that refines the trajectory every cell
lies inside one segment, so the average is the segment value itself, bit for
bit.
"""
from __future__ import annotations

import numpy as np

# pieces x states handled per pass; bounds the temporaries at about 0.5 MB each
_BLOCK_VALUES = 1 << 16


def _cell_sums(breakpoints, counts, sizes, states, q: int, nodes: np.ndarray) -> np.ndarray:
    """(n, q, m) integrals of each item's step functions over each cell, in one pass.

    Item i's pieces are the intervals between consecutive points of the
    union of its breakpoints and the grid nodes.  Each piece adds its length
    to every state of its segment's subset, in time order per item, so every
    sum is accumulated in the same order, and to the same bits, as a loop
    over items would.
    """
    n, m = counts.size, nodes.size - 1
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
    # one entry per (piece, state of its segment), piece after piece; a
    # segment's states start at the exclusive cumulative sum of ``sizes``
    members = sizes[segment]
    first = (np.cumsum(sizes) - sizes)[segment] - (np.cumsum(members) - members)
    entry = np.arange(members.sum()) + np.repeat(first, members)
    bins = np.repeat(item[:-1][piece] * (q * m) + cell, members) + states[entry] * m
    lengths = np.repeat(np.diff(t)[piece], members)
    return np.bincount(bins, weights=lengths, minlength=n * q * m).reshape(n, q, m)


def batch_cell_averages(breakpoints, counts, sizes, states, q: int, nodes) -> np.ndarray:
    """Rasterize a whole panel from its flat encoding, a bounded block of items per pass.

    ``breakpoints`` holds counts[i] + 1 breakpoints per item, ``sizes`` one
    entry per segment and ``states`` one per (segment, state) membership;
    returns the (n, q, m) cell averages.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    n, m = counts.size, nodes.size - 1
    segment_at = np.concatenate([[0], np.cumsum(counts)])
    member_at = np.concatenate([[0], np.cumsum(sizes)])
    out = np.empty((n, q, m))
    step = max(1, _BLOCK_VALUES // ((m + 1) * q))
    for i in range(0, n, step):
        j = min(i + step, n)
        s, e = segment_at[i], segment_at[j]
        out[i:j] = _cell_sums(breakpoints[s + i:e + j], counts[i:j], sizes[s:e],
                              states[member_at[s]:member_at[e]], q, nodes)
    out /= np.diff(nodes)
    return out
