"""Event-log ingestion: raw click records -> normalized trajectory panels.

TDS records carry an onset only (a dominance lasts until the next click);
TCATA records carry onset/offset pairs per descriptor.  Protocol
normalization shifts TDS trajectories to their first click and rescales
every trajectory to the unit horizon; TCATA keeps its latency.

Both steps make whole-panel array passes.  ``parse_events`` takes the rows
as an ``EventTable`` of columns, checks them all with masks, sorts them once
by (item, onset, row), turns them into state intervals, and overlays the
intervals of every item with one cumulative count.
``apply_protocol_normalization`` shifts, rescales and tick-rounds the
breakpoints of every item in one pass.  Each step constructs each trajectory
once.  When a check fails, the first failing row (input order) or item
(panel order) is checked again on its own, so the error raised is the one a
row-by-row, item-by-item parse meets first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ProtocolError, SchemaError, ValidationError
from .trajectory import CategoricalTrajectory, CellGrid, StateSpace, union_grid

__all__ = [
    "EventRecord",
    "EventTable",
    "PanelItem",
    "Panel",
    "IngestReport",
    "DEFAULT_TICK",
    "parse_events",
    "apply_protocol_normalization",
    "validate_panel",
]

DEFAULT_TICK = 1e-6  # fraction of the unit horizon; applied after rescaling

MODES = ("TDS", "TCATA")


@dataclass(frozen=True)
class EventRecord:
    """One raw click row.  ``offset`` is None for TDS data."""

    subject: str
    condition: str
    state: str
    onset: float
    offset: Optional[float] = None
    row: int = -1  # source row number, for error messages


@dataclass(frozen=True)
class PanelItem:
    subject: str
    condition: str
    trajectory: CategoricalTrajectory

    @property
    def key(self) -> str:
        return f"{self.subject}/{self.condition}"


class Panel:
    """Immutable collection of categorical trajectories with one state space."""

    __slots__ = ("mode", "space", "items")

    def __init__(self, mode: str, space: StateSpace, items: Sequence[PanelItem]):
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "items", tuple(items))
        for it in self.items:
            if it.trajectory.max_state_index() >= space.q:
                raise ValidationError(
                    f"item {it.key}: state index out of range for q={space.q}"
                )

    def __setattr__(self, name, value):
        raise AttributeError("Panel is immutable")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def trajectories(self) -> list[CategoricalTrajectory]:
        return [it.trajectory for it in self.items]

    def grid(self) -> CellGrid:
        return union_grid(self.trajectories)

    def __repr__(self) -> str:
        return f"Panel(mode={self.mode}, n={self.n}, q={self.space.q})"


@dataclass
class IngestReport:
    """Counts and per-state statistics collected while parsing/normalizing."""

    mode: str = ""
    n_rows: int = 0
    n_items: int = 0
    warnings: dict = field(default_factory=lambda: {
        "unclosed_intervals": 0,
        "simultaneous_clicks_dropped": 0,
        "intervals_clipped": 0,
        "intervals_at_end": 0,
    })
    rejected_subjects: list = field(default_factory=list)
    latency: dict = field(default_factory=dict)  # item key -> removed TDS latency
    per_state: dict = field(default_factory=dict)  # label -> {clicks, total_duration}

    @property
    def total_warnings(self) -> int:
        return sum(self.warnings.values())

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_rows": self.n_rows,
            "n_items": self.n_items,
            "warnings": dict(self.warnings),
            "total_warnings": self.total_warnings,
            "rejected_subjects": list(self.rejected_subjects),
            "latency": dict(self.latency),
            "per_state": {k: dict(v) for k, v in self.per_state.items()},
        }


class EventTable:
    """Raw click rows as columns, in input order.

    ``item`` codes index ``keys``, the (subject, condition) pairs, and
    ``label`` codes index ``labels``; both are numbered in order of first
    appearance.  ``offset`` is NaN where a row has none, and ``row`` holds
    the source row numbers used in error messages.
    """

    __slots__ = ("keys", "labels", "item", "label", "onset", "offset", "row")

    def __init__(self, keys: tuple, labels: tuple, item: np.ndarray, label: np.ndarray,
                 onset: np.ndarray, offset: np.ndarray, row: np.ndarray):
        self.keys, self.labels, self.item, self.label = keys, labels, item, label
        self.onset, self.offset, self.row = onset, offset, row

    def __len__(self) -> int:
        return self.item.size

    @classmethod
    def from_rows(cls, rows, where: str = "") -> "EventTable":
        """Columns of (subject, condition, state, onset, offset, row) tuples, taken one at a time.

        ``offset`` is None for a row without one.  A NaN onset or offset raises
        SchemaError naming its row; ``where`` prefixes the message.
        """
        keys: dict = {}
        labels: dict = {}
        item, label, onset, offset, row_no = [], [], [], [], []
        for subject, condition, state, on, off, row in rows:
            on = float(on)
            if on != on:
                raise SchemaError(f"{where}row {row}: onset {on} is not a number")
            if off is None:
                off = math.nan
            else:
                off = float(off)
                if off != off:
                    raise SchemaError(f"{where}row {row}: offset {off} is not a number")
            item.append(keys.setdefault((subject, condition), len(keys)))
            label.append(labels.setdefault(state, len(labels)))
            onset.append(on)
            offset.append(off)
            row_no.append(row)
        return cls(tuple(keys), tuple(labels), np.array(item, dtype=np.int64),
                   np.array(label, dtype=np.int64), np.array(onset, dtype=np.float64),
                   np.array(offset, dtype=np.float64), np.array(row_no, dtype=np.int64))

    @classmethod
    def from_records(cls, records: Iterable[EventRecord]) -> "EventTable":
        return cls.from_rows((r.subject, r.condition, r.state, r.onset, r.offset, r.row)
                             for r in records)


def _end_for(end_time, subject: str, condition: str) -> float:
    value = end_time
    if isinstance(end_time, Mapping):
        keys = [k for k in (f"{subject}/{condition}", subject, "default") if k in end_time]
        if not keys:
            raise SchemaError(f"no end time declared for {subject}/{condition}")
        value = end_time[keys[0]]
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SchemaError(
            f"end time of {subject}/{condition} is not a number: {value!r}") from None


def _end_times(end_time, keys) -> tuple[np.ndarray, np.ndarray]:
    """The end time of every (subject, condition) key, and whether it was found.

    A failed lookup leaves NaN; its error is raised again by the first check
    that needs that end time.
    """
    ends = np.full(len(keys), np.nan)
    found = np.ones(len(keys), dtype=bool)
    for i, (subject, condition) in enumerate(keys):
        try:
            ends[i] = _end_for(end_time, subject, condition)
        except SchemaError:
            found[i] = False
    return ends, found


def _state_codes(space: StateSpace, labels) -> np.ndarray:
    """The state index of every label, -1 for a label outside ``space``."""
    codes = np.full(len(labels), -1, dtype=np.int64)
    for i, label in enumerate(labels):
        try:
            codes[i] = space.index(label)
        except ValidationError:
            pass
    return codes


def _raise_row_error(table: EventTable, r: int, space: StateSpace, end_time) -> None:
    """Run the row checks on row ``r`` of ``table`` one by one; raise the first that fails."""
    subject, condition = table.keys[table.item[r]]
    onset, offset, row = float(table.onset[r]), float(table.offset[r]), int(table.row[r])
    if onset < 0:
        raise SchemaError(f"row {row}: negative onset {onset}")
    if offset <= onset:
        raise SchemaError(f"row {row}: offset {offset} must exceed onset {onset}")
    space.index(table.labels[table.label[r]])  # raises ValidationError on unknown label
    end = _end_for(end_time, subject, condition)
    if end <= 0:
        raise SchemaError(f"{subject}/{condition}: end time must be positive")
    if onset >= end:
        raise SchemaError(f"row {row}: onset {onset} at or after tasting end {end}")
    raise SchemaError(f"row {row}: item {subject}/{condition} not declared in the item list")


def _starts(counts: np.ndarray) -> np.ndarray:
    """Offset of each run in a concatenation of runs of the given lengths."""
    out = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _overlay(item, start, stop, state, ends: np.ndarray, q: int) -> list[CategoricalTrajectory]:
    """The trajectory of each of ``ends.size`` items from its state intervals [start, stop).

    An item's nodes are 0, its end and its interval bounds.  Each interval
    adds +1 to its state at its start node and -1 at its stop node; an item's
    entries net to zero, so one cumulative sum over the nodes of the whole
    panel counts the open intervals of every state on every segment.
    """
    n, m = ends.size, item.size
    owner = np.concatenate([np.arange(n), np.arange(n), item, item])
    t = np.concatenate([np.zeros(n), ends, start, stop])
    order = np.lexsort((t, owner))  # stable, so a node at zero keeps the sign of 0.0
    t, owner = t[order], owner[order]
    new = np.ones(t.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (t[1:] != t[:-1])
    node_of = np.empty(t.size, dtype=np.int64)
    node_of[order] = np.cumsum(new) - 1
    nodes, node_owner = t[new], owner[new]
    size = nodes.size * q
    diff = (np.bincount(node_of[2 * n:2 * n + m] * q + state, minlength=size)
            - np.bincount(node_of[2 * n + m:] * q + state, minlength=size))
    active = np.cumsum(diff.reshape(nodes.size, q), axis=0) > 0

    # a segment starts at every node but an item's last; equal neighbours merge
    is_end = np.ones(nodes.size, dtype=bool)
    is_end[:-1] = node_owner[1:] != node_owner[:-1]
    seg = np.flatnonzero(~is_end)
    packed = np.packbits(active[seg], axis=1)  # one bytes key per subset
    width = packed.shape[1]
    patterns, pattern = np.unique(packed.view(f"V{width}").ravel(), return_inverse=True)
    patterns = np.unpackbits(patterns.view(np.uint8).reshape(-1, width), axis=1, count=q)
    keep = np.ones(seg.size, dtype=bool)
    keep[1:] = (pattern[1:] != pattern[:-1]) | (node_owner[seg[1:]] != node_owner[seg[:-1]])
    kept_nodes = is_end.copy()
    kept_nodes[seg[keep]] = True
    subsets = [frozenset(np.flatnonzero(p).tolist()) for p in patterns]
    segments = [subsets[k] for k in pattern[keep].tolist()]
    counts = np.bincount(node_owner[kept_nodes], minlength=n)
    breakpoints = np.split(nodes[kept_nodes], np.cumsum(counts)[:-1])
    first = (_starts(counts) - np.arange(n)).tolist()
    return [CategoricalTrajectory(b, segments[f:f + b.size - 1])
            for b, f in zip(breakpoints, first)]


def _flat(trajectories) -> tuple[np.ndarray, list, np.ndarray, np.ndarray, np.ndarray]:
    """The flat encoding of a panel's step functions, the one every whole-panel pass reads.

    Returns all breakpoints and all segment subsets, trajectory after
    trajectory; the segment count of each trajectory; the subset size of
    each segment; and the state index of each (segment, state) membership,
    segment after segment.  State j's 0/1 step function is 1 on exactly the
    segments with a membership of j.
    """
    breakpoints = np.concatenate([t.breakpoints for t in trajectories])
    segments = list(chain.from_iterable(t.segments for t in trajectories))
    counts = np.fromiter((t.n_segments for t in trajectories), np.int64, len(trajectories))
    sizes = np.fromiter(map(len, segments), np.int64, len(segments))
    states = np.fromiter(chain.from_iterable(segments), np.int64, int(sizes.sum()))
    return breakpoints, segments, counts, sizes, states


def _grid_misfits(breakpoints: np.ndarray, counts: np.ndarray,
                  nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trajectory of a flat encoding: its horizon is not the grid's; a breakpoint is not a node.

    A trajectory with neither is constant on every cell of the grid.
    """
    node_start = _starts(counts + 1)
    off_horizon = breakpoints[node_start + counts] != nodes[-1]
    at = np.minimum(np.searchsorted(nodes, breakpoints), nodes.size - 1)
    not_refined = np.logical_or.reduceat(nodes[at] != breakpoints, node_start)
    return off_horizon, not_refined


def parse_events(
    events: Union[EventTable, Iterable[EventRecord]],
    space: StateSpace,
    mode: str,
    end_time: Union[float, Mapping[str, float]],
    *,
    items: Optional[Sequence[tuple[str, str]]] = None,
) -> tuple[Panel, IngestReport]:
    """Group raw records by (subject, condition) and build a panel.

    Parameters
    ----------
    events : EventTable or iterable of EventRecord
        Raw click rows; ``row`` indices are used in error messages.  Records
        are converted once with ``EventTable.from_records``.
    space : StateSpace
        Declared descriptor list; unknown labels raise ValidationError.
    mode : {'TDS', 'TCATA'}
    end_time : float or mapping
        Tasting end, either one value for all items or a mapping keyed by
        ``"subject/condition"`` (falling back to ``subject``, then ``"default"``).
    items : optional explicit (subject, condition) list
        Fixes membership and output order; items without records become
        constant-empty trajectories (rejected later for TDS).

    Returns
    -------
    (Panel, IngestReport)

    Rows are checked in input order, then items in panel order; the first
    failure raises.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    table = events if isinstance(events, EventTable) else EventTable.from_records(events)
    report = IngestReport(mode=mode, n_rows=len(table))

    # panel order: the declared items, else all items seen, sorted; undeclared ones after
    if items is not None:
        keys = list(dict.fromkeys((str(s), str(c)) for s, c in items))
    else:
        keys = sorted(table.keys)
    n = len(keys)
    position = {key: i for i, key in enumerate(keys)}
    for key in table.keys:
        position.setdefault(key, len(position))
    ends, found = _end_times(end_time, list(position))
    row_item = np.array([position[key] for key in table.keys], dtype=np.int64)[table.item]
    state = _state_codes(space, table.labels)[table.label]
    onset, offset = table.onset, table.offset
    row_end = ends[row_item]
    bad = ((onset < 0) | (offset <= onset) | (state < 0) | ~found[row_item]
           | (row_end <= 0) | (onset >= row_end) | (row_item >= n))
    if bad.any():
        _raise_row_error(table, int(np.argmax(bad)), space, end_time)

    has_offset = ~np.isnan(offset)
    duration = np.where(has_offset, np.minimum(offset, row_end) - onset, 0.0)
    clicks = np.bincount(table.label, minlength=len(table.labels)).tolist()
    totals = np.bincount(table.label, weights=duration, minlength=len(table.labels)).tolist()
    report.per_state = {label: {"clicks": c, "total_duration": d}
                        for label, c, d in zip(table.labels, clicks, totals)}
    rows = np.bincount(row_item, minlength=n)
    with_offset = np.bincount(row_item[has_offset], minlength=n)
    mixed = (mode == "TDS") & (with_offset > 0) & (with_offset < rows)

    # an item whose end time no trajectory can have fails below; its rows are left out
    ends = ends[:n]
    end_ok = found[:n] & (ends > 0) & np.isfinite(ends)
    ends[~end_ok] = 1.0
    order = np.lexsort((table.row, onset, row_item))
    order = order[end_ok[row_item[order]]]
    item, state, onset, offset = row_item[order], state[order], onset[order], offset[order]
    end = ends[item]
    if mode == "TDS":
        # dominance lasts until the next click; ties keep the last row in file order
        chained = (with_offset < rows)[item]
        tie = np.zeros(item.size, dtype=bool)
        tie[:-1] = chained[:-1] & (item[1:] == item[:-1]) & (onset[1:] == onset[:-1])
        report.warnings["simultaneous_clicks_dropped"] = int(tie.sum())
        item, state, onset, offset, end, chained = (
            a[~tie] for a in (item, state, onset, offset, end, chained))
        last = np.ones(item.size, dtype=bool)
        last[:-1] = item[1:] != item[:-1]
        following = np.where(last, end, np.append(onset[1:], 0.0))
        stop = np.where(chained, following, np.minimum(offset, end))
    else:
        unclosed = np.isnan(offset)
        stop = np.where(unclosed, end, offset)
        clipped = stop > end
        stop[clipped] = end[clipped]
        report.warnings["unclosed_intervals"] = int(unclosed.sum())
        report.warnings["intervals_clipped"] = int(clipped.sum())
        report.warnings["intervals_at_end"] = int((stop == end).sum())
    trajectories = _overlay(item, onset, stop, state, ends, space.q)

    bad_item = ~end_ok | mixed
    if mode == "TDS" and n:
        # dominance must be exclusive and gap-free after the first click
        breakpoints, _, counts, sizes, _ = _flat(trajectories)
        owner = np.repeat(np.arange(n), counts)
        active_before = np.cumsum(sizes > 0) - (sizes > 0)
        active_before -= active_before[_starts(counts)][owner]
        bad_segment = (sizes > 1) | ((sizes == 0) & (active_before > 0))
        bad_item |= np.bincount(owner[bad_segment], minlength=n) > 0
    if bad_item.any():
        i = int(np.argmax(bad_item))
        subject, condition = keys[i]
        end_i = _end_for(end_time, subject, condition)
        if mixed[i]:
            missing = table.row[(row_item == i) & ~has_offset]
            raise SchemaError(
                f"{subject}/{condition}: TDS rows mix present and missing offsets "
                f"(rows {missing.tolist()})")
        CategoricalTrajectory([0.0, end_i], [frozenset()])  # raises for an impossible end time
        k = int(np.flatnonzero(bad_segment & (owner == i))[0])
        kind = "overlapping dominance intervals" if sizes[k] > 1 else "dominance gap"
        raise ProtocolError(f"{subject}/{condition}: {kind} near t={breakpoints[k + i]:g}")

    report.n_items = n
    return Panel(mode, space, [PanelItem(subject, condition, traj)
                               for (subject, condition), traj in zip(keys, trajectories)]), report


def apply_protocol_normalization(
    panel: Panel,
    *,
    tick: float = DEFAULT_TICK,
    report: Optional[IngestReport] = None,
) -> Panel:
    """Normalize every trajectory to the unit horizon.

    TDS: the latency before the first click is removed (origin shifted to the
    first click, then rescaled) so exactly one state is active on all of
    [0, 1]; trajectories with no clicks raise ProtocolError naming their
    subjects.  TCATA: the latency is kept and the trajectory is rescaled.
    Breakpoints are then rounded to the ``tick`` lattice (not when
    ``tick <= 0``) so union_grid can use exact equality; segments rounded to
    zero length are dropped.
    """
    n = panel.n
    if n == 0:
        return Panel(panel.mode, panel.space, [])
    b, segments, counts, sizes, _ = _flat(panel.trajectories)
    seg_start = _starts(counts)
    node_start = seg_start + np.arange(n)
    node_end = node_start + counts
    owner = np.repeat(np.arange(n), counts)
    node_owner = np.repeat(np.arange(n), counts + 1)
    left = np.arange(sizes.size) + owner  # each segment's left node
    if panel.mode == "TDS":
        active_before = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes > 0, out=active_before[1:])
        rejected = active_before[seg_start + counts] == active_before[seg_start]
        first = np.searchsorted(active_before, active_before[seg_start] + 1) - 1 - seg_start
        first[rejected] = 0
    else:
        rejected = np.zeros(n, dtype=bool)
        first = np.zeros(n, dtype=np.int64)
    # the segments from the first click on (TCATA: all), and their first node
    live = (np.arange(sizes.size) - seg_start[owner] >= first[owner]) & ~rejected[owner]
    start = node_start + first

    def any_segment(mask):
        return np.bincount(owner[mask], minlength=n) > 0

    t0 = b[start]
    latency = (t0 / b[node_end]).tolist()
    shifted = b - t0[node_owner]
    scaled = shifted / shifted[node_end][node_owner]  # exactly 1 at each end
    scaled[start] = 0.0
    if tick <= 0:
        rounded, keep = scaled, live
    else:
        rounded = np.round(scaled / tick) * tick
        rounded[start] = 0.0
        rounded[node_end] = 1.0
        keep = live & (rounded[left + 1] - rounded[left] > 0)
    # the first step each item fails: 1 shift, 2 singleton check, 3 rescale, 4 tick rounding
    error = np.select([
        any_segment(live & (shifted[left + 1] <= shifted[left])),
        any_segment(live & (sizes != 1)) & (panel.mode == "TDS"),
        any_segment(live & (scaled[left + 1] <= scaled[left])),
        ~any_segment(keep),
    ], [1, 2, 3, 4], 0)

    def construct(values, i):
        """Item i from its first click on, with breakpoints ``values``."""
        return CategoricalTrajectory(values[start[i]:node_end[i] + 1],
                                     segments[seg_start[i] + first[i]:seg_start[i] + counts[i]])

    kept_nodes = np.zeros(b.size, dtype=bool)
    kept_nodes[start[~rejected]] = True
    kept_nodes[left[keep] + 1] = True
    node_counts = np.bincount(node_owner[kept_nodes], minlength=n)
    nodes = np.split(rounded[kept_nodes], np.cumsum(node_counts)[:-1])
    kept = list(compress(segments, keep))
    kept_start = _starts(np.bincount(owner[keep], minlength=n)).tolist()

    new_items = []
    rejected_keys = []
    for i, it in enumerate(panel.items):
        if rejected[i]:
            rejected_keys.append(it.key)
            continue
        if error[i] == 1:
            construct(shifted, i)  # raises: the shift made two breakpoints equal
        if error[i] == 2:
            raise ProtocolError(
                f"{it.key}: TDS trajectory is not singleton-valued after its first click")
        if report is not None and panel.mode == "TDS":
            report.latency[it.key] = latency[i]
        if error[i] == 3:
            construct(scaled, i)  # raises: the rescale made two breakpoints equal
        if error[i] == 4:
            raise ValidationError(f"tick {tick} coarser than the whole trajectory")
        segments_i = kept[kept_start[i]:kept_start[i] + nodes[i].size - 1]
        new_items.append(PanelItem(it.subject, it.condition,
                                   CategoricalTrajectory(nodes[i], segments_i)))
    if rejected_keys:
        if report is not None:
            report.rejected_subjects.extend(rejected_keys)
        raise ProtocolError(
            "TDS items without any click: " + ", ".join(rejected_keys)
        )
    return Panel(panel.mode, panel.space, new_items)


def validate_panel(panel: Panel) -> list[str]:
    """Structural invariant checks; returns human-readable violations (empty = OK)."""
    problems = []
    horizons = {it.trajectory.horizon for it in panel.items}
    if len(horizons) > 1:
        problems.append(f"trajectories carry {len(horizons)} distinct horizons: {sorted(horizons)}")
    for it in panel.items:
        traj = it.trajectory
        for k in range(1, traj.n_segments):
            if traj.segments[k] == traj.segments[k - 1]:
                problems.append(f"{it.key}: non-canonical (equal adjacent segments)")
                break
        if panel.mode == "TDS":
            if not traj.is_tds():
                problems.append(f"{it.key}: TDS trajectory with non-singleton segment")
        else:
            if traj.segments[0]:
                problems.append(f"{it.key}: TCATA trajectory starts with an active state")
            if traj.segments[-1]:
                problems.append(f"{it.key}: TCATA trajectory still active at the horizon")
    if panel.n and not problems:
        # grid refinement: by construction of the union grid every trajectory
        # must be constant on every cell; re-check directly
        breakpoints, _, counts, _, _ = _flat(panel.trajectories)
        misfit = np.logical_or(*_grid_misfits(breakpoints, counts, panel.grid().nodes))
        problems += [f"{panel.items[i].key}: not constant on the union grid"
                     for i in np.flatnonzero(misfit)]
    return problems
