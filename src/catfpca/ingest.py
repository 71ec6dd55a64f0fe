"""Event-log ingestion: raw click records -> normalized trajectory panels.

TDS records carry an onset only (a dominance lasts until the next click);
TCATA records carry onset/offset pairs per descriptor.  Protocol
normalization shifts TDS trajectories to their first click and rescales
every trajectory to the unit horizon; TCATA keeps its latency.

Both steps make whole-panel array passes over a ``Panel``'s flat arrays.
``parse_events`` takes the rows as an ``EventTable`` of typed columns, checks
them all with masks, orders them by (item, onset, position), turns them into
state intervals, and overlays the intervals of every item with one cumulative
count per state.  Both orderings (rows, then interval bounds) sort one exact
int64 key per entry, a group number times the count of distinct times plus
the rank of its time (``_order``).  ``apply_protocol_normalization`` maps
the runs of every item onto [0, 1] and overlays them the same way.  Neither
builds a trajectory object.  When a check fails, the first failing row
(input order) or item (panel order) is checked again on its own, so the
error raised is the one a row-by-row, item-by-item parse meets first.
"""
from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import asdict, dataclass, field
from itertools import chain, islice
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ProtocolError, SchemaError, ValidationError
from .trajectory import CategoricalTrajectory, CellGrid, StateSpace, _as_breakpoints, _union

__all__ = [
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

EVENT_COLUMNS = ("subject", "product", "descriptor", "onset", "offset")
FIRST_ROW = 2  # a row's number is its position plus this: the header is row 1
_BUFFER_ROWS = 4096  # rows appended to lists before they move into the typed buffers


@dataclass(frozen=True)
class PanelItem:
    subject: str
    condition: str
    trajectory: CategoricalTrajectory

    @property
    def key(self) -> str:
        return f"{self.subject}/{self.condition}"


class Panel:
    """Immutable panel of categorical trajectories with one state space, stored flat.

    ``keys`` holds each item's (subject, condition) pair, ``breakpoints`` all
    breakpoints, item after item, ``counts`` each item's segment count, and
    ``active`` a (segments, q) bool matrix whose row s holds the states on
    over segment s, which runs from breakpoint s + i to s + i + 1 in item i.
    Adjacent segments of an item differ.  The arrays are read-only;
    ``items`` and ``trajectories`` are built from them on every call.
    """

    __slots__ = ("mode", "space", "keys", "breakpoints", "counts", "active")

    def __init__(self, mode: str, space: StateSpace, items: Sequence[PanelItem]):
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        items = tuple(items)
        for it in items:
            if it.trajectory.max_state_index() >= space.q:
                raise ValidationError(f"item {it.key}: state index out of range for q={space.q}")
        trajectories = [it.trajectory for it in items]
        segments = [subset for t in trajectories for subset in t.segments]
        active = np.zeros((len(segments), space.q), dtype=bool)
        active[np.repeat(np.arange(len(segments)), list(map(len, segments))),
               list(chain.from_iterable(segments))] = True
        self._set(mode, space, [(it.subject, it.condition) for it in items],
                  np.concatenate([t.breakpoints for t in trajectories] or [np.empty(0)]),
                  np.array([t.n_segments for t in trajectories], dtype=np.int64), active)

    @classmethod
    def _of(cls, mode: str, space: StateSpace, keys, breakpoints, counts, active) -> "Panel":
        """The panel of trusted flat arrays; equal adjacent segments of an item are merged."""
        panel = object.__new__(cls)
        panel._set(mode, space, keys, breakpoints, counts, active)
        return panel

    def _set(self, mode, space, keys, breakpoints, counts, active) -> None:
        owner = np.repeat(np.arange(counts.size), counts)
        same = np.zeros(owner.size, dtype=bool)
        same[1:] = (owner[1:] == owner[:-1]) & (active[1:] == active[:-1]).all(axis=1)
        if same.any():  # segment s joins segment s - 1, and its left breakpoint goes
            breakpoints = np.delete(breakpoints, np.flatnonzero(same) + owner[same])
            active, counts = active[~same], np.bincount(owner[~same], minlength=counts.size)
        for a in (breakpoints, counts, active):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (mode, space, tuple(keys), breakpoints, counts,
                                                active)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Panel is immutable")

    @property
    def n(self) -> int:
        return len(self.keys)

    def key(self, i: int) -> str:
        """Item i's "subject/condition" label."""
        return "%s/%s" % self.keys[i]

    @property
    def horizons(self) -> np.ndarray:
        """Each item's last breakpoint."""
        return self.breakpoints[np.cumsum(self.counts + 1) - 1]

    @property
    def trajectories(self) -> list[CategoricalTrajectory]:
        """A new trajectory per item, built from the arrays."""
        patterns, pattern = np.unique(self.active, axis=0, return_inverse=True)
        subsets = [frozenset(np.flatnonzero(p).tolist()) for p in patterns]
        segments = [subsets[k] for k in pattern.tolist()]
        first = _starts(self.counts).tolist()
        return [CategoricalTrajectory(self.breakpoints[f + i:f + i + c + 1], segments[f:f + c])
                for i, (f, c) in enumerate(zip(first, self.counts.tolist()))]

    @property
    def items(self) -> tuple[PanelItem, ...]:
        """A new PanelItem per item, built from the arrays."""
        return tuple(PanelItem(s, c, t) for (s, c), t in zip(self.keys, self.trajectories))

    def grid(self) -> CellGrid:
        """The union grid of all items' breakpoints."""
        return _union(self.breakpoints, self.horizons)

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every maximal on-run of a state, as (item, state, onset, offset) arrays.

        A run is a stretch of an item's consecutive segments that all hold the
        state, from the first one's left breakpoint to the last one's right
        breakpoint.  Runs are ordered by item, state and onset.  Each state's
        column of ``active`` is scanned on its own, so no temporary holds a
        (segment, state) pair.
        """
        first = _starts(self.counts)  # each item's first segment
        last = first + self.counts - 1
        found = []
        for j in range(self.space.q):
            on = self.active[:, j]
            begins, ends = on.copy(), on.copy()
            begins[1:] &= ~on[:-1]
            begins[first] = on[first]
            ends[:-1] &= ~on[1:]
            ends[last] = on[last]
            begins, ends = np.flatnonzero(begins), np.flatnonzero(ends)
            item = np.searchsorted(first, begins, side="right") - 1
            found.append((item, self.breakpoints[begins + item],
                          self.breakpoints[ends + item + 1]))
        item, onset, offset = (np.concatenate(a) for a in zip(*found))
        state = np.repeat(np.arange(self.space.q), [f[0].size for f in found])
        order = np.argsort(item, kind="stable")  # each state's runs already go by item, onset
        return item[order], state[order], onset[order], offset[order]

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
    latency: dict = field(default_factory=dict)  # item key -> removed TDS latency
    per_state: dict = field(default_factory=dict)  # label -> {clicks, total_duration: on-time}

    @property
    def total_warnings(self) -> int:
        return sum(self.warnings.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "total_warnings": self.total_warnings}


class EventTable:
    """Raw click rows as columns, in input order; a row's number is its position plus FIRST_ROW.

    ``item`` codes index ``keys``, the (subject, condition) pairs, and
    ``label`` codes index ``labels``; both are numbered in order of first
    appearance.  ``offset`` is NaN where a row has none.
    """

    __slots__ = ("keys", "labels", "item", "label", "onset", "offset")

    def __init__(self, keys: tuple, labels: tuple, item: np.ndarray, label: np.ndarray,
                 onset: np.ndarray, offset: np.ndarray):
        self.keys, self.labels, self.item, self.label = keys, labels, item, label
        self.onset, self.offset = onset, offset

    def __len__(self) -> int:
        return self.item.size

    @classmethod
    def from_rows(cls, rows, where: str = "", header: Sequence[str] = EVENT_COLUMNS
                  ) -> "EventTable":
        """Columns of ``rows``, taken one at a time.

        Rows are the lists of fields below a file's header line, or records
        held in memory: (subject, product, descriptor, onset, offset) tuples
        under the default header.  Either way they are numbered from
        FIRST_ROW.  A repeated column name means its last field, and a short
        row lacks its last fields.  A None, empty or absent offset is NaN.
        The first row that fails raises SchemaError naming its row, after
        ``where``; a row fails on a bad onset, then a bad offset, too few
        fields, a NaN onset and a NaN offset.  Values are appended to lists,
        which move into typed buffers every _BUFFER_ROWS rows.
        """
        numbered = enumerate(rows, start=FIRST_ROW)
        column = {name: i for i, name in enumerate(header)}
        fields = (*(column[name] for name in EVENT_COLUMNS[:4]), column.get("offset"))
        s, c, d, o, f = fields
        keys: dict = {}
        labels: dict = {}
        key_code, label_code = keys.setdefault, labels.setdefault
        lists = [], [], [], []
        add_item, add_label, add_onset, add_offset = (values.append for values in lists)
        buffers = array("q"), array("q"), array("d"), array("d")
        while True:
            for number, r in islice(numbered, _BUFFER_ROWS):
                try:
                    key, state, on = (r[s], r[c]), r[d], float(r[o])
                    text = None if f is None else r[f]
                    off = math.nan if text is None or text == "" else float(text)
                    if on != on or off != off and text:
                        raise ValueError  # a NaN fails on the checked path too
                except (IndexError, TypeError, ValueError):
                    key, state, on, off = _checked_row(r, number, fields, where)
                add_item(key_code(key, len(keys)))
                add_label(label_code(state, len(labels)))
                add_onset(on)
                add_offset(off)
            if not lists[0]:
                break
            for buffer, values in zip(buffers, lists):
                buffer.fromlist(values)
                values.clear()
        return cls(tuple(keys), tuple(labels), *map(_column, buffers))


def _checked_row(r, number, fields, where: str) -> tuple:
    """((subject, product), descriptor, onset, offset) of row ``r``, checked one step at a time.

    A row shorter than the header lacks its last fields; one that lacks only
    the offset has none.  Raises SchemaError for the first check that fails.
    """
    s, c, d, o, f = fields
    text = r[o] if o < len(r) else None
    try:
        on = float(text)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}row {number}: bad onset {text!r}") from None
    text = r[f] if f is not None and f < len(r) else None
    present = text is not None and text != ""
    off = math.nan
    if present:
        try:
            off = float(text)
        except (TypeError, ValueError):
            raise SchemaError(f"{where}row {number}: bad offset {text!r}") from None
    if max(s, c, d) >= len(r):
        raise SchemaError(f"{where}row {number}: too few fields")
    if on != on:
        raise SchemaError(f"{where}row {number}: onset {on} is not a number")
    if present and off != off:
        raise SchemaError(f"{where}row {number}: offset {off} is not a number")
    return (r[s], r[c]), r[d], on, off


def _column(buffer: array) -> np.ndarray:
    """A typed buffer as an int64 or float64 array over the same memory."""
    return np.frombuffer(buffer, dtype=np.float64 if buffer.typecode == "d" else np.int64)


def _number(value) -> float:
    """A real number as a float; TypeError for anything else, bools and quoted numbers included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _end_for(end_time, subject: str, condition: str) -> float:
    value = end_time
    if isinstance(end_time, Mapping):
        keys = [k for k in (f"{subject}/{condition}", subject, "default") if k in end_time]
        if not keys:
            raise SchemaError(f"no end time declared for {subject}/{condition}")
        value = end_time[keys[0]]
    try:
        return _number(value)
    except (TypeError, OverflowError):
        raise SchemaError(
            f"end time of {subject}/{condition} is not a number: {value!r}") from None


def _end_times(end_time, keys) -> tuple[np.ndarray, np.ndarray]:
    """The end time of every (subject, condition) key, and whether it was found.

    A failed lookup leaves NaN; its error is raised again by the first check
    that needs that end time.  One value for all keys is converted once.
    """
    ends = np.full(len(keys), np.nan)
    found = np.ones(len(keys), dtype=bool)
    if not isinstance(end_time, Mapping):
        try:
            ends[:] = _number(end_time)
        except (TypeError, OverflowError):
            found[:] = False
        return ends, found
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
    onset, offset, row = float(table.onset[r]), float(table.offset[r]), r + FIRST_ROW
    if onset != onset:  # only a table built directly holds one: from_rows rejects it
        raise SchemaError(f"row {row}: onset {onset} is not a number")
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


def _intervals(mode: str, events: EventTable, row_item, codes, ends, keep, chained,
               warnings: dict) -> tuple:
    """(item, start, stop, state) of the rows of the items ``keep`` marks, by item and onset.

    Rows of one onset go by position.  TDS: a row of a ``chained`` item
    lasts until the next row's onset or its item's end, and of rows with one
    onset only the last stays; other rows last until their offset.  TCATA:
    a row lasts until its offset, or its item's end when it has none.  Every
    stop is clipped to the end, and ``warnings`` counts the rows each rule
    met.  The sorted row columns are temporaries of this call.
    """
    order = _order(row_item, events.onset)
    order = order[keep[row_item[order]]]
    item, onset, offset = row_item[order], events.onset[order], events.offset[order]
    state = codes[events.label[order]]
    end = ends[item]
    if mode == "TDS":
        # dominance lasts until the next click; ties keep the last row in file order
        chained = chained[item]
        tie = np.zeros(item.size, dtype=bool)
        tie[:-1] = chained[:-1] & (item[1:] == item[:-1]) & (onset[1:] == onset[:-1])
        warnings["simultaneous_clicks_dropped"] = int(tie.sum())
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
        warnings["unclosed_intervals"] = int(unclosed.sum())
        warnings["intervals_clipped"] = int(clipped.sum())
        warnings["intervals_at_end"] = int((stop == end).sum())
    return item, onset, stop, state


def _order(group: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts entries by (group, t), with t free of NaN.

    Entries tied on (group, t) keep their order, as in ``np.lexsort((t,
    group))``.  The sort key is ``group * U`` plus the rank of t among its U
    distinct values, exact while groups * U < 2**63; -0.0 ranks with 0.0.
    """
    perm = np.argsort(t)
    ordered = t[perm]
    new = np.empty(t.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    key = np.empty(t.size, dtype=np.int64)
    key[perm] = np.cumsum(new) - 1
    del perm
    key += group * np.int64(new.sum())
    return np.argsort(key, kind="stable")


def _starts(counts: np.ndarray) -> np.ndarray:
    """Offset of each run in a concatenation of runs of the given lengths."""
    out = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _overlay(item, start, stop, state, ends: np.ndarray, q: int) -> tuple:
    """Breakpoints, segment counts and active matrix of ``ends.size`` items from state intervals.

    An item's nodes are 0, its end and the bounds of its intervals [start,
    stop), and each node but the last starts a segment.  Each interval of
    state j adds +1 to j's count at its start segment and -1 at its stop
    segment; an item's entries net to zero, so one cumulative sum over the
    segments of the whole panel counts the open intervals of state j on every
    segment.  The states are counted one at a time, straight into their
    column of the bool matrix.  ``Panel._of`` merges equal neighbours.
    """
    n, m = ends.size, item.size
    owner = np.concatenate([np.arange(n), np.arange(n), item, item])
    t = np.concatenate([np.zeros(n), ends, start, stop])
    t += 0.0  # an onset written "-0" reads -0.0; every node at zero is then the zeros' +0.0
    order = _order(owner, t)  # entries tied on (owner, t) fall on one node
    t = t[order]
    owner = owner[order]
    new = np.ones(t.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (t[1:] != t[:-1])
    nodes, node_owner = t[new], owner[new]
    del t
    # the segment a node starts is its node number less its item's, as each item before it
    # has one node more than segments; an item's end falls on the next item's first segment
    # (the last item's on one spare), where every count is back to zero
    segment = np.cumsum(new, dtype=np.int64)
    segment -= 1
    segment -= owner
    del owner, new
    segment_of = np.empty_like(segment)
    segment_of[order] = segment
    del order, segment
    starts, stops = segment_of[2 * n:2 * n + m], segment_of[2 * n + m:]
    size = nodes.size - n
    active = np.empty((size, q), dtype=bool)
    for j in range(q):
        mine = state == j
        count = np.bincount(starts[mine], minlength=size + 1)
        count -= np.bincount(stops[mine], minlength=size + 1)
        np.greater(np.cumsum(count, out=count)[:size], 0, out=active[:, j])
    return nodes, np.bincount(node_owner, minlength=n) - 1, active


def _dominance_faults(panel: Panel, latent: bool) -> dict:
    """{item: message} for each TDS item with a segment that does not hold exactly one state.

    The one check of the TDS rule (TCATA: none).  With ``latent`` an item's
    first segment may also be empty: the latency before its first click,
    which normalization removes.  The message names the first bad segment.
    """
    if panel.mode != "TDS":
        return {}
    sizes, first = np.count_nonzero(panel.active, axis=1), _starts(panel.counts)
    bad = sizes != 1
    if latent:
        bad[first] = sizes[first] > 1
    k = np.flatnonzero(bad)
    item = np.searchsorted(first, k, side="right") - 1
    lead = np.unique(item, return_index=True)[1]  # each item's first bad segment
    kinds = np.where(sizes[k[lead]] > 1, "overlapping dominance intervals", "dominance gap")
    return {i: f"{panel.key(i)}: {kind} near t={panel.breakpoints[j + i]:g}"
            for i, j, kind in zip(item[lead].tolist(), k[lead].tolist(), kinds.tolist())}


def parse_events(
    events: EventTable,
    space: StateSpace,
    mode: str,
    end_time: Union[float, Mapping[str, float]],
    *,
    items: Optional[Sequence[tuple[str, str]]] = None,
) -> tuple[Panel, IngestReport]:
    """Group raw rows by (subject, condition) and build a panel.

    Parameters
    ----------
    events : EventTable
        Raw click rows, numbered by position in error messages.  Rows held
        in memory are made into a table by ``EventTable.from_rows``.
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
    report = IngestReport(mode=mode, n_rows=len(events))

    # panel order: the declared items, else all items seen, sorted; undeclared ones after
    if items is not None:
        keys = list(dict.fromkeys((str(s), str(c)) for s, c in items))
    else:
        keys = sorted(events.keys)
    n = len(keys)
    position = {key: i for i, key in enumerate(keys)}
    for key in events.keys:
        position.setdefault(key, len(position))
    ends, found = _end_times(end_time, list(position))
    row_item = np.array([position[key] for key in events.keys], dtype=np.int64)[events.item]
    codes = _state_codes(space, events.labels)
    onset, offset = events.onset, events.offset
    row_end = ends[row_item]
    bad = (~(onset >= 0) | (offset <= onset) | (codes[events.label] < 0) | ~found[row_item]
           | (row_end <= 0) | (onset >= row_end) | (row_item >= n))
    if bad.any():
        _raise_row_error(events, int(np.argmax(bad)), space, end_time)

    has_offset = ~np.isnan(offset)
    del row_end, bad  # row-length temporaries go before the overlay's peak
    rows = np.bincount(row_item, minlength=n)
    with_offset = np.bincount(row_item[has_offset], minlength=n)
    mixed = (mode == "TDS") & (with_offset > 0) & (with_offset < rows)

    # an item whose end time no trajectory can have fails below; its rows are left out
    ends = ends[:n]
    end_ok = found[:n] & (ends > 0) & np.isfinite(ends)
    ends[~end_ok] = 1.0
    panel = Panel._of(mode, space, keys, *_overlay(*_intervals(
        mode, events, row_item, codes, ends, end_ok, with_offset < rows, report.warnings),
        ends, space.q))

    faults = _dominance_faults(panel, latent=True)
    bad_item = ~end_ok | mixed | np.isin(np.arange(n), list(faults))
    if bad_item.any():
        i = int(np.argmax(bad_item))
        subject, condition = keys[i]
        end_i = _end_for(end_time, subject, condition)
        if mixed[i]:
            missing = np.flatnonzero((row_item == i) & ~has_offset) + FIRST_ROW
            raise SchemaError(
                f"{subject}/{condition}: TDS rows mix present and missing offsets "
                f"(rows {missing.tolist()})")
        _as_breakpoints([0.0, end_i])  # raises for an impossible end time
        raise ProtocolError(faults[i])

    # a state's on-time is the length of the segments that hold it, in the file's time units
    lengths = np.delete(np.diff(panel.breakpoints), _starts(panel.counts + 1)[1:] - 1)
    on_time = [float(lengths[panel.active[:, j]].sum()) for j in range(space.q)]
    clicks = np.bincount(events.label, minlength=len(events.labels)).tolist()
    report.per_state = {label: {"clicks": c, "total_duration": on_time[j]}
                        for label, c, j in zip(events.labels, clicks, codes.tolist())}
    report.n_items = n
    return panel, report


def apply_protocol_normalization(
    panel: Panel,
    *,
    tick: float = DEFAULT_TICK,
    report: Optional[IngestReport] = None,
) -> Panel:
    """Normalize every trajectory to the unit horizon.

    Every run of an item goes through one map onto [0, 1], t -> (t - t0) /
    (T - t0), where T is the item's horizon and t0 its first click (TDS:
    the latency before it is removed) or 0 (TCATA: the latency is kept).
    The mapped times are rounded to the ``tick`` lattice (not when ``tick
    <= 0``), so union_grid can use exact equality, and clipped into [0, 1];
    T goes to exactly 1.  A run mapped to zero length is dropped, and the
    rest are overlaid as ``parse_events`` overlays its intervals.  A TDS
    item that breaks the TDS rule after its first click, or has no click,
    raises ProtocolError; a tick that is not finite raises ValidationError.
    A failure leaves ``report`` untouched.
    """
    faults = _dominance_faults(panel, latent=True)
    if faults:
        raise ProtocolError(next(iter(faults.values())))
    horizon, t0 = panel.horizons, np.zeros(panel.n)
    if panel.mode == "TDS":
        # adjacent segments differ, so only an item's first segment can be empty: the latency
        first = _starts(panel.counts)
        latent = ~panel.active[first].any(axis=1)
        silent = latent & (panel.counts == 1)
        if silent.any():
            raise ProtocolError("TDS items without any click: "
                                + ", ".join(map(panel.key, np.flatnonzero(silent).tolist())))
        t0 = panel.breakpoints[first + np.arange(panel.n) + latent]
    if not math.isfinite(tick):
        raise ValidationError(f"tick {tick} is not finite")
    item, state, onset, offset = panel.runs()
    at_end = offset == horizon[item]
    span = horizon - t0
    for t in (onset, offset):  # in place: runs() returns new arrays
        t -= t0[item]
        t /= span[item]
        if tick > 0:
            t /= tick
            np.round(t, out=t)
            t *= tick
        np.clip(t, 0.0, 1.0, out=t)
    offset[at_end] = 1.0
    # drop the runs mapped to zero length; each copy replaces its array (t no longer holds
    # offset), so the overlay's peak meets four arrays of runs, not eight
    del t, at_end
    keep = onset < offset
    item, state = item[keep], state[keep]
    onset, offset = onset[keep], offset[keep]
    if report is not None and panel.mode == "TDS":
        report.latency.update(zip(map(panel.key, range(panel.n)), (t0 / horizon).tolist()))
    return Panel._of(panel.mode, panel.space, panel.keys, *_overlay(
        item, onset, offset, state, np.ones(panel.n), panel.space.q))


def validate_panel(panel: Panel) -> list[str]:
    """A normalized panel's violations (empty = OK): more than one horizon, and the TDS rule."""
    problems = []
    horizons = sorted(set(panel.horizons.tolist()))
    if len(horizons) > 1:
        problems.append(f"trajectories carry {len(horizons)} distinct horizons: {horizons}")
    return problems + list(_dominance_faults(panel, latent=False).values())
