"""Event-log ingestion: raw click records -> normalized trajectory panels.

TDS records carry an onset only (a dominance lasts until the next click);
TCATA records carry onset/offset pairs per descriptor.  Protocol
normalization shifts TDS trajectories to their first click and rescales
every trajectory to the unit horizon; TCATA keeps its latency.

Both steps make whole-panel array passes over a ``Panel``'s runs.
``parse_events`` takes the rows as an ``EventTable`` of typed columns, checks
them all with masks, orders them by (item, onset, position) and turns them
into state intervals, which ``Panel._of`` merges into each state's maximal
on-runs.  Both orderings (rows, then intervals by item and state) sort one
exact int64 key per entry, a group number times the count of distinct times
plus the rank of its time (``_order``).  ``apply_protocol_normalization``
maps the runs of every item onto [0, 1] and merges them the same way.
Neither builds a trajectory object.  ``parse_events`` states each check
once, in one ordered list for rows and one for items, as the mask of the
entries that fail it and the error it raises (``_raise_first``).  The first
failing row (input order) or item (panel order) raises the error of its
first failing check: the one a row-by-row, item-by-item parse meets first.
"""
from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import asdict, dataclass, field
from itertools import chain, compress, islice
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ProtocolError, SchemaError, ValidationError
from .trajectory import CategoricalTrajectory, CellGrid, StateSpace, _union

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
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal double

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
    """Immutable panel of categorical trajectories with one state space, stored as runs.

    ``keys`` holds each item's (subject, condition) pair and ``horizons`` its
    horizon.  ``item``, ``state``, ``onset`` and ``offset`` hold every maximal
    on-run [onset, offset) of a state, ordered by item, state and onset: each
    run has positive length within [0, horizon], no time is -0.0, and two runs
    of one item and state neither overlap nor touch.  The arrays are
    read-only; ``items`` and ``trajectories`` are built from them on every call.
    """

    __slots__ = ("mode", "space", "keys", "horizons", "item", "state", "onset", "offset")

    def __init__(self, mode: str, space: StateSpace, items: Sequence[PanelItem]):
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        items = tuple(items)
        for it in items:
            if it.trajectory.max_state_index() >= space.q:
                raise ValidationError(f"item {it.key}: state index out of range for q={space.q}")
        trajectories = [it.trajectory for it in items]
        # each (segment, state) pair is one interval; segment s of item i starts at breakpoint
        # s + i, as each item before it has one breakpoint more than segments
        segments = [subset for t in trajectories for subset in t.segments]
        segment = np.repeat(np.arange(len(segments)), list(map(len, segments)))
        item = np.repeat(np.arange(len(items)), [t.n_segments for t in trajectories])[segment]
        state = np.fromiter(chain.from_iterable(segments), np.int64, segment.size)
        b = np.concatenate([t.breakpoints for t in trajectories] or [np.empty(0)])
        self._set(mode, space, [(it.subject, it.condition) for it in items],
                  [t.horizon for t in trajectories], item, state, b[segment + item],
                  b[segment + item + 1])

    @classmethod
    def _of(cls, mode: str, space: StateSpace, keys, horizons, item, state, onset, offset
            ) -> "Panel":
        """The panel of trusted intervals [onset, offset) of (item, state), merged into runs."""
        panel = object.__new__(cls)
        panel._set(mode, space, keys, horizons, item, state, onset, offset)
        return panel

    def _set(self, mode, space, keys, horizons, item, state, onset, offset) -> None:
        """Store the maximal runs of the intervals, less those of zero length.

        Sorted by group, item * q + state, and onset, an interval starts a
        new run when it is its group's first or starts past every offset
        before it in its group.  That reach is a running maximum of group * U
        plus each offset's rank among its U distinct values; modulo U it is
        the rank of the reach's offset.
        """
        keep = onset < offset
        group = item[keep] * space.q + state[keep]
        onset, offset = onset[keep], offset[keep]
        del keep
        order = _order(group, onset)
        group, onset, offset = group[order], onset[order] + 0.0, offset[order]  # -0.0 -> 0.0
        del order
        reach, distinct = _ranks(offset)
        reach += group * np.int64(distinct.size)
        np.maximum.accumulate(reach, out=reach)
        start = np.ones(group.size, dtype=bool)
        np.greater(onset[1:], distinct[reach[:-1] % distinct.size], out=start[1:])
        start[1:] |= group[1:] != group[:-1]
        del reach, distinct
        start = np.flatnonzero(start)
        item, state = np.divmod(group[start], space.q)
        onset, offset = onset[start], np.maximum.reduceat(offset, start)
        horizons = np.array(horizons, dtype=np.float64)
        for a in (horizons, item, state, onset, offset):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (mode, space, tuple(keys), horizons, item, state,
                                                onset, offset)):
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
    def trajectories(self) -> list[CategoricalTrajectory]:
        """A new trajectory per item, with breakpoints 0, its horizon and its run endpoints."""
        bounds = np.searchsorted(self.item, np.arange(self.n + 1)).tolist()
        states, out = range(self.space.q), []
        for i, horizon in enumerate(self.horizons.tolist()):
            runs = slice(bounds[i], bounds[i + 1])
            onset, offset, state = self.onset[runs], self.offset[runs], self.state[runs]
            b = _union(np.concatenate([[0.0, horizon], onset, offset]), self.horizons[i:i + 1]
                       ).nodes
            steps = np.zeros((b.size, self.space.q), dtype=np.int8)  # runs of a state never touch
            steps[np.searchsorted(b, onset), state] = 1
            steps[np.searchsorted(b, offset), state] = -1
            on = (np.cumsum(steps[:-1], axis=0) > 0).tolist()
            out.append(CategoricalTrajectory(b, [frozenset(compress(states, row)) for row in on]))
        return out

    @property
    def items(self) -> tuple[PanelItem, ...]:
        """A new PanelItem per item, built from the arrays."""
        return tuple(PanelItem(s, c, t) for (s, c), t in zip(self.keys, self.trajectories))

    def grid(self) -> CellGrid:
        """The union grid of 0, the horizons and every run endpoint."""
        return _union(np.concatenate([[0.0], self.horizons, self.onset, self.offset]),
                      self.horizons)

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every maximal on-run of a state, as the stored (item, state, onset, offset) arrays."""
        return self.item, self.state, self.onset, self.offset

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
        """Columns of ``rows``, taken one at a time by ``_Columns.add_rows``.

        Rows are the lists of fields below a file's header line, or records
        held in memory: (subject, product, descriptor, onset, offset) tuples
        under the default header.  Either way they are numbered from
        FIRST_ROW.  A repeated column name means its last field, and a short
        row lacks its last fields.  A None, empty or absent offset is NaN.
        The first row that fails raises SchemaError naming its row, after
        ``where``; a row fails on a bad onset, then a bad offset, too few
        fields, a NaN onset and a NaN offset.
        """
        columns = _Columns(where, header)
        columns.add_rows(rows)
        return columns.table()


class _Codes(dict):
    """Codes in order of first appearance: a key not yet seen gets the next code."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        code = self[key] = len(self)
        return code


class _Columns:
    """An EventTable's columns, filled in row order by the row loop or by whole blocks.

    ``fields`` are the header positions of subject, product, descriptor,
    onset and offset (None without one).  Item and label codes are numbered
    in order of first appearance, and every row adds 32 B to four typed
    buffers, which the table's arrays share.
    """

    __slots__ = ("where", "fields", "keys", "labels", "buffers")

    def __init__(self, where: str, header: Sequence[str]):
        column = {name: i for i, name in enumerate(header)}  # a repeated name: its last field
        self.fields = (*(column[name] for name in EVENT_COLUMNS[:4]), column.get("offset"))
        self.where = where
        self.keys, self.labels = _Codes(), _Codes()
        self.buffers = array("q"), array("q"), array("d"), array("d")

    def __len__(self) -> int:
        return len(self.buffers[0])

    def add_rows(self, rows) -> None:
        """Check and append rows one at a time, numbered on from the rows before them.

        Values are appended to lists, which move into the buffers every
        _BUFFER_ROWS rows.
        """
        numbered = enumerate(rows, start=FIRST_ROW + len(self))
        s, c, d, o, f = fields = self.fields
        key_code, label_code = self.keys.__getitem__, self.labels.__getitem__
        lists = [], [], [], []
        add_item, add_label, add_onset, add_offset = (values.append for values in lists)
        while True:
            for number, r in islice(numbered, _BUFFER_ROWS):
                try:
                    key, state, on = (r[s], r[c]), r[d], float(r[o])
                    text = None if f is None else r[f]
                    off = math.nan if text is None or text == "" else float(text)
                    if on != on or off != off and text:
                        raise ValueError  # a NaN fails on the checked path too
                except (IndexError, TypeError, ValueError):
                    key, state, on, off = _checked_row(r, number, fields, self.where)
                add_item(key_code(key))
                add_label(label_code(state))
                add_onset(on)
                add_offset(off)
            if not lists[0]:
                return
            for buffer, values in zip(self.buffers, lists):
                buffer.fromlist(values)
                values.clear()

    def add_columns(self, subject, product, descriptor, onset, offset=None) -> None:
        """Append a block of rows that passed every row check, given as columns.

        ``subject``, ``product`` and ``descriptor`` are sequences of strings,
        ``onset`` and ``offset`` float64 arrays free of NaN; no ``offset``
        means none for any row.
        """
        n = len(subject)
        for buffer, values in zip(self.buffers, (
                np.fromiter(map(self.keys.__getitem__, zip(subject, product)), np.int64, n),
                np.fromiter(map(self.labels.__getitem__, descriptor), np.int64, n),
                onset, np.full(n, math.nan) if offset is None else offset)):
            buffer.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))

    def table(self) -> EventTable:
        return EventTable(tuple(self.keys), tuple(self.labels), *map(_column, self.buffers))


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


def _bad_end(key: str, end: float) -> SchemaError:
    return SchemaError(f"{key}: end time must be positive and finite, got {end}")


def _end_times(end_time, keys) -> tuple[np.ndarray, dict]:
    """The end time of every (subject, condition) key, and {key index: SchemaError}.

    A failed lookup leaves NaN and its error in the mapping.  One value for
    all keys is converted once.
    """
    if not isinstance(end_time, Mapping):
        try:
            return np.full(len(keys), _number(end_time)), {}
        except (TypeError, OverflowError):
            pass  # every key fails, each with its own message
    ends, failed = np.full(len(keys), np.nan), {}
    for i, (subject, condition) in enumerate(keys):
        try:
            ends[i] = _end_for(end_time, subject, condition)
        except SchemaError as exc:
            failed[i] = exc
    return ends, failed


def _raise_first(checks) -> None:
    """Raise the error of the first failing check at the first entry that fails any.

    ``checks`` are (mask, error) pairs in order: the mask marks the entries
    that fail the check, and error(i) returns (or raises) entry i's exception.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise next(error(i) for mask, error in checks if mask[i])


def _intervals(mode: str, events: EventTable, row_item, codes, ends, keep, chained,
               warnings: dict) -> tuple:
    """(item, state, start, stop) of the rows of the items ``keep`` marks, by item and onset.

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
    return item, state, onset, stop


def _ranks(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's rank among the distinct values of t, free of NaN, and those values in order.

    -0.0 ranks with 0.0.
    """
    perm = np.argsort(t)
    ordered = t[perm]
    new = np.empty(t.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered
    rank = np.empty(t.size, dtype=np.int64)
    rank[perm] = np.cumsum(new) - 1
    return rank, distinct


def _order(group: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts entries by (group, t), with t free of NaN.

    Entries tied on (group, t) keep their order, as in ``np.lexsort((t,
    group))``.  The sort key is ``group * U`` plus the rank of t among its U
    distinct values, exact while groups * U < 2**63; -0.0 ranks with 0.0.
    """
    key, distinct = _ranks(t)
    key += group * np.int64(distinct.size)
    del distinct
    return np.argsort(key, kind="stable")


def _dominance_faults(panel: Panel, latent: bool) -> dict:
    """{item: message} for each TDS item whose runs do not cover [0, horizon) exactly once.

    The one check of the TDS rule (TCATA: none).  An item's runs are taken
    in onset order.  Up to its first fault they tile the line, so the
    stretch covered before a run ends at the previous run's offset (at 0
    before the first run): a run that starts past it leaves a gap there, one
    that starts before it overlaps from its onset, and an item whose last run
    ends before its horizon has a gap there.  With ``latent`` the stretch
    before an item's first run may also be empty: the latency before its
    first click, which normalization removes.  The message names the first
    fault's time.
    """
    if panel.mode != "TDS":
        return {}
    item, _, onset, offset = panel.runs()
    order = _order(item, onset)
    item, onset, offset = item[order], onset[order], offset[order]
    first = np.ones(item.size + 1, dtype=bool)  # first[k]: run k starts its item; k = size: the end
    first[1:-1] = item[1:] != item[:-1]
    covered = np.empty_like(onset)
    covered[1:] = offset[:-1]
    covered[first[:-1]] = onset[first[:-1]] if latent else 0.0
    end_gap = first[1:] & (offset < panel.horizons[item])
    k = np.flatnonzero((onset != covered) | end_gap)
    k = k[np.diff(item[k], prepend=-1) != 0]  # each item's first fault
    at_run = onset[k] != covered[k]
    kinds = np.where(at_run & (onset[k] < covered[k]), "overlapping dominance intervals",
                     "dominance gap")
    at = np.where(at_run, np.minimum(onset[k], covered[k]), offset[k])
    faults = dict(zip(item[k].tolist(), zip(kinds.tolist(), at.tolist())))
    if not latent:  # an item without a run is one gap from 0
        faults.update((i, ("dominance gap", 0.0))
                      for i in np.flatnonzero(np.bincount(item, minlength=panel.n) == 0).tolist())
    return {i: f"{panel.key(i)}: {kind} near t={t:g}" for i, (kind, t) in sorted(faults.items())}


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
        constant-empty trajectories (rejected later for TDS).  A pair listed
        twice raises SchemaError before any row is checked.

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
        keys, seen = [(str(s), str(c)) for s, c in items], set()
        for key in keys:
            if key in seen:
                raise SchemaError("item %s/%s listed twice in the item list" % key)
            seen.add(key)
    else:
        keys = sorted(events.keys)
    n = len(keys)
    position = {key: i for i, key in enumerate(keys)}
    for key in events.keys:
        position.setdefault(key, len(position))
    ends, lookup = _end_times(end_time, list(position))
    no_end = np.isin(np.arange(len(position)), list(lookup))
    row_item = np.array([position[key] for key in events.keys], dtype=np.int64)[events.item]
    codes = np.array([space._index.get(label, -1) for label in events.labels], dtype=np.int64)
    onset, offset = events.onset, events.offset
    row_end = ends[row_item]

    def name(i):  # only an error names an item
        return "%s/%s" % list(position)[i]

    def at(r, message):
        return SchemaError(f"row {r + FIRST_ROW}: {message}")

    # only a table built directly holds a NaN onset: from_rows rejects it
    _raise_first([
        (np.isnan(onset), lambda r: at(r, f"onset {onset[r]} is not a number")),
        (onset < 0, lambda r: at(r, f"negative onset {onset[r]}")),
        (offset <= onset, lambda r: at(r, f"offset {offset[r]} must exceed onset {onset[r]}")),
        (codes[events.label] < 0,
         lambda r: space.index(events.labels[events.label[r]])),  # StateSpace's error
        (no_end[row_item], lambda r: lookup[row_item[r]]),
        (row_end <= 0, lambda r: _bad_end(name(row_item[r]), row_end[r])),
        (onset >= row_end,
         lambda r: at(r, f"onset {onset[r]} at or after tasting end {row_end[r]}")),
        (row_item >= n,
         lambda r: at(r, f"item {name(row_item[r])} not declared in the item list")),
    ])

    has_offset = ~np.isnan(offset)
    del row_end  # a row-length temporary goes before the merge's peak
    rows = np.bincount(row_item, minlength=n)
    with_offset = np.bincount(row_item[has_offset], minlength=n)
    mixed = (mode == "TDS") & (with_offset > 0) & (with_offset < rows)

    # an item whose end time no trajectory can have fails below; its rows are left out
    ends = ends[:n]
    end_ok = (ends > 0) & np.isfinite(ends)
    panel = Panel._of(mode, space, keys, np.where(end_ok, ends, 1.0), *_intervals(
        mode, events, row_item, codes, ends, end_ok, with_offset < rows, report.warnings))
    faults = _dominance_faults(panel, latent=True)

    def mix(i):
        missing = np.flatnonzero((row_item == i) & ~has_offset) + FIRST_ROW
        return SchemaError(
            f"{name(i)}: TDS rows mix present and missing offsets (rows {missing.tolist()})")

    _raise_first([
        (no_end[:n], lookup.get),
        (mixed, mix),
        (~end_ok, lambda i: _bad_end(name(i), ends[i])),
        (np.isin(np.arange(n), list(faults)), lambda i: ProtocolError(faults[i])),
    ])

    # a state's on-time is the length of its runs, in the file's time units
    lengths = panel.offset - panel.onset
    on_time = [float(lengths[panel.state == j].sum()) for j in range(space.q)]
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
    rest are merged into runs as ``parse_events`` merges its intervals.  A TDS
    item that breaks the TDS rule after its first click, or has no click,
    raises ProtocolError; a tick that :func:`tick_fault` refuses raises ValidationError.
    A failure leaves ``report`` untouched.
    """
    faults = _dominance_faults(panel, latent=True)
    if faults:
        raise ProtocolError(next(iter(faults.values())))
    item, state, onset, offset = panel.runs()
    horizon, t0 = panel.horizons, np.zeros(panel.n)
    if panel.mode == "TDS":  # t0 is the item's first onset, after the latency
        silent = np.bincount(item, minlength=panel.n) == 0
        if silent.any():
            raise ProtocolError("TDS items without any click: "
                                + ", ".join(map(panel.key, np.flatnonzero(silent).tolist())))
        t0 = np.minimum.reduceat(onset, np.searchsorted(item, np.arange(panel.n)))
    fault = tick_fault(tick)
    if fault:
        raise ValidationError(fault)
    at_end = offset == horizon[item]
    span = horizon - t0
    onset, offset = onset.copy(), offset.copy()  # mapped in place
    for t in (onset, offset):
        t -= t0[item]
        t /= span[item]
        if tick > 0:
            t /= tick
            np.round(t, out=t)
            t *= tick
        np.clip(t, 0.0, 1.0, out=t)
    offset[at_end] = 1.0
    if report is not None and panel.mode == "TDS":
        report.latency.update(zip(map(panel.key, range(panel.n)), (t0 / horizon).tolist()))
    return Panel._of(panel.mode, panel.space, panel.keys, np.ones(panel.n), item, state, onset,
                     offset)


def tick_fault(tick: float) -> Optional[str]:
    """Why ``tick`` cannot round the unit map, or None.  It must be finite, and a positive tick
    at least the smallest normal double: a time divided by a smaller one overflows to inf."""
    if not math.isfinite(tick):
        return f"tick {tick} is not finite"
    if 0 < tick < _TINY:
        return f"tick {tick} is below the smallest normal double {_TINY}"
    return None


def validate_panel(panel: Panel) -> list[str]:
    """A normalized panel's violations (empty = OK): horizons other than 1, and the TDS rule."""
    off = sorted(set(panel.horizons.tolist()) - {1.0})
    problems = [f"trajectories carry horizons other than 1: {off}"] if off else []
    return problems + list(_dominance_faults(panel, latent=False).values())
