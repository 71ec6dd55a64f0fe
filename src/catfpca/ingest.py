"""Event-log ingestion: raw click records -> normalized trajectory panels.

TDS records carry an onset only (a dominance lasts until the next click);
TCATA records carry onset/offset pairs per descriptor.  Protocol
normalization shifts TDS trajectories to their first click and rescales
every trajectory to the unit horizon; TCATA keeps its latency.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ProtocolError, SchemaError, ValidationError
from .trajectory import (
    CategoricalTrajectory,
    CellGrid,
    IndicatorVectorTrajectory,
    StateSpace,
    to_indicators,
    union_grid,
)

__all__ = [
    "EventRecord",
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

    def indicators(self) -> list[IndicatorVectorTrajectory]:
        return [to_indicators(it.trajectory, self.space) for it in self.items]

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


def _end_for(end_time, subject: str, condition: str) -> float:
    if isinstance(end_time, Mapping):
        for key in (f"{subject}/{condition}", subject, "default"):
            if key in end_time:
                return float(end_time[key])
        raise SchemaError(f"no end time declared for {subject}/{condition}")
    return float(end_time)


def _overlay_intervals(intervals, end: float) -> CategoricalTrajectory:
    """Build the subset-valued step function from state intervals [on, off)."""
    times = {0.0, end}
    for on, off, _ in intervals:
        times.add(on)
        times.add(off)
    nodes = np.array(sorted(times))
    # active-count overlay: +1 at onset cell, -1 at offset cell, cumulative sum
    q_max = max((j for *_, j in intervals), default=-1) + 1
    diff = np.zeros((nodes.size, max(q_max, 1)), dtype=np.int64)
    for on, off, j in intervals:
        a = int(np.searchsorted(nodes, on))
        b = int(np.searchsorted(nodes, off))
        diff[a, j] += 1
        diff[b, j] -= 1
    active = np.cumsum(diff[:-1], axis=0)
    segments = [frozenset(np.nonzero(active[k] > 0)[0].tolist()) for k in range(nodes.size - 1)]
    return CategoricalTrajectory(nodes, segments)


def _parse_tds_group(pairs, end, report) -> CategoricalTrajectory:
    first = pairs[0][0]
    key = f"{first.subject}/{first.condition}"
    has_offsets = [r.offset is not None for r, _ in pairs]
    if any(has_offsets) and not all(has_offsets):
        rows = [r.row for (r, _), h in zip(pairs, has_offsets) if not h]
        raise SchemaError(f"{key}: TDS rows mix present and missing offsets (rows {rows})")

    ordered = sorted(pairs, key=lambda p: (p[0].onset, p[0].row))
    if all(has_offsets):
        intervals = [(r.onset, min(r.offset, end), j) for r, j in ordered]
    else:
        # dominance lasts until the next click; ties keep the last row in file order
        dedup: dict[float, tuple[EventRecord, int]] = {}
        for r, j in ordered:
            if r.onset in dedup:
                report.warnings["simultaneous_clicks_dropped"] += 1
            dedup[r.onset] = (r, j)
        ordered = sorted(dedup.values(), key=lambda p: p[0].onset)
        onsets = [r.onset for r, _ in ordered] + [end]
        intervals = [(onsets[k], onsets[k + 1], j) for k, (_, j) in enumerate(ordered)]

    traj = _overlay_intervals(intervals, end)
    # dominance must be exclusive and gap-free after the first click
    first_active = next((k for k, s in enumerate(traj.segments) if s), None)
    for k in range(first_active or 0, traj.n_segments):
        card = len(traj.segments[k])
        if card > 1:
            raise ProtocolError(
                f"{key}: overlapping dominance intervals near "
                f"t={traj.breakpoints[k]:g}"
            )
        if card == 0 and first_active is not None and k > first_active:
            raise ProtocolError(
                f"{key}: dominance gap near t={traj.breakpoints[k]:g}"
            )
    return traj


def _parse_tcata_group(pairs, end, report) -> CategoricalTrajectory:
    intervals = []
    for r, j in sorted(pairs, key=lambda p: (p[0].onset, p[0].row)):
        off = r.offset
        if off is None:
            off = end
            report.warnings["unclosed_intervals"] += 1
        if off > end:
            off = end
            report.warnings["intervals_clipped"] += 1
        if off == end:
            report.warnings["intervals_at_end"] += 1
        intervals.append((r.onset, off, j))
    return _overlay_intervals(intervals, end)


def parse_events(
    records: Iterable[EventRecord],
    space: StateSpace,
    mode: str,
    end_time: Union[float, Mapping[str, float]],
    *,
    items: Optional[Sequence[tuple[str, str]]] = None,
) -> tuple[Panel, IngestReport]:
    """Group raw records by (subject, condition) and build a panel.

    Parameters
    ----------
    records : iterable of EventRecord
        Raw click rows; ``row`` indices are used in error messages.
    space : StateSpace
        Declared descriptor list; unknown labels raise SchemaError.
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
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    report = IngestReport(mode=mode)

    # (subject, condition) -> [(record, state index), ...]
    groups: dict[tuple[str, str], list] = {}
    if items is not None:
        for subject, condition in items:
            groups[(str(subject), str(condition))] = []
    for rec in records:
        report.n_rows += 1
        key = (rec.subject, rec.condition)
        if rec.onset < 0:
            raise SchemaError(f"row {rec.row}: negative onset {rec.onset}")
        if rec.offset is not None and rec.offset <= rec.onset:
            raise SchemaError(
                f"row {rec.row}: offset {rec.offset} must exceed onset {rec.onset}"
            )
        j = space.index(rec.state)  # raises ValidationError on unknown label
        end = _end_for(end_time, rec.subject, rec.condition)
        if end <= 0:
            raise SchemaError(f"{rec.subject}/{rec.condition}: end time must be positive")
        if rec.onset >= end:
            raise SchemaError(
                f"row {rec.row}: onset {rec.onset} at or after tasting end {end}"
            )
        if items is not None and key not in groups:
            raise SchemaError(
                f"row {rec.row}: item {key[0]}/{key[1]} not declared in the item list"
            )
        groups.setdefault(key, []).append((rec, j))

        stats = report.per_state.setdefault(rec.state, {"clicks": 0, "total_duration": 0.0})
        stats["clicks"] += 1
        if rec.offset is not None:
            stats["total_duration"] += min(rec.offset, end) - rec.onset

    keys = list(groups) if items is not None else sorted(groups)
    panel_items = []
    for subject, condition in keys:
        pairs = groups[(subject, condition)]
        end = _end_for(end_time, subject, condition)
        if not pairs:
            traj = CategoricalTrajectory([0.0, end], [frozenset()])
        elif mode == "TDS":
            traj = _parse_tds_group(pairs, end, report)
        else:
            traj = _parse_tcata_group(pairs, end, report)
        panel_items.append(PanelItem(subject, condition, traj))
    report.n_items = len(panel_items)
    return Panel(mode, space, panel_items), report


def _quantize(traj: CategoricalTrajectory, tick: float) -> CategoricalTrajectory:
    """Round breakpoints to the tick lattice so union_grid can use exact equality."""
    if tick <= 0:
        return traj
    b = np.round(traj.breakpoints / tick) * tick
    b[0] = 0.0
    b[-1] = traj.horizon
    keep = np.diff(b) > 0
    if not keep.any():
        raise ValidationError(f"tick {tick} coarser than the whole trajectory")
    nodes = np.concatenate([b[:1], b[1:][keep]])
    segments = [s for s, k in zip(traj.segments, keep) if k]
    return CategoricalTrajectory(nodes, segments)


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
    """
    new_items = []
    rejected = []
    for it in panel.items:
        traj = it.trajectory
        if panel.mode == "TDS":
            first_active = next((k for k, s in enumerate(traj.segments) if s), None)
            if first_active is None:
                rejected.append(it.key)
                continue
            t0 = float(traj.breakpoints[first_active])
            latency = t0 / traj.horizon
            if t0 > 0.0:
                traj = traj.shift_origin(t0)
            if any(len(s) != 1 for s in traj.segments):
                raise ProtocolError(f"{it.key}: TDS trajectory is not singleton-valued after its first click")
            if report is not None:
                report.latency[it.key] = latency
        traj = _quantize(traj.normalize_time(), tick)
        new_items.append(PanelItem(it.subject, it.condition, traj))
    if rejected:
        if report is not None:
            report.rejected_subjects.extend(rejected)
        raise ProtocolError(
            "TDS items without any click: " + ", ".join(rejected)
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
        grid = panel.grid()
        for it, ind in zip(panel.items, panel.indicators()):
            if not ind.is_constant_on(grid):
                problems.append(f"{it.key}: not constant on the union grid")
    return problems
