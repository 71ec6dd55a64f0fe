import math
from collections import namedtuple

import numpy as np
import pytest

from catfpca import (
    CatfpcaError,
    CategoricalTrajectory,
    EventTable,
    IngestReport,
    Panel,
    PanelItem,
    ProtocolError,
    SchemaError,
    StateSpace,
    ValidationError,
    apply_protocol_normalization,
    panel_cell_values,
    parse_events,
    union_grid,
    validate_panel,
)
from catfpca.ingest import DEFAULT_TICK, _end_for
from catfpca.io import read_events_csv, write_panel

from conftest import random_panel, traced_peak

SP3 = StateSpace(["A", "B", "C"])
SP2 = StateSpace(["A", "B"])


Rec = namedtuple("Rec", "subject condition state onset offset")


def rec(subject, state, onset, offset=None, condition="p1"):
    return Rec(subject, condition, state, onset, offset)


def parse(records, *args, **kwargs):
    """parse_events of records held in memory, as an EventTable made by from_rows."""
    return parse_events(EventTable.from_rows(records), *args, **kwargs)


def test_parse_tds_consecutive_dominance():
    panel, report = parse(
        [rec("s1", "A", 0.0), rec("s1", "B", 4.0)], SP2, "TDS", 10.0
    )
    traj = panel.items[0].trajectory
    assert np.array_equal(traj.breakpoints, [0.0, 4.0, 10.0])
    assert traj.segments == (frozenset({0}), frozenset({1}))
    assert report.total_warnings == 0


def test_report_durations_are_on_times():
    # onset-only TDS: a dominance lasts until the next click or the end, after a latency
    rows = [rec("s1", "A", 1.0), rec("s1", "B", 4.0), rec("s2", "B", 0.5), rec("s2", "A", 3.0)]
    panel, report = parse(rows, SP3, "TDS", 10.0)
    assert report.per_state == {"A": {"clicks": 2, "total_duration": 3.0 + 7.0},
                                "B": {"clicks": 2, "total_duration": 6.0 + 2.5}}
    # normalization does not touch them: they are in the file's time units
    apply_protocol_normalization(panel, report=report)
    assert report.per_state["A"]["total_duration"] == 10.0
    # TCATA: an unclosed interval lasts to the end, and overlapping runs of a state count once
    rows = [rec("s1", "A", 2.0), rec("s1", "B", 1.0, 3.0), rec("s1", "B", 2.0, 4.0)]
    _, report = parse(rows, SP2, "TCATA", 10.0)
    assert report.per_state == {"A": {"clicks": 1, "total_duration": 8.0},
                                "B": {"clicks": 2, "total_duration": 3.0}}


def test_parse_tcata_overlay():
    panel, _ = parse(
        [rec("s1", "A", 1.0, 3.0), rec("s1", "B", 2.0, 5.0)], SP3, "TCATA", 10.0
    )
    traj = panel.items[0].trajectory
    assert np.array_equal(traj.breakpoints, [0.0, 1.0, 2.0, 3.0, 5.0, 10.0])
    assert traj.segments == (
        frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({1}), frozenset(),
    )


def test_parse_tcata_empty_subject():
    panel, _ = parse(
        [rec("s1", "A", 1.0, 3.0)], SP3, "TCATA", 10.0,
        items=[("s1", "p1"), ("s2", "p1")],
    )
    empty = panel.items[1].trajectory
    assert empty.segments == (frozenset(),)
    assert empty.horizon == 10.0


def test_parse_is_order_insensitive():
    rows = [rec("s1", "A", 1.0, 3.0), rec("s1", "B", 2.0, 5.0), rec("s1", "C", 6.0, 7.0)]
    p1, _ = parse(rows, SP3, "TCATA", 10.0)
    p2, _ = parse(rows[::-1], SP3, "TCATA", 10.0)
    assert p1.items[0].trajectory == p2.items[0].trajectory


def test_tds_simultaneous_clicks_keep_last_row():
    rows = [rec("s1", "A", 0.0), rec("s1", "B", 4.0), rec("s1", "C", 4.0)]
    panel, report = parse(rows, SP3, "TDS", 10.0)
    assert report.warnings["simultaneous_clicks_dropped"] == 1
    assert panel.items[0].trajectory.segments == (frozenset({0}), frozenset({2}))


def test_tds_overlap_and_gap_are_protocol_errors():
    with pytest.raises(ProtocolError, match="overlap"):
        parse([rec("s1", "A", 0.0, 5.0), rec("s1", "B", 3.0, 8.0),
               rec("s1", "A", 8.0, 10.0)], SP3, "TDS", 10.0)
    with pytest.raises(ProtocolError, match="gap"):
        parse([rec("s1", "A", 0.0, 3.0), rec("s1", "B", 5.0, 10.0)],
              SP3, "TDS", 10.0)


def test_unclosed_tcata_interval_closed_at_end_with_warning():
    panel, report = parse([rec("s1", "A", 2.0)], SP2, "TCATA", 10.0)
    assert report.warnings["unclosed_intervals"] == 1
    traj = panel.items[0].trajectory
    assert traj.segments == (frozenset(), frozenset({0}))
    assert traj.evaluate(9.9) == frozenset({0})


def test_schema_errors():
    with pytest.raises(SchemaError, match="negative onset"):
        parse([rec("s1", "A", -1.0)], SP2, "TDS", 10.0)
    with pytest.raises(SchemaError, match="exceed onset"):
        parse([rec("s1", "A", 3.0, 2.0)], SP2, "TCATA", 10.0)
    with pytest.raises(SchemaError, match="after tasting end"):
        parse([rec("s1", "A", 12.0)], SP2, "TDS", 10.0)
    with pytest.raises(SchemaError, match="not declared"):
        parse([rec("s2", "A", 1.0)], SP2, "TDS", 10.0, items=[("s1", "p1")])


def test_end_time_map_lookup():
    panel, _ = parse(
        [rec("s1", "A", 0.0), rec("s2", "A", 0.0)], SP2, "TDS",
        {"s1/p1": 10.0, "s2": 20.0},
    )
    by_subject = {it.subject: it.trajectory.horizon for it in panel.items}
    assert by_subject == {"s1": 10.0, "s2": 20.0}


def test_tds_normalization_shift_then_rescale():
    panel, report = parse(
        [rec("s1", "A", 2.0), rec("s1", "B", 5.0)], SP2, "TDS", 12.0
    )
    raw = panel.items[0].trajectory
    assert raw.segments[0] == frozenset()  # latency before the first click
    norm = apply_protocol_normalization(panel, report=report)
    traj = norm.items[0].trajectory
    assert traj.horizon == 1.0
    assert traj.segments == (frozenset({0}), frozenset({1}))
    np.testing.assert_allclose(traj.breakpoints, [0.0, 0.3, 1.0], atol=1e-9)
    assert report.latency["s1/p1"] == pytest.approx(2.0 / 12.0)


def test_tds_sum_to_one_after_normalization():
    rows = [rec("s1", "A", 1.0), rec("s1", "B", 4.0),
            rec("s2", "B", 0.5), rec("s2", "A", 3.0)]
    panel = apply_protocol_normalization(parse(rows, SP2, "TDS", 10.0)[0])
    grid = panel.grid()
    Z = panel_cell_values(panel, grid, exact=True)
    assert np.array_equal(Z.sum(axis=1), np.ones((panel.n, grid.m)))


def test_tcata_normalization_keeps_latency_and_empty_ends():
    panel, _ = parse([rec("s1", "A", 2.0, 8.0)], SP2, "TCATA", 10.0)
    norm = apply_protocol_normalization(panel)
    traj = norm.items[0].trajectory
    assert traj.horizon == 1.0
    assert traj.evaluate(0.0) == frozenset()
    assert traj.evaluate(1.0) == frozenset()
    assert traj.evaluate(0.5) == frozenset({0})


def test_tds_without_clicks_rejected_by_subject():
    panel, _ = parse(
        [rec("s1", "A", 0.0)], SP2, "TDS", 10.0,
        items=[("s1", "p1"), ("ghost", "p1")],
    )
    with pytest.raises(ProtocolError, match="ghost"):
        apply_protocol_normalization(panel)


def test_tick_rounding_merges_near_equal_breakpoints():
    rows = [rec("s1", "A", 0.0), rec("s1", "B", 0.3000000004),
            rec("s2", "A", 0.0), rec("s2", "B", 0.2999999996)]
    panel = apply_protocol_normalization(parse(rows, SP2, "TDS", 1.0)[0])
    grid = union_grid(panel.trajectories)
    assert np.array_equal(grid.nodes, [0.0, 0.3, 1.0])


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
@pytest.mark.parametrize("tick", [0.3, 0.6, 0.7, 2.0])
def test_every_normalized_horizon_is_exactly_one(mode, tick):
    # times near the end map past the last lattice point below 1: 0.6 rounds 0.95 to 1.2
    rows = [rec("s1", "A", 0.0, 9.5), rec("s1", "B", 9.5, 10.0), rec("s2", "B", 0.0, 10.0),
            rec("s3", "A", 1.0, 9.6), rec("s3", "B", 9.6, 10.0)]  # TDS: 8.6 / 9 of the way
    panel = apply_protocol_normalization(parse(rows, SP2, mode, 10.0)[0], tick=tick)
    assert panel.horizons.tolist() == [1.0] * 3
    assert validate_panel(panel) == []


@pytest.mark.parametrize("tick", [math.inf, -math.inf, math.nan])
def test_a_tick_that_is_not_finite_is_a_validation_error(tick):
    panel = parse([rec("s1", "A", 0.0, 4.0)], SP2, "TCATA", 10.0)[0]
    with pytest.raises(ValidationError, match=f"^tick {tick} is not finite$"):
        apply_protocol_normalization(panel, tick=tick)


@pytest.mark.parametrize("tick", [1e-320, 5e-324, float(np.nextafter(2.0 ** -1022, 0))])
def test_a_subnormal_tick_is_a_validation_error(tick):
    # t / tick would overflow to inf, and the clip would send every time above 0 to 1
    rows = [rec("s1", "A", 0.0, 5.0), rec("s1", "B", 5.0, 10.0), rec("s2", "A", 0.0, 10.0)]
    panel = parse(rows, SP2, "TCATA", 10.0)[0]
    with pytest.raises(ValidationError, match=f"^tick {tick} is below the smallest normal "
                                              r"double 2\.2250738585072014e-308$"):
        apply_protocol_normalization(panel, tick=tick)
    # the smallest normal tick divides without overflow: rounding to it leaves every time as is
    runs = [[a.tolist() for a in apply_protocol_normalization(panel, tick=t).runs()]
            for t in (2.0 ** -1022, 0.0)]
    assert runs[0] == runs[1]
    assert runs[0][1:] == [[0, 1, 0], [0.0, 0.5, 0.0], [0.5, 1.0, 1.0]]  # state, onset, offset


def test_validate_panel_reports_problems():
    rows = [rec("s1", "A", 0.0), rec("s1", "B", 4.0)]
    panel = apply_protocol_normalization(parse(rows, SP2, "TDS", 10.0)[0])
    assert validate_panel(panel) == []

    def panel_of(mode, *trajectories):
        return Panel(mode, SP2, [PanelItem(f"s{i}", "p1", CategoricalTrajectory(b, segments))
                                 for i, (b, segments) in enumerate(trajectories)])

    bad = panel_of("TDS", ([0.0, 0.5, 1.0], [{0}, {1}]), ([0.0, 0.5, 1.0], [{0, 1}, {0}]),
                   ([0.0, 0.25, 1.0], [set(), {1}]), ([0.0, 0.5, 0.75, 1.0], [{0}, set(), {1}]))
    assert validate_panel(bad) == ["s1/p1: overlapping dominance intervals near t=0",
                                   "s2/p1: dominance gap near t=0",  # a latency kept
                                   "s3/p1: dominance gap near t=0.5"]
    # a TCATA path may hold any subset of states, at its start and its end too
    tcata = panel_of("TCATA", ([0.0, 0.5, 1.0], [{0, 1}, {0}]), ([0.0, 0.5, 1.0], [set(), {1}]))
    assert validate_panel(tcata) == []
    assert validate_panel(panel_of("TCATA", ([0.0, 1.0], [{0}]), ([0.0, 2.0], [{0}]))) == [
        "trajectories carry horizons other than 1: [2.0]"]
    # one horizon is not enough: a normalized panel's is 1
    assert validate_panel(panel_of("TDS", ([0.0, 10.0], [{0}]), ([0.0, 4.0, 10.0], [{0}, set()]),
                                   ([0.0, 0.5], [{1}]))) == [
        "trajectories carry horizons other than 1: [0.5, 10.0]", "s1/p1: dominance gap near t=4"]


def test_panel_of_its_own_items_has_the_same_arrays(rng):
    """Panel(mode, space, items) reads the item views back into the runs they were built from."""
    subjects = [f"s{i}" for i in range(6)]
    tds = [rec(s, "ABC"[int(rng.integers(3))], float(on)) for s in subjects
           for on in np.sort(rng.uniform(0.0, 9.0, 5))]
    tcata = [rec(subjects[int(rng.integers(6))], "ABC"[int(rng.integers(3))], float(on),
                 float(on + rng.uniform(0.1, 3.0))) for on in rng.uniform(0.0, 9.0, 40)]
    panels = [random_panel(rng, "TDS", n=12, q=4), random_panel(rng, "TCATA", n=12, q=4),
              *(apply_protocol_normalization(parse(rows, SP3, mode, 10.0)[0], tick=1e-3)
                for rows, mode in ((tds, "TDS"), (tcata, "TCATA")))]
    for panel in panels:
        back = Panel(panel.mode, panel.space, panel.items)
        assert back.keys == panel.keys
        for a, b in zip((back.horizons, *back.runs()), (panel.horizons, *panel.runs())):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def test_panel_round_trip_through_files(tmp_path):
    from catfpca.io import read_panel, write_panel

    rows = [rec("s1", "A", 1.0, 3.0), rec("s1", "B", 2.0, 5.0),
            rec("s2", "B", 4.0, 6.0)]
    panel = apply_protocol_normalization(parse(rows, SP3, "TCATA", 10.0)[0])
    write_panel(panel, tmp_path / "panel.csv")
    back, _, meta = read_panel(tmp_path / "panel.csv")
    assert meta["normalized"] is True
    assert back.mode == panel.mode
    assert [it.key for it in back.items] == [it.key for it in panel.items]
    for a, b in zip(panel.items, back.items):
        assert a.trajectory == b.trajectory


def test_same_subject_multiple_conditions(tmp_path):
    from catfpca.io import read_panel, write_panel

    rows = [rec("s1", "A", 0.0, condition="p1"), rec("s1", "B", 4.0, condition="p1"),
            rec("s1", "B", 0.0, condition="p2")]
    panel, _ = parse(rows, SP2, "TDS", {"s1/p1": 10.0, "s1/p2": 8.0})
    assert [it.key for it in panel.items] == ["s1/p1", "s1/p2"]
    assert panel.items[0].trajectory.horizon == 10.0
    assert panel.items[1].trajectory.horizon == 8.0
    norm = apply_protocol_normalization(panel)
    write_panel(norm, tmp_path / "panel.csv")
    back, _, _ = read_panel(tmp_path / "panel.csv")
    for a, b in zip(norm.items, back.items):
        assert a.key == b.key and a.trajectory == b.trajectory


# --- reference: the row-by-row, item-by-item ingest that the array passes replace ---

def ref_overlay(intervals, end):
    """The subset-valued step function of state intervals [on, off), one item at a time."""
    times = {0.0, end}
    for on, off, _ in intervals:
        times.add(on)
        times.add(off)
    nodes = np.sort(np.fromiter(times, np.float64))  # a NaN end time sorts last in every run
    q_max = max((j for *_, j in intervals), default=-1) + 1
    diff = np.zeros((nodes.size, max(q_max, 1)), dtype=np.int64)
    for on, off, j in intervals:
        diff[int(np.searchsorted(nodes, on)), j] += 1
        diff[int(np.searchsorted(nodes, off)), j] -= 1
    active = np.cumsum(diff[:-1], axis=0)
    segments = [frozenset(np.nonzero(active[k] > 0)[0].tolist()) for k in range(nodes.size - 1)]
    return CategoricalTrajectory(nodes, segments)


def reference_runs(items, q):
    """(item, state, onset, offset) of every maximal run, item by item, then state by state."""
    runs = []
    for i, it in enumerate(items):
        b, segments = it.trajectory.breakpoints.tolist(), it.trajectory.segments
        for j in range(q):
            on = [j in s for s in segments] + [False]
            runs += [(i, j, b[k], b[e])
                     for k in range(len(segments)) if on[k] and (k == 0 or not on[k - 1])
                     for e in [on.index(False, k)]]
    return runs


def ref_dominance(key, traj):
    """Raise for the first segment after the first click that does not hold one state."""
    first_active = next((k for k, s in enumerate(traj.segments) if s), None)
    for k in range(first_active or 0, traj.n_segments):
        card = len(traj.segments[k])
        if card > 1:
            raise ProtocolError(
                f"{key}: overlapping dominance intervals near t={traj.breakpoints[k]:g}")
        if card == 0 and first_active is not None and k > first_active:
            raise ProtocolError(f"{key}: dominance gap near t={traj.breakpoints[k]:g}")


def ref_check_end(key, end):
    if not 0 < end < math.inf:
        raise SchemaError(f"{key}: end time must be positive and finite, got {end}")


def ref_tds_group(pairs, end, report):
    first = pairs[0][0]
    key = f"{first.subject}/{first.condition}"
    has_offsets = [r.offset is not None for r, _ in pairs]
    if any(has_offsets) and not all(has_offsets):
        rows = [r.row for (r, _), h in zip(pairs, has_offsets) if not h]
        raise SchemaError(f"{key}: TDS rows mix present and missing offsets (rows {rows})")
    ref_check_end(key, end)
    ordered = sorted(pairs, key=lambda p: (p[0].onset, p[0].row))
    if all(has_offsets):
        intervals = [(r.onset, min(r.offset, end), j) for r, j in ordered]
    else:
        dedup = {}
        for r, j in ordered:
            if r.onset in dedup:
                report.warnings["simultaneous_clicks_dropped"] += 1
            dedup[r.onset] = (r, j)
        ordered = sorted(dedup.values(), key=lambda p: p[0].onset)
        onsets = [r.onset for r, _ in ordered] + [end]
        intervals = [(onsets[k], onsets[k + 1], j) for k, (_, j) in enumerate(ordered)]
    traj = ref_overlay(intervals, end)
    ref_dominance(key, traj)
    return traj


def ref_tcata_group(pairs, end, report):
    first = pairs[0][0]
    ref_check_end(f"{first.subject}/{first.condition}", end)
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
    return ref_overlay(intervals, end)


Row = namedtuple("Row", Rec._fields + ("row",))  # a record and its row number


def ref_parse(records, space, mode, end_time, items=None):
    if mode not in ("TDS", "TCATA"):
        raise ValidationError(f"mode must be one of ('TDS', 'TCATA'), got {mode!r}")
    records = [Row(*rec, number) for number, rec in enumerate(records, start=2)]
    for rec in records:  # NaN timestamps are rejected while the rows are read
        if rec.onset != rec.onset:
            raise SchemaError(f"row {rec.row}: onset {rec.onset} is not a number")
        if rec.offset is not None and rec.offset != rec.offset:
            raise SchemaError(f"row {rec.row}: offset {rec.offset} is not a number")
    report = IngestReport(mode=mode)
    groups = {}
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
                f"row {rec.row}: offset {rec.offset} must exceed onset {rec.onset}")
        j = space.index(rec.state)
        end = _end_for(end_time, rec.subject, rec.condition)
        if end <= 0:
            ref_check_end(f"{rec.subject}/{rec.condition}", end)
        if rec.onset >= end:
            raise SchemaError(f"row {rec.row}: onset {rec.onset} at or after tasting end {end}")
        if items is not None and key not in groups:
            raise SchemaError(
                f"row {rec.row}: item {key[0]}/{key[1]} not declared in the item list")
        groups.setdefault(key, []).append((rec, j))
        report.per_state.setdefault(rec.state, {"clicks": 0})["clicks"] += 1
    keys = list(groups) if items is not None else sorted(groups)
    panel_items = []
    for subject, condition in keys:
        pairs = groups[(subject, condition)]
        end = _end_for(end_time, subject, condition)
        if not pairs:
            ref_check_end(f"{subject}/{condition}", end)
            traj = CategoricalTrajectory([0.0, end], [frozenset()])
        elif mode == "TDS":
            traj = ref_tds_group(pairs, end, report)
        else:
            traj = ref_tcata_group(pairs, end, report)
        panel_items.append(PanelItem(subject, condition, traj))
    # each state's on-time: the lengths of its runs in panel order, summed by np.sum
    runs = reference_runs(panel_items, space.q)
    for label, stats in report.per_state.items():
        j = space.index(label)
        lengths = np.array([off - on for _, state, on, off in runs if state == j], dtype=float)
        stats["total_duration"] = float(lengths.sum())
    report.n_items = len(panel_items)
    return Panel(mode, space, panel_items), report


def ref_unit_map(b, t0, tick):
    """Breakpoints ``b`` through their item's map onto [0, 1]: shifted to t0, rescaled,
    rounded to the tick and clipped; the horizon goes to exactly 1."""
    x = (b - t0) / (b[-1] - t0)
    if tick > 0:
        x = np.round(x / tick) * tick
    x = np.clip(x, 0.0, 1.0)
    x[-1] = 1.0
    return x


def ref_normalize(panel, tick=DEFAULT_TICK, report=None):
    """Item by item: a TDS item loses its latency, every breakpoint goes through the
    item's map onto [0, 1], and each segment mapped to zero length is dropped."""
    first, rejected = [], []
    for it in panel.items:
        segments = it.trajectory.segments
        k = next((k for k, s in enumerate(segments) if s), None) if panel.mode == "TDS" else 0
        if panel.mode == "TDS":
            ref_dominance(it.key, it.trajectory)
            if k is None:
                rejected.append(it.key)
        first.append(k)
    if rejected:
        raise ProtocolError("TDS items without any click: " + ", ".join(rejected))
    if not math.isfinite(tick):
        raise ValidationError(f"tick {tick} is not finite")
    new_items, latencies = [], {}
    for it, k in zip(panel.items, first):
        traj = it.trajectory
        t0 = float(traj.breakpoints[k])
        latencies[it.key] = t0 / traj.horizon
        x = ref_unit_map(traj.breakpoints[k:], t0, tick)
        keep = x[:-1] < x[1:]  # monotone: a kept segment starts where the last kept one ends
        nodes = np.concatenate([[0.0], x[1:][keep]])
        segments = [s for s, kept in zip(traj.segments[k:], keep) if kept]
        new_items.append(PanelItem(it.subject, it.condition,
                                   CategoricalTrajectory(nodes, segments)))
    if report is not None and panel.mode == "TDS":  # only a panel that passes records them
        report.latency.update(latencies)
    return Panel(panel.mode, panel.space, new_items)


def outcome(parse, normalize, *args, tick=DEFAULT_TICK, **kwargs):
    """Every result of parse + normalize, bit for bit, up to the first error (type and text)."""
    stages = []
    try:
        panel, report = parse(*args, **kwargs)
        stages.append(snapshot(panel, report))
        stages.append(snapshot(normalize(panel, tick=tick, report=report), report))
    except CatfpcaError as exc:
        stages.append((type(exc).__name__, str(exc)))
    return stages


def snapshot(panel, report):
    return ([(it.key, it.trajectory.segments, it.trajectory.breakpoints.tobytes())
             for it in panel.items], report.to_dict())


def random_events(rng, mode, offsets):
    """Records of a random panel in shuffled file order, with its end times and item list.

    Onsets sit on a coarse lattice, so simultaneous clicks, touching and
    overlapping intervals and offsets at the end are common.
    """
    q = int(rng.choice([2, 3, 4, 11]))  # 11 states take two bytes per subset key
    space = StateSpace([f"S{j}" for j in range(q)])
    keys = [(f"s{i}", f"p{c}") for i in range(int(rng.integers(1, 5)))
            for c in range(int(rng.integers(1, 3)))]
    ends = {key: float(rng.choice([1.0, 7.5, 10.0])) for key in keys}
    lattice = 8
    records = []
    for (subject, condition), end in ends.items():
        if rng.random() < 0.15:
            continue  # an item without rows
        grid = [end * k / lattice for k in range(lattice)]
        if mode == "TDS" and not offsets:
            for _ in range(int(rng.integers(1, 7))):
                records.append((subject, condition, int(rng.integers(q)), rng.choice(grid), None))
        elif mode == "TDS":
            cuts = sorted(set(rng.choice(grid, size=int(rng.integers(1, 5))).tolist()))
            for a, b in zip(cuts, cuts[1:] + [end]):
                if rng.random() < 0.05:
                    b = end * (1 + 2 * rng.random())  # an overlap, or past the end
                if rng.random() < 0.05 and b > a + end / lattice:
                    b -= end / (2 * lattice)  # a gap
                records.append((subject, condition, int(rng.integers(q)), a, b))
        else:
            for _ in range(int(rng.integers(1, 9))):
                a = float(rng.choice(grid))
                off = a + end * int(rng.integers(1, lattice)) / lattice
                kind = rng.random()
                off = (None if kind < 0.1 else math.inf if kind < 0.15
                       else end if kind < 0.25 else off)
                records.append((subject, condition, int(rng.integers(q)), a, off))
    records = [Rec(s, c, space.states[j], float(on), off)
               for s, c, j, on, off in (records[k] for k in rng.permutation(len(records)))]
    if rng.random() < 0.5:
        end_time = ends[keys[0]] if len(set(ends.values())) == 1 else {
            f"{s}/{c}": e for (s, c), e in ends.items()}
    else:  # by subject where one end time fits all its items, else by item, default last
        end_time = {"default": ends[keys[-1]]}
        for (s, c), e in ends.items():
            if all(e2 == e for (s2, _), e2 in ends.items() if s2 == s):
                end_time[s] = e
            elif (s, c) != keys[-1]:
                end_time[f"{s}/{c}"] = e
    items = None
    if rng.random() < 0.4:
        items = [keys[k] for k in rng.permutation(len(keys))]
        if mode == "TCATA" or rng.random() < 0.3:  # TDS rejects an item without clicks
            items.append(("extra", "p9"))
            end_time = end_time if isinstance(end_time, float) else {**end_time, "extra/p9": 5.0}
    if rng.random() < 0.15:
        records, end_time = corrupt(rng, records, end_time)
    return records, space, end_time, items


def corrupt(rng, records, end_time):
    """One or two bad rows, or one bad end time."""
    records = list(records)
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(len(records))) if records else None
        kind = int(rng.integers(6))
        if k is None:
            break
        r = records[k]
        if kind == 0:
            records[k] = r._replace(onset=-1.0)
        elif kind == 1 and r.offset is not None:
            records[k] = r._replace(offset=r.onset)
        elif kind == 2:
            records[k] = r._replace(state="unknown")
        elif kind == 3:
            records[k] = r._replace(onset=1e9)
        elif kind == 4:
            bad = float(rng.choice([0.0, -1.0, math.nan, math.inf]))
            end_time = bad if isinstance(end_time, float) else {
                **end_time, f"{r.subject}/{r.condition}": bad}
        elif isinstance(end_time, dict):
            end_time = {key: e for key, e in end_time.items()
                        if key not in ("default", r.subject, f"{r.subject}/{r.condition}")}
    return records, end_time


@pytest.mark.parametrize("mode,offsets", [("TDS", False), ("TDS", True), ("TCATA", True)])
def test_array_passes_equal_the_per_item_reference(mode, offsets):
    rng = np.random.default_rng(7 + len(mode) + offsets)
    seen = set()
    for _ in range(300):
        records, space, end_time, items = random_events(rng, mode, offsets)
        tick = float(rng.choice([DEFAULT_TICK, 0.0, 1 / 16, 0.6]))
        ref = outcome(ref_parse, ref_normalize, records, space, mode, end_time, items=items,
                      tick=tick)
        new = outcome(parse, apply_protocol_normalization, records, space, mode, end_time,
                      items=items, tick=tick)
        assert new == ref
        seen.add(ref[-1][0] if isinstance(ref[-1][0], str) else "ok")
    assert "ok" in seen  # most panels ingest; the rest fail the same way on both sides


def test_first_bad_row_in_file_order_is_reported():
    good = rec("s1", "A", 0.5, 1.5)
    bad = [rec("s1", "A", 2.0, 1.0),    # offset before onset
           rec("s1", "A", -1.0, 1.0),   # negative onset
           rec("s1", "Z", 1.0, 2.0),    # unknown label
           rec("s2", "B", 12.0, 13.0),  # onset after the end
           rec("s3", "B", 1.0, 2.0)]    # item not declared
    expected = ["row 3: offset 1.0 must exceed onset 2.0",
                "row 4: negative onset -1.0",
                "unknown state label 'Z'",
                "row 6: onset 12.0 at or after tasting end 10.0",
                "row 7: item s3/p1 not declared in the item list"]
    items = [("s1", "p1"), ("s2", "p1")]
    for k, message in enumerate(expected):
        rows = [good] * (k + 1) + bad[k:]  # bad[k] is row k + 3
        with pytest.raises(ValidationError) as new:
            parse(rows, SP2, "TCATA", 10.0, items=items)
        with pytest.raises(ValidationError) as ref:
            ref_parse(rows, SP2, "TCATA", 10.0, items=items)
        assert str(new.value) == str(ref.value) == message
        assert type(new.value) is type(ref.value)


def table_of(records):
    """The EventTable of records, built directly: from_rows would reject a NaN onset."""
    keys = list(dict.fromkeys((r.subject, r.condition) for r in records))
    labels = list(dict.fromkeys(r.state for r in records))
    return EventTable(
        tuple(keys), tuple(labels),
        np.array([keys.index((r.subject, r.condition)) for r in records], dtype=np.int64),
        np.array([labels.index(r.state) for r in records], dtype=np.int64),
        np.array([r.onset for r in records], dtype=np.float64),
        np.array([math.nan if r.offset is None else r.offset for r in records]))


NO_END = {"s1/p1": 10.0}  # s9/p1 has no end time
BELOW_ZERO = {"default": -5.0}  # s1/p1 is declared, s9/p1 ends at -5


@pytest.mark.parametrize("record,end_time,message", [
    # each row fails its check and every later one that can hold with it; an end time
    # that is missing excludes one at or below zero and one at or before the onset
    (rec("s9", "Z", math.nan, 5.0), NO_END, "row 2: onset nan is not a number"),
    (rec("s9", "Z", math.nan, 5.0), BELOW_ZERO, "row 2: onset nan is not a number"),
    (rec("s9", "Z", -1.0, -3.0), NO_END, "row 2: negative onset -1.0"),
    (rec("s9", "Z", -1.0, -3.0), BELOW_ZERO, "row 2: negative onset -1.0"),
    (rec("s9", "Z", 2.0, 1.0), NO_END, "row 2: offset 1.0 must exceed onset 2.0"),
    (rec("s9", "Z", 2.0, 1.0), BELOW_ZERO, "row 2: offset 1.0 must exceed onset 2.0"),
    (rec("s9", "Z", 1.0, 2.0), NO_END, "unknown state label 'Z'"),
    (rec("s9", "Z", 1.0, 2.0), BELOW_ZERO, "unknown state label 'Z'"),
    (rec("s9", "A", 1.0, 2.0), NO_END, "no end time declared for s9/p1"),
    (rec("s9", "A", 1.0, 2.0), {"s9": "x"}, "end time of s9/p1 is not a number: 'x'"),
    (rec("s9", "A", 1.0, 2.0), BELOW_ZERO,
     "s9/p1: end time must be positive and finite, got -5.0"),
    (rec("s9", "A", 12.0, 13.0), {"default": 10.0},
     "row 2: onset 12.0 at or after tasting end 10.0"),
    (rec("s9", "A", 1.0, 2.0), {"default": 10.0},
     "row 2: item s9/p1 not declared in the item list"),
])
def test_a_row_raises_its_first_failing_check(record, end_time, message):
    items = [("s1", "p1")]
    with pytest.raises(ValidationError) as new:
        parse_events(table_of([record]), SP2, "TCATA", end_time, items=items)
    with pytest.raises(ValidationError) as ref:
        ref_parse([record], SP2, "TCATA", end_time, items=items)
    assert str(new.value) == str(ref.value) == message
    assert type(new.value) is type(ref.value)


@pytest.mark.parametrize("records,end_time,message", [
    # each item fails its check and every later one that can hold with it: a bad end time
    # leaves the item's rows out, so no dominance fault can hold with one
    ([], {}, "no end time declared for s1/p1"),
    ([rec("s1", "A", 0.0, 6.0), rec("s1", "B", 6.0)], math.nan,
     "s1/p1: TDS rows mix present and missing offsets (rows [3])"),
    ([rec("s1", "A", 0.0, 6.0), rec("s1", "B", 6.0)], math.inf,
     "s1/p1: TDS rows mix present and missing offsets (rows [3])"),
    ([rec("s1", "A", 0.0, 6.0), rec("s1", "B", 4.0, 10.0)], math.inf,
     "s1/p1: end time must be positive and finite, got inf"),
    ([rec("s1", "A", 0.0, 6.0), rec("s1", "B", 4.0, 10.0)], 10.0,
     "s1/p1: overlapping dominance intervals near t=4"),
])
def test_an_item_raises_its_first_failing_check(records, end_time, message):
    items = [("s1", "p1")]
    with pytest.raises(ValidationError) as new:
        parse_events(table_of(records), SP2, "TDS", end_time, items=items)
    with pytest.raises(ValidationError) as ref:
        ref_parse(records, SP2, "TDS", end_time, items=items)
    assert str(new.value) == str(ref.value) == message
    assert type(new.value) is type(ref.value)


EVENTS_HEADER = "subject,product,descriptor,onset,offset"
OFFSET_FIRST = "offset,onset,subject,product,descriptor"  # a short row lacks its subject fields


@pytest.mark.parametrize("header,lines,message", [
    # within a row: a bad onset, a bad offset, too few fields, a NaN onset, a NaN offset
    (EVENTS_HEADER, ["s1,p1,A,abc,xyz"], "row 2: bad onset 'abc'"),
    (EVENTS_HEADER, ["s1,p1,A"], "row 2: bad onset None"),
    (EVENTS_HEADER, ["s1,p1,A,nan,xyz"], "row 2: bad offset 'xyz'"),
    (OFFSET_FIRST, ["xyz,nan,s1"], "row 2: bad offset 'xyz'"),
    (OFFSET_FIRST, ["nan,nan,s1,p1"], "row 2: too few fields"),
    (EVENTS_HEADER, ["s1,p1,A,nan,nan"], "row 2: onset nan is not a number"),
    (EVENTS_HEADER, ["s1,p1,A,1,NaN"], "row 2: offset nan is not a number"),
    # across rows: file order, where blank lines are not counted
    (EVENTS_HEADER, ["s1,p1,A,1,2", "s1,p1,A,1,nan", "s1,p1,A,x,2"],
     "row 3: offset nan is not a number"),
    (EVENTS_HEADER, ["", "s1,p1,A,1,2", "", "s1,p1,A,x,2", "s1,p1"], "row 3: bad onset 'x'"),
])
def test_events_file_errors_name_the_first_failing_row(tmp_path, header, lines, message):
    path = tmp_path / "events.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        read_events_csv(path)
    assert str(exc.value) == f"{path} {message}"


def test_events_file_short_rows_blank_lines_and_byte_order_mark(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(f"\ufeff{EVENTS_HEADER}\n\ns1,p1,A,1\n\n\ns2,p1,B,-0,3\n".encode())
    table = read_events_csv(path)
    assert (table.keys, table.labels) == ((("s1", "p1"), ("s2", "p1")), ("A", "B"))
    assert len(table) == 2  # a row lacking only its offset has none
    assert table.onset.tobytes() == np.array([1.0, -0.0]).tobytes()
    assert math.isnan(table.offset[0]) and table.offset[1] == 3.0


def test_records_in_memory_read_as_file_rows():
    table = EventTable.from_rows([rec("s1", "A", 1.0, 0.0), rec("s1", "B", 2.0)])
    assert len(table) == 2 and table.onset.tolist() == [1.0, 2.0]
    assert table.offset[0] == 0.0 and math.isnan(table.offset[1])  # 0.0 is an offset
    for record, message in [  # the second record is row 3
        (rec("s1", "A", "x"), "row 3: bad onset 'x'"),
        (rec("s1", "A", math.nan, math.nan), "row 3: onset nan is not a number"),
        (rec("s1", "A", 1.0, math.nan), "row 3: offset nan is not a number"),
    ]:
        with pytest.raises(SchemaError, match=f"^{message}$"):
            EventTable.from_rows([rec("s1", "A", 0.0), record])


def test_nan_onset_of_a_table_built_directly_is_a_schema_error():
    table = EventTable((("s", "p"),), ("A",), np.array([0, 0]), np.array([0, 0]),
                       np.array([math.nan, 1.0]), np.array([math.nan, 2.0]))
    with pytest.raises(SchemaError, match=r"^row 2: onset nan is not a number$"):
        parse_events(table, StateSpace(["A"]), "TCATA", 4.0)


def test_first_bad_item_in_panel_order_is_reported():
    mixed = [rec("a", "A", 0.0, 6.0), rec("a", "B", 6.0)]
    overlap = [rec("b", "A", 0.0, 6.0), rec("b", "B", 4.0, 10.0)]
    gap = [rec("c", "A", 0.0, 3.0), rec("c", "B", 5.0, 10.0)]
    for rows, message in [
        (gap + overlap + mixed, "a/p1: TDS rows mix present and missing offsets (rows [7])"),
        (gap + overlap, "b/p1: overlapping dominance intervals near t=4"),
        (gap, "c/p1: dominance gap near t=3"),
    ]:
        with pytest.raises(ValidationError) as new:
            parse(rows, SP2, "TDS", 10.0)
        with pytest.raises(ValidationError) as ref:
            ref_parse(rows, SP2, "TDS", 10.0)
        assert str(new.value) == str(ref.value) == message
        assert type(new.value) is type(ref.value)


@pytest.mark.parametrize("tick", [DEFAULT_TICK, 0.0, 0.3, 0.6, math.inf, math.nan])
def test_normalization_failures_match_the_reference(tick):
    """Hand-built panels that parse_events never returns: each normalizes, or fails, as the
    reference does."""
    def traj(breaks, segments):
        return CategoricalTrajectory(breaks, segments)

    silent = traj([0.0, 4.0], [set()])
    gap = traj([0.0, 1.0, 2.0, 3.0, 4.0], [set(), {0}, set(), {1}])
    double = traj([0.0, 1.0, 2.0], [{0}, {0, 1}])
    fine = traj([0.0, 1.5, 2.0, 3.0], [set(), {1}, {0}])
    outcomes = set()
    # the map sends a segment to zero length, which is dropped: 5e-324 / 8 rounds to zero,
    # and 1e16 and 1e16 + 2 both become 1e16 when shifted by the first click at 1
    tiny = traj([0.0, 5e-324, 8.0], [{0}, {1}])
    far = traj([0.0, 1.0, 1e16, 1e16 + 2, 2e16], [set(), {0}, {1}, {0}])
    for mode, trajectories in [
        ("TDS", [fine, silent, double]), ("TDS", [silent, gap, fine]), ("TDS", [fine, silent]),
        ("TDS", [fine, tiny]), ("TDS", [fine, far]), ("TDS", [fine, far, gap]),
        ("TCATA", [gap, double, fine]), ("TCATA", [fine, tiny]),
    ]:
        panel = Panel(mode, SP2, [PanelItem(f"s{i}", "p", t) for i, t in enumerate(trajectories)])
        results = []
        for normalize in (apply_protocol_normalization, ref_normalize):
            report = IngestReport(mode=mode)
            try:
                results.append(snapshot(normalize(panel, tick=tick, report=report), report))
            except CatfpcaError as exc:
                results.append((type(exc).__name__, str(exc), report.to_dict()))
        assert results[0] == results[1]
        if isinstance(results[0][0], str):  # a failure leaves the report untouched
            assert results[0][2] == IngestReport(mode=mode).to_dict()
        outcomes.add(results[0][1] if isinstance(results[0][0], str) else "ok")
    assert len(outcomes) >= 2
    assert ("ok" in outcomes) == math.isfinite(tick)


# --- memory: each ingest step holds a few typed columns per event row ---------

# the most each step may allocate per event row at its peak
ROW_BYTES = {"read_events_csv": 100, "parse_events": 170, "apply_protocol_normalization": 150,
             "write_panel": 250}
ALLOWANCE = 1 << 19  # what does not grow with the rows: per-item keys, one block of text


def tcata_log(path, subjects=200, products=4, q=6, runs=5, seed=7):
    """A TCATA events file of a 40 s tasting logged in milliseconds; returns its descriptors.

    Each (subject, product, descriptor) has ``runs`` on/off pairs at
    strictly increasing times, so the file has subjects * products * q * runs
    rows.
    """
    rng = np.random.default_rng(seed)
    items = [(f"S{s:04d}", f"P{p}") for s in range(subjects) for p in range(products)]
    labels = [f"D{j}" for j in range(q)]
    times = np.cumsum(rng.integers(1, 700, size=(len(items), q, 2 * runs)), axis=-1) / 1000
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("subject,product,descriptor,onset,offset\n")
        for (subject, product), item_times in zip(items, times.tolist()):
            for label, t in zip(labels, item_times):
                fh.writelines(f"{subject},{product},{label},{on:.3f},{off:.3f}\n"
                              for on, off in zip(t[::2], t[1::2]))
    return labels


def test_ingest_steps_peak_memory_per_row_is_bounded(tmp_path):
    labels = tcata_log(tmp_path / "events.csv")
    peaks = {}
    events, peaks["read_events_csv"] = traced_peak(read_events_csv, tmp_path / "events.csv")
    rows = len(events)
    assert rows >= 20_000
    (panel, report), peaks["parse_events"] = traced_peak(
        parse_events, events, StateSpace(labels), "TCATA", 40.0)
    del events
    panel, peaks["apply_protocol_normalization"] = traced_peak(
        apply_protocol_normalization, panel, report=report)
    _, peaks["write_panel"] = traced_peak(write_panel, panel, tmp_path / "panel.csv")
    per_row = {step: round(peak / rows) for step, peak in peaks.items()}
    assert all(peak <= ROW_BYTES[step] * rows + ALLOWANCE for step, peak in peaks.items()), per_row
