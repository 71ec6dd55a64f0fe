import numpy as np
import pytest

from catfpca import (
    EventRecord,
    Panel,
    ProtocolError,
    SchemaError,
    StateSpace,
    apply_protocol_normalization,
    panel_cell_values,
    parse_events,
    union_grid,
    validate_panel,
)

SP3 = StateSpace(["A", "B", "C"])
SP2 = StateSpace(["A", "B"])


def rec(subject, state, onset, offset=None, row=-1, condition="p1"):
    return EventRecord(subject, condition, state, onset, offset, row)


def test_parse_tds_consecutive_dominance():
    panel, report = parse_events(
        [rec("s1", "A", 0.0), rec("s1", "B", 4.0)], SP2, "TDS", 10.0
    )
    traj = panel.items[0].trajectory
    assert np.array_equal(traj.breakpoints, [0.0, 4.0, 10.0])
    assert traj.segments == (frozenset({0}), frozenset({1}))
    assert report.total_warnings == 0


def test_parse_tcata_overlay():
    panel, _ = parse_events(
        [rec("s1", "A", 1.0, 3.0), rec("s1", "B", 2.0, 5.0)], SP3, "TCATA", 10.0
    )
    traj = panel.items[0].trajectory
    assert np.array_equal(traj.breakpoints, [0.0, 1.0, 2.0, 3.0, 5.0, 10.0])
    assert traj.segments == (
        frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({1}), frozenset(),
    )


def test_parse_tcata_empty_subject():
    panel, _ = parse_events(
        [rec("s1", "A", 1.0, 3.0)], SP3, "TCATA", 10.0,
        items=[("s1", "p1"), ("s2", "p1")],
    )
    empty = panel.items[1].trajectory
    assert empty.segments == (frozenset(),)
    assert empty.horizon == 10.0


def test_parse_is_order_insensitive():
    rows = [rec("s1", "A", 1.0, 3.0, row=1), rec("s1", "B", 2.0, 5.0, row=2),
            rec("s1", "C", 6.0, 7.0, row=3)]
    p1, _ = parse_events(rows, SP3, "TCATA", 10.0)
    p2, _ = parse_events(rows[::-1], SP3, "TCATA", 10.0)
    assert p1.items[0].trajectory == p2.items[0].trajectory


def test_tds_simultaneous_clicks_keep_last_row():
    rows = [rec("s1", "A", 0.0, row=1), rec("s1", "B", 4.0, row=2),
            rec("s1", "C", 4.0, row=3)]
    panel, report = parse_events(rows, SP3, "TDS", 10.0)
    assert report.warnings["simultaneous_clicks_dropped"] == 1
    assert panel.items[0].trajectory.segments == (frozenset({0}), frozenset({2}))


def test_tds_overlap_and_gap_are_protocol_errors():
    with pytest.raises(ProtocolError, match="overlap"):
        parse_events([rec("s1", "A", 0.0, 5.0), rec("s1", "B", 3.0, 8.0),
                      rec("s1", "A", 8.0, 10.0)], SP3, "TDS", 10.0)
    with pytest.raises(ProtocolError, match="gap"):
        parse_events([rec("s1", "A", 0.0, 3.0), rec("s1", "B", 5.0, 10.0)],
                     SP3, "TDS", 10.0)


def test_unclosed_tcata_interval_closed_at_end_with_warning():
    panel, report = parse_events([rec("s1", "A", 2.0)], SP2, "TCATA", 10.0)
    assert report.warnings["unclosed_intervals"] == 1
    traj = panel.items[0].trajectory
    assert traj.segments == (frozenset(), frozenset({0}))
    assert traj.evaluate(9.9) == frozenset({0})


def test_schema_errors():
    with pytest.raises(SchemaError, match="negative onset"):
        parse_events([rec("s1", "A", -1.0)], SP2, "TDS", 10.0)
    with pytest.raises(SchemaError, match="exceed onset"):
        parse_events([rec("s1", "A", 3.0, 2.0)], SP2, "TCATA", 10.0)
    with pytest.raises(SchemaError, match="after tasting end"):
        parse_events([rec("s1", "A", 12.0)], SP2, "TDS", 10.0)
    with pytest.raises(SchemaError, match="not declared"):
        parse_events([rec("s2", "A", 1.0)], SP2, "TDS", 10.0, items=[("s1", "p1")])


def test_end_time_map_lookup():
    panel, _ = parse_events(
        [rec("s1", "A", 0.0), rec("s2", "A", 0.0)], SP2, "TDS",
        {"s1/p1": 10.0, "s2": 20.0},
    )
    by_subject = {it.subject: it.trajectory.horizon for it in panel.items}
    assert by_subject == {"s1": 10.0, "s2": 20.0}


def test_tds_normalization_shift_then_rescale():
    panel, report = parse_events(
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
    panel = apply_protocol_normalization(parse_events(rows, SP2, "TDS", 10.0)[0])
    grid = panel.grid()
    Z = panel_cell_values(panel, grid, exact=True)
    assert np.array_equal(Z.sum(axis=1), np.ones((panel.n, grid.m)))


def test_tcata_normalization_keeps_latency_and_empty_ends():
    panel, _ = parse_events([rec("s1", "A", 2.0, 8.0)], SP2, "TCATA", 10.0)
    norm = apply_protocol_normalization(panel)
    traj = norm.items[0].trajectory
    assert traj.horizon == 1.0
    assert traj.evaluate(0.0) == frozenset()
    assert traj.evaluate(1.0) == frozenset()
    assert traj.evaluate(0.5) == frozenset({0})


def test_tds_without_clicks_rejected_by_subject():
    panel, _ = parse_events(
        [rec("s1", "A", 0.0)], SP2, "TDS", 10.0,
        items=[("s1", "p1"), ("ghost", "p1")],
    )
    with pytest.raises(ProtocolError, match="ghost"):
        apply_protocol_normalization(panel)


def test_tick_rounding_merges_near_equal_breakpoints():
    rows = [rec("s1", "A", 0.0), rec("s1", "B", 0.3000000004),
            rec("s2", "A", 0.0), rec("s2", "B", 0.2999999996)]
    panel = apply_protocol_normalization(parse_events(rows, SP2, "TDS", 1.0)[0])
    grid = union_grid(panel.trajectories)
    assert np.array_equal(grid.nodes, [0.0, 0.3, 1.0])


def test_validate_panel_reports_problems():
    rows = [rec("s1", "A", 0.0), rec("s1", "B", 4.0)]
    panel = apply_protocol_normalization(parse_events(rows, SP2, "TDS", 10.0)[0])
    assert validate_panel(panel) == []

    from catfpca import CategoricalTrajectory, PanelItem

    bad = Panel("TDS", SP2, [
        PanelItem("s1", "p1", CategoricalTrajectory([0.0, 0.5, 1.0], [{0, 1}, {0}]))
    ])
    problems = validate_panel(bad)
    assert any("non-singleton" in p for p in problems)


def test_panel_round_trip_through_files(tmp_path):
    from catfpca.io import read_panel, write_panel

    rows = [rec("s1", "A", 1.0, 3.0), rec("s1", "B", 2.0, 5.0),
            rec("s2", "B", 4.0, 6.0)]
    panel = apply_protocol_normalization(parse_events(rows, SP3, "TCATA", 10.0)[0])
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
    panel, _ = parse_events(rows, SP2, "TDS", {"s1/p1": 10.0, "s1/p2": 8.0})
    assert [it.key for it in panel.items] == ["s1/p1", "s1/p2"]
    assert panel.items[0].trajectory.horizon == 10.0
    assert panel.items[1].trajectory.horizon == 8.0
    norm = apply_protocol_normalization(panel)
    write_panel(norm, tmp_path / "panel.csv")
    back, _, _ = read_panel(tmp_path / "panel.csv")
    for a, b in zip(norm.items, back.items):
        assert a.key == b.key and a.trajectory == b.trajectory
