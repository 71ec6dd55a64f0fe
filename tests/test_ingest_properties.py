"""Property tests of ingest: any events file or record list either ingests or
raises a CatfpcaError, records ingest exactly as the per-item reference does,
panels survive write_panel -> read_panel, a panel's runs overlay back into
the panel, and the keyed sorts order rows and nodes as np.lexsort does."""
import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catfpca import (
    CatfpcaError,
    CategoricalTrajectory,
    Panel,
    PanelItem,
    SchemaError,
    StateSpace,
    apply_protocol_normalization,
    parse_events,
)
from catfpca import ingest
from catfpca.ingest import _order, _overlay
from catfpca.io import read_events_csv, read_panel, write_panel

from conftest import fuzz
from test_ingest import Rec, outcome, parse, ref_normalize, ref_overlay, ref_parse

FUZZ = fuzz(200)

# labels and names with a comma, a quote, non-ASCII text and a newline
LABELS = ("A", "B", "sweet, sour", 'say "hi"', "crème", "→ß")
NAMES = st.text(alphabet=st.sampled_from(list('ab,"é →\n')), max_size=3)
# repeated values make simultaneous clicks and touching intervals common
COMMON_TIMES = st.sampled_from([0.0, 1.0, 2.5, 4.0, 10.0, -1.0])
TIMES = st.one_of(COMMON_TIMES, COMMON_TIMES, COMMON_TIMES,
                  st.floats(allow_nan=True, allow_infinity=True))
END_TIMES = st.one_of(st.sampled_from([10.0, 4.0]), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def end_times(draw, keys):
    """One end time, or a mapping by item, by subject and "default", possibly missing some."""
    if draw(st.booleans()):
        return draw(END_TIMES)
    mapping = {}
    for subject, condition in keys:
        key = draw(st.sampled_from([f"{subject}/{condition}", subject, None]))
        if key is not None:
            mapping[key] = draw(END_TIMES)
    if draw(st.booleans()):
        mapping["default"] = draw(END_TIMES)
    return mapping


@st.composite
def event_inputs(draw):
    """(records, space, mode, end_time, items) with duplicate, bad and non-finite values."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["s1", "s2", "é"]),
                                   st.sampled_from(["p1", "p,2"])),
                         min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(keys), st.sampled_from([*labels, "unknown"]),
        TIMES, st.one_of(st.none(), TIMES)), max_size=12))
    records = [Rec(s, c, label, onset, offset) for (s, c), label, onset, offset in rows]
    declared = st.lists(st.sampled_from([*keys, ("s9", "p9")]), unique=True)
    items = draw(st.one_of(st.none(), declared))
    end_time = draw(end_times([*keys, ("s9", "p9")]))
    return records, StateSpace(labels), draw(st.sampled_from(["TDS", "TCATA"])), end_time, items


@FUZZ
@given(event_inputs())
def test_records_ingest_as_the_reference_does(case):
    records, space, mode, end_time, items = case
    new = outcome(parse, apply_protocol_normalization, records, space, mode, end_time,
                  items=items)
    assert new == outcome(ref_parse, ref_normalize, records, space, mode, end_time, items=items)


TEXT_TIMES = st.one_of(
    TIMES.map(repr), TIMES.map(repr), TIMES.map(repr),
    st.sampled_from(["", "nan", "NaN", "-inf", "Infinity", "1e400", " 2.5 ", "abc", "0x1"]),
)


@FUZZ
@given(event_inputs(), st.data())
def test_any_events_file_ingests_or_raises(case, data):
    records, space, mode, end_time, items = case
    with_offset = data.draw(st.booleans())
    header = ["subject", "product", "descriptor", "onset"] + (["offset"] if with_offset else [])
    header = data.draw(st.permutations(header))
    lines = []
    for r in records:
        fields = {"subject": r.subject, "product": r.condition, "descriptor": r.state,
                  "onset": data.draw(TEXT_TIMES), "offset": data.draw(TEXT_TIMES)}
        row = [fields[c] for c in header]
        if data.draw(st.integers(0, 9)) == 0:
            row = row[:data.draw(st.integers(0, len(row)))]  # a short row
        lines.append(row)
        if data.draw(st.integers(0, 9)) == 0:
            lines.append([])  # a blank line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in lines:
                if row:
                    writer.writerow(row)
                else:
                    fh.write("\n")
        try:
            table = read_events_csv(path)
        except SchemaError as exc:
            assert str(exc).startswith(str(path))
            return
    assert len(table) == sum(1 for row in lines if row)
    try:
        panel, report = parse_events(table, space, mode, end_time, items=items)
        apply_protocol_normalization(panel, report=report)
    except CatfpcaError:
        pass


def test_unreadable_events_file_is_a_schema_error(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(b"subject,product,descriptor,onset\ns1,p1,A,\xff1\n")
    with pytest.raises(SchemaError, match="unreadable"):
        read_events_csv(path)


@st.composite
def panels(draw, mode):
    """Panels with awkward labels and names, several horizons, a TDS latency and TCATA ends."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    q = len(labels)
    keys = draw(st.lists(st.tuples(NAMES, NAMES), min_size=1, max_size=5, unique=True))
    items = []
    for subject, condition in keys:
        horizon = draw(st.sampled_from([1.0, 10.0, 40.0]))
        interior = sorted(draw(st.sets(st.integers(1, 99), max_size=6)))
        breaks = [0.0] + [horizon * p / 100 for p in interior] + [horizon]
        if mode == "TDS":
            segments = [{draw(st.integers(0, q - 1))} for _ in breaks[1:]]
            if draw(st.booleans()):
                segments[0] = set()  # the latency before the first click
        else:
            segments = [draw(st.sets(st.integers(0, q - 1))) for _ in breaks[1:]]
        items.append(PanelItem(subject, condition, CategoricalTrajectory(breaks, segments)))
    return Panel(mode, StateSpace(labels), items)


@FUZZ
@given(st.sampled_from(["TDS", "TCATA"]).flatmap(panels))
def test_panel_round_trip_through_files_property(panel):
    with tempfile.TemporaryDirectory() as tmp:
        write_panel(panel, Path(tmp) / "panel.csv")
        back, _, _ = read_panel(Path(tmp) / "panel.csv")
    assert back.mode == panel.mode and back.space == panel.space
    assert [(it.key, it.trajectory.segments, it.trajectory.breakpoints.tobytes())
            for it in back.items] == [
        (it.key, it.trajectory.segments, it.trajectory.breakpoints.tobytes())
        for it in panel.items]


def overlaid(mode, q, ends, intervals):
    """The panel that _overlay makes of (item, state, start, stop) intervals."""
    item, state, start, stop = np.array(intervals, dtype=float).reshape(-1, 4).T
    keys = [(f"s{i}", "p") for i in range(len(ends))]
    return Panel._of(mode, StateSpace([f"S{j}" for j in range(q)]), keys, *_overlay(
        item.astype(np.int64), start, stop, state.astype(np.int64), np.array(ends), q))


@st.composite
def interval_sets(draw):
    """(q, ends, intervals) on quarters of each horizon, where intervals of one state often
    overlap (a count of two or more) or touch (one run made of two)."""
    q = draw(st.integers(1, 3))
    ends = draw(st.lists(st.sampled_from([1.0, 4.0]), min_size=1, max_size=4))
    intervals = []
    for i, a, length, j in draw(st.lists(st.tuples(
            st.integers(0, len(ends) - 1), st.integers(0, 3), st.integers(1, 4),
            st.integers(0, q - 1)), max_size=12)):
        quarter = ends[i] / 4
        intervals.append((i, j, a * quarter, min(a + length, 4) * quarter))
    return q, ends, intervals


# state 0 of item 0: [0, 2) and [1, 3) overlap, [3, 4) touches them; item 1 has no interval
OVERLAPPING = (2, [4.0, 1.0], [(0, 0, 0.0, 2.0), (0, 0, 1.0, 3.0), (0, 0, 3.0, 4.0),
                               (0, 1, 1.0, 2.0)])


@FUZZ
@given(interval_sets())
@example(OVERLAPPING)
def test_overlay_equals_the_per_item_reference(case):
    q, ends, intervals = case
    panel = overlaid("TCATA", q, ends, intervals)
    assert [it.trajectory for it in panel.items] == [
        ref_overlay([(on, off, j) for k, j, on, off in intervals if k == i], end)
        for i, end in enumerate(ends)]


def reference_runs(panel):
    """(item, state, onset, offset) of every maximal run, item by item, then state by state."""
    runs = []
    for i, it in enumerate(panel.items):
        b, segments = it.trajectory.breakpoints.tolist(), it.trajectory.segments
        for j in range(panel.space.q):
            on = [j in s for s in segments] + [False]
            runs += [(i, j, b[k], b[e])
                     for k in range(len(segments)) if on[k] and (k == 0 or not on[k - 1])
                     for e in [on.index(False, k)]]
    return runs


@FUZZ
@given(st.sampled_from(["TDS", "TCATA"]).flatmap(lambda mode: st.one_of(
    panels(mode), interval_sets().map(lambda case: overlaid(mode, *case)))))
@example(overlaid("TCATA", *OVERLAPPING))
def test_overlay_of_the_runs_rebuilds_the_panel(panel):
    item, state, onset, offset = runs = panel.runs()
    assert list(zip(*(a.tolist() for a in runs))) == reference_runs(panel)
    back = Panel._of(panel.mode, panel.space, panel.keys, *_overlay(
        item, onset, offset, state, panel.horizons, panel.space.q))
    for name in ("breakpoints", "counts", "active"):
        a, b = getattr(panel, name), getattr(back, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# --- the keyed sorts against np.lexsort, the order they replace ---------------

def lexsort_order(group, t):
    """The reference order: by group, then t, then position, by np.lexsort."""
    return np.lexsort((t, group))


# equal values, both zeros, the extremes of the range and neighbours
ORDER_TIMES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324, 1e-300, 1e300]),
                        st.floats(0.0, 1e300), st.floats(0.0, 4.0))


@FUZZ
@given(st.lists(st.tuples(st.integers(0, 3), ORDER_TIMES), max_size=40))
def test_order_equals_lexsort(entries):
    group = np.array([g for g, _ in entries], dtype=np.int64)
    t = np.array([x for _, x in entries], dtype=np.float64)
    assert _order(group, t).tolist() == lexsort_order(group, t).tolist()  # 0.0 ties -0.0


def parsed_arrays(records, space, mode, end_time):
    """The parsed panel's arrays and the report, bit for bit, or the error."""
    try:
        panel, report = parse(records, space, mode, end_time)
    except CatfpcaError as exc:
        return type(exc).__name__, str(exc)
    assert not np.signbit(panel.breakpoints).any()
    return ([(a.dtype, a.shape, a.tobytes()) for a in (panel.breakpoints, panel.counts,
                                                       panel.active)], report.to_dict())


TIED_LABELS = ["A", "B", "C"]
TIED_ONSETS = [0.0, -0.0, 1.0, 2.0, 3.0]


@st.composite
def tied_records(draw, size):
    """(records, space, mode, end time) of ``size`` rows whose times tie across items, states
    and rows: "-0" onsets, touching and overlapping intervals of one state, and simultaneous
    TDS clicks."""
    mode = draw(st.sampled_from(["TDS", "TCATA"]))
    offsets = mode == "TCATA" or draw(st.booleans())
    rows = draw(st.lists(st.tuples(
        st.sampled_from([("s1", "p1"), ("s2", "p1"), ("s1", "p2")]), st.sampled_from(TIED_LABELS),
        st.sampled_from(TIED_ONSETS), st.sampled_from([1.0, 2.0, 4.0, math.inf])),
        min_size=size, max_size=size))
    records = [Rec(s, c, label, on, on + length if offsets else None)
               for (s, c), label, on, length in rows]
    return records, StateSpace(TIED_LABELS), mode, 4.0


@FUZZ
@given(st.integers(1, 16).flatmap(tied_records))
def test_parse_orders_rows_as_lexsort(case):
    new = parsed_arrays(*case)
    with mock.patch.object(ingest, "_order", lexsort_order):
        assert new == parsed_arrays(*case)


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
@pytest.mark.parametrize("seed", range(2))
def test_large_tables_order_rows_as_lexsort(mode, seed):
    """Thousands of tied rows, which numpy sorts with its unstable algorithms."""
    rng = np.random.default_rng(seed)
    size, keys = 4000, [(f"s{i}", "p1") for i in range(40)]
    on = rng.choice(TIED_ONSETS, size)
    off = on + rng.choice([1.0, 2.0, 4.0], size) if mode == "TCATA" else [None] * size
    records = [Rec(*keys[k], TIED_LABELS[j], a, b) for k, j, a, b in zip(
        rng.integers(0, len(keys), size), rng.integers(0, 3, size), on, off)]
    case = records, StateSpace(TIED_LABELS), mode, 4.0
    new = parsed_arrays(*case)
    assert isinstance(new[1], dict), new  # the rows parse
    with mock.patch.object(ingest, "_order", lexsort_order):
        assert new == parsed_arrays(*case)
