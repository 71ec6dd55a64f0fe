"""Property tests of ingest: any events file or record list either ingests or
raises a CatfpcaError, records ingest exactly as the per-item reference does,
read_events_csv's blocks read a file as the row loop alone does, panels
survive write_panel -> read_panel, every constructor stores maximal runs,
intervals merge into the runs of the per-item reference, the TDS rule on runs
finds the fault a segment scan finds, and the keyed sorts order rows and
intervals as np.lexsort does."""
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
    simulate_panel,
)
from catfpca import EventTable, ingest
from catfpca import io as catfpca_io
from catfpca.ingest import EVENT_COLUMNS, _dominance_faults, _order
from catfpca.io import read_events_csv, read_panel, write_panel

from conftest import fuzz
from test_ingest import (Rec, outcome, parse, reference_runs, ref_normalize, ref_overlay,
                         ref_parse)
from test_simulate import tcata_spec, two_state_spec

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


def row_loop_read(path):
    """The events file as the row loop alone reads it: csv rows into EventTable.from_rows."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(filter(None, reader), None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            missing = [c for c in EVENT_COLUMNS[:4] if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            return EventTable.from_rows(filter(None, reader), f"{path} ", header=header)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: unreadable after line {reader.line_num}: {exc}") from None


def read_outcome(read, path):
    """The table's keys, labels and column bytes, or the SchemaError text."""
    try:
        table = read(path)
    except SchemaError as exc:
        return str(exc)
    return (table.keys, table.labels,
            *((a.dtype, a.tobytes()) for a in (table.item, table.label, table.onset, table.offset)))


def assert_reads_as_the_row_loop(data: bytes, block: int):
    """read_events_csv, with blocks of ``block`` lines, gives the row loop's outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_bytes(data)
        with mock.patch.object(catfpca_io, "_BLOCK_LINES", block):
            assert read_outcome(read_events_csv, path) == read_outcome(row_loop_read, path)


# plain fields, then fields that need quotes, one with a newline
PLAIN_TEXTS = ["s1", "p1", "A", "B", " s1 ", "é", "", "→ß"]
QUOTED_TEXTS = ["a,b", 'say "hi"', "two\nlines"]
# times csv and np.loadtxt might read apart, after a few common ones
ODD_TIMES = st.sampled_from(["-0", "nan", "NaN", "inf", "-inf", "1e400", "1_0", " 2.5 ", "",
                             "x", "٣", "\x1c1", "1\x1f", "\t3\x0c", "0x1"])
CSV_TIMES = st.one_of(*[COMMON_TIMES.map(repr)] * 6, TIMES.map(repr), ODD_TIMES)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def csv_field(draw, text: str) -> str:
    """``text`` as one CSV field: quoted when it must be, and sometimes when it need not."""
    if any(c in text for c in ',"\r\n') or draw(st.integers(0, 29)) == 0:
        return '"%s"' % text.replace('"', '""')
    return text


@st.composite
def events_files(draw):
    """The bytes of an events file: a byte order mark and blank lines before the header, a
    permuted header with extra and repeated columns, rows short and long, blank and
    whitespace-only lines, and mixed line endings.  In one file of three some fields need
    quotes."""
    header = list(draw(st.permutations(list(EVENT_COLUMNS[:4]) + draw(st.sampled_from(
        [[], ["offset"], ["offset", "x"], ["onset"], ["offset", "offset"], ["subject"]])))))
    if draw(st.integers(0, 19)) == 0:
        header.remove(draw(st.sampled_from(header)))  # a missing column
    texts = st.sampled_from(PLAIN_TEXTS + QUOTED_TEXTS * draw(st.sampled_from([0, 0, 1])))
    lines = [draw(st.sampled_from(["", "\n", "\r\n\n"])) + ",".join(header)]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", ",,"])))
            continue
        row = [csv_field(draw, draw(CSV_TIMES if name in ("onset", "offset") else texts))
               for name in header]
        if kind == 1:
            row = row[:draw(st.integers(0, len(row)))]
        elif kind == 2:
            row.append(csv_field(draw, draw(texts)))
        lines.append(",".join(row))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode()


# a quoted newline across a block boundary; a block of blank lines only
QUOTED_ACROSS = b'subject,product,descriptor,onset,offset\ns1,p1,A,0,1\ns1,p1,"two\nlines",1,2\n'
BLANK_BLOCK = b"subject,product,descriptor,onset\r\ns1,p1,A,0\r\n\r\n\r\n\r\n\r\ns1,p1,B,1\r\n"


@FUZZ
@given(events_files(), st.integers(1, 4))
@example(QUOTED_ACROSS, 2)
@example(BLANK_BLOCK, 2)
@example(b"subject,product,descriptor,onset,offset\rs1,p1,A,1,\rs1,p1,A,1_0,nan\r", 1)
def test_blocks_read_as_the_row_loop(data, block):
    assert_reads_as_the_row_loop(data, block)


def large_events_file(rows: int) -> bytes:
    return ("subject,product,descriptor,onset,offset\n" + "".join(
        f"s{i % 7},p1,D{i % 3},{i / 8},{i / 8 + 1}\n" for i in range(rows))).encode()


@pytest.mark.parametrize("at", [100, 2_500, 2_999])
def test_undecodable_bytes_are_met_at_the_row_loops_line(at):
    """The text decoder reads ahead by chunks of bytes, so the line that meets an undecodable
    byte depends on how the file is read; the block route meets it where the row loop does."""
    lines = large_events_file(3_000).splitlines(keepends=True)
    lines[at] = lines[at].replace(b"p1", b"p\xff")
    assert_reads_as_the_row_loop(b"".join(lines), 64)


@pytest.mark.parametrize("at", [0, 40, 299])
def test_a_field_over_csvs_limit_fails_at_the_row_loops_line(at):
    lines = large_events_file(300).splitlines(keepends=True)
    lines[1 + at] = lines[1 + at].replace(b"p1", b"p" * 200)
    limit = csv.field_size_limit(100)
    try:
        assert_reads_as_the_row_loop(b"".join(lines), 16)
    finally:
        csv.field_size_limit(limit)


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


def merged(mode, q, ends, intervals):
    """The panel that Panel._of merges of (item, state, start, stop) intervals."""
    item, state, start, stop = np.array(intervals, dtype=float).reshape(-1, 4).T
    keys = [(f"s{i}", "p") for i in range(len(ends))]
    return Panel._of(mode, StateSpace([f"S{j}" for j in range(q)]), keys, ends,
                     item.astype(np.int64), state.astype(np.int64), start, stop)


@st.composite
def interval_sets(draw):
    """(q, ends, intervals) on quarters of each horizon, where intervals of one state often
    overlap (a count of two or more), touch (one run made of two) or have zero length, and
    some start at -0.0."""
    q = draw(st.integers(1, 3))
    ends = draw(st.lists(st.sampled_from([1.0, 4.0]), min_size=1, max_size=4))
    intervals = []
    for i, a, length, j, negative in draw(st.lists(st.tuples(
            st.integers(0, len(ends) - 1), st.integers(0, 3), st.integers(0, 4),
            st.integers(0, q - 1), st.booleans()), max_size=12)):
        quarter = ends[i] / 4
        start = -0.0 if negative and a == 0 else a * quarter
        intervals.append((i, j, start, min(a + length, 4) * quarter))
    return q, ends, intervals


# state 0 of item 0: [0, 2) and [1, 3) overlap, [3, 4) touches them; item 1 has no interval
OVERLAPPING = (2, [4.0, 1.0], [(0, 0, 0.0, 2.0), (0, 0, 1.0, 3.0), (0, 0, 3.0, 4.0),
                               (0, 1, 1.0, 2.0)])


@FUZZ
@given(interval_sets())
@example(OVERLAPPING)
def test_overlay_equals_the_per_item_reference(case):
    """Merged intervals are the runs of the per-item overlay, and its trajectories."""
    q, ends, intervals = case
    panel = merged("TCATA", q, ends, intervals)
    reference = [PanelItem(f"s{i}", "p", ref_overlay(
        [(on, off, j) for k, j, on, off in intervals if k == i], end))
        for i, end in enumerate(ends)]
    assert list(zip(*(a.tolist() for a in panel.runs()))) == reference_runs(reference, q)
    assert [it.trajectory for it in panel.items] == [it.trajectory for it in reference]


@FUZZ
@given(st.sampled_from(["TDS", "TCATA"]).flatmap(lambda mode: st.one_of(
    panels(mode), interval_sets().map(lambda case: merged(mode, *case)))))
@example(merged("TCATA", *OVERLAPPING))
def test_overlay_of_the_runs_rebuilds_the_panel(panel):
    """A panel's runs are those of its items, and merging them again changes no bit."""
    runs = panel.runs()
    assert list(zip(*(a.tolist() for a in runs))) == reference_runs(panel.items, panel.space.q)
    back = Panel._of(panel.mode, panel.space, panel.keys, panel.horizons, *runs)
    for a, b in zip((back.horizons, *back.runs()), (panel.horizons, *runs)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_maximal_runs(panel):
    """The stored runs: sorted, maximal, of positive length in [0, horizon], never -0.0, and
    rebuilt bit for bit from the panel's items."""
    item, state, onset, offset = runs = panel.runs()
    assert [a.dtype for a in runs] == [np.int64, np.int64, np.float64, np.float64]
    assert not any(a.flags.writeable for a in (panel.horizons, *runs))
    assert ((0 <= item) & (item < panel.n) & (0 <= state) & (state < panel.space.q)).all()
    assert np.lexsort((onset, state, item)).tolist() == list(range(item.size))
    same = (item[1:] == item[:-1]) & (state[1:] == state[:-1])
    assert (offset[:-1][same] < onset[1:][same]).all()  # neither overlapping nor touching
    assert ((0.0 <= onset) & (onset < offset) & (offset <= panel.horizons[item])).all()
    assert not np.signbit(onset).any() and not np.signbit(offset).any()
    back = Panel(panel.mode, panel.space, panel.items)
    for a, b in zip((back.horizons, *back.runs()), (panel.horizons, *runs)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@st.composite
def constructed(draw, how):
    """A panel made by ``how``, or None when the drawn input is refused."""
    if how == "simulate_panel":
        spec = draw(st.sampled_from([two_state_spec(3.0, 5.0, 0.5), tcata_spec()]))
        return simulate_panel(spec, draw(st.integers(1, 6)), draw(st.integers(0, 50)))
    if how in ("Panel", "read_panel"):
        panel = draw(st.sampled_from(["TDS", "TCATA"]).flatmap(panels))
        if how == "Panel":
            return panel
        with tempfile.TemporaryDirectory() as tmp:
            write_panel(panel, Path(tmp) / "panel.csv")
            return read_panel(Path(tmp) / "panel.csv")[0]
    records, space, mode, end_time = draw(st.integers(1, 16).flatmap(tied_records))
    try:
        panel = parse(records, space, mode, end_time)[0]
        return panel if how == "parse_events" else apply_protocol_normalization(
            panel, tick=draw(st.sampled_from([1e-6, 0.3, 0.0])))
    except CatfpcaError:
        return None


@pytest.mark.parametrize("how", ["parse_events", "apply_protocol_normalization",
                                 "simulate_panel", "Panel", "read_panel"])
@FUZZ
@given(data=st.data())
def test_every_constructor_stores_maximal_runs(how, data):
    panel = data.draw(constructed(how))
    if panel is not None:
        assert_maximal_runs(panel)


@st.composite
def tds_interval_sets(draw):
    """(ends, intervals) of two states on eighths of each horizon, drawn to break the TDS rule
    in every way: overlaps, gaps, a run inside another, equal onsets, a latency, an item
    with no click and a gap at the horizon; about one item in three holds the rule."""
    ends = draw(st.lists(st.sampled_from([1.0, 4.0]), min_size=1, max_size=4))
    intervals = []
    for i, end in enumerate(ends):
        eighth = end / 8
        if draw(st.booleans()):  # a tiling of [lead, end); lead > 0 is a latency
            lead = draw(st.sampled_from([0, 0, 1, 2]))
            cuts = sorted(draw(st.sets(st.integers(lead + 1, 7), max_size=4)) | {lead, 8})
            intervals += [(i, draw(st.integers(0, 1)), a * eighth, b * eighth)
                          for a, b in zip(cuts[:-1], cuts[1:])]
        extra = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 8),
                                         st.integers(0, 1)), max_size=3))
        intervals += [(i, j, a * eighth, min(a + length, 8) * eighth) for a, length, j in extra]
    return ends, intervals


def ref_tds_faults(items, latent):
    """The first segment of each item's reference trajectory that holds other than one state;
    with ``latent`` an empty first segment is allowed."""
    faults = {}
    for i, it in enumerate(items):
        traj = it.trajectory
        for k, subset in enumerate(traj.segments):
            if len(subset) != 1 and not (latent and k == 0 and not subset):
                kind = "overlapping dominance intervals" if subset else "dominance gap"
                faults[i] = f"{it.key}: {kind} near t={traj.breakpoints[k]:g}"
                break
    return faults


@FUZZ
@given(tds_interval_sets(), st.booleans())
@example(([4.0, 1.0, 1.0], [(0, 0, 0.0, 4.0), (0, 1, 1.0, 2.0), (2, 1, 0.25, 0.75)]), False)
@example(([4.0, 1.0, 1.0], [(0, 0, 0.0, 4.0), (0, 1, 1.0, 2.0), (2, 1, 0.25, 0.75)]), True)
def test_the_tds_rule_on_runs_equals_a_segment_scan(case, latent):
    ends, intervals = case
    panel = merged("TDS", 2, ends, intervals)
    reference = [PanelItem(f"s{i}", "p", ref_overlay(
        [(on, off, j) for k, j, on, off in intervals if k == i], end))
        for i, end in enumerate(ends)]
    assert _dominance_faults(panel, latent) == ref_tds_faults(reference, latent)


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
    """The parsed panel's horizons and runs and the report, bit for bit, or the error."""
    try:
        panel, report = parse(records, space, mode, end_time)
    except CatfpcaError as exc:
        return type(exc).__name__, str(exc)
    return ([(a.dtype, a.shape, a.tobytes()) for a in (panel.horizons, *panel.runs())],
            report.to_dict())


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
