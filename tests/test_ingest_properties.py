"""Property tests of ingest: any events file or record list either ingests or
raises a CatfpcaError, records ingest exactly as the per-item reference does,
and panels survive write_panel -> read_panel."""
import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from catfpca.io import read_events_csv, read_panel, write_panel

from test_ingest import Rec, outcome, parse, ref_normalize, ref_parse

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

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
    records = [Rec(s, c, label, onset, offset, n + 2)
               for n, ((s, c), label, onset, offset) in enumerate(rows)]
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
