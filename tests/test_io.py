"""CSV exports: byte-identical to a row-by-row csv.writer reference."""
import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catfpca import CategoricalTrajectory, Panel, PanelItem, StateSpace, io, run_mfpca
from catfpca import _digits
from catfpca._digits import format17
from catfpca.errors import ValidationError
from catfpca.estimation import selection_count_curve
from catfpca.io import fmt, read_panel, write_panel

from conftest import (fuzz, random_panel, random_tcata_trajectory, random_tds_trajectory,
                      traced_peak)

# a comma, a quote, a newline, non-ASCII text and an empty field
STATES = ("sweet, sour", 'say "hi"', "crème brûlée", "plain")
SUBJECTS = ("a,b", 'q"uote', "naïve", "", "new\nline", "s5", "s6", "s7")
# %-template metacharacters: a lone %, a doubled one and conversion specifiers, also
# beside a comma, a quote, a newline and non-ASCII text
PCT_STATES = ("100%", "%%", "%s, %d", '"%(x)s"', "crème %")
PCT_SUBJECTS = ("50%", "%%", "%s", "%(x)s", 'a,"%s"', "new\n%", "naïve %.17g", "%")


# --- reference: one fmt call per value, one csv.writer row per tuple -------

def reference_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def curve_rows(states, nodes, values):
    for j, label in enumerate(states):
        for a in range(len(nodes) - 1):
            yield label, fmt(nodes[a]), fmt(nodes[a + 1]), fmt(values[j, a])


def reference_scores(result, path, k):
    rows = [(subject, condition, r + 1, fmt(result.scores[i, r]))
            for i, (subject, condition) in enumerate(result.items) for r in range(k)]
    reference_csv(path, ("subject", "condition", "r", "value"), rows)


def reference_eigenfunctions(result, path, k):
    nodes = result.grid.nodes
    rows = [(label, r + 1, fmt(nodes[a]), fmt(nodes[a + 1]), fmt(result.eigenfunctions[r, j, a]))
            for r in range(k) for j, label in enumerate(result.states)
            for a in range(result.grid.m)]
    reference_csv(path, ("state", "r", "t_left", "t_right", "value"), rows)


def reference_bands(result, path, k, c=1.0):
    nodes = result.grid.nodes
    rows = []
    for r in range(k):
        amp = c * np.sqrt(result.eigenvalues[r])
        for j, label in enumerate(result.states):
            for a in range(result.grid.m):
                mu = result.mean[j, a]
                dev = amp * result.eigenfunctions[r, j, a]
                rows.append((label, r + 1, fmt(nodes[a]), fmt(nodes[a + 1]),
                             fmt(mu), fmt(mu - dev), fmt(mu + dev)))
    reference_csv(path, ("state", "r", "t_left", "t_right", "mean", "lower", "upper"), rows)


def reference_curves(result, path, values):
    reference_csv(path, ("state", "t_left", "t_right", "value"),
                  curve_rows(result.states, result.grid.nodes, values))


def reference_selection_count(result, path):
    grid, curve = selection_count_curve(result)
    rows = [(fmt(grid.nodes[a]), fmt(grid.nodes[a + 1]), fmt(curve[a])) for a in range(grid.m)]
    reference_csv(path, ("t_left", "t_right", "value"), rows)


def reference_panel(panel, path):
    rows = []
    for it in panel.items:
        traj = it.trajectory
        if panel.mode == "TDS":
            for k, subset in enumerate(traj.segments):
                if subset:
                    (j,) = subset
                    rows.append((it.subject, it.condition, panel.space.states[j],
                                 fmt(traj.breakpoints[k]), ""))
            continue
        for j in range(panel.space.q):
            active = [j in s for s in traj.segments]
            k = 0
            while k < len(active):
                if active[k]:
                    start = traj.breakpoints[k]
                    while k < len(active) and active[k]:
                        k += 1
                    rows.append((it.subject, it.condition, panel.space.states[j],
                                 fmt(start), fmt(traj.breakpoints[k])))
                else:
                    k += 1
    reference_csv(path, io.EVENT_COLUMNS, rows)


# --- fixtures ---------------------------------------------------------------

def labelled_panel(rng, mode, n=len(SUBJECTS), lattice=20, states=STATES, subjects=SUBJECTS,
                   condition="p{}, x"):
    gen = random_tds_trajectory if mode == "TDS" else random_tcata_trajectory
    items = [PanelItem(subjects[i % len(subjects)], condition.format(i // len(subjects)),
                       gen(rng, len(states), lattice))
             for i in range(n)]
    return Panel(mode, StateSpace(states), items)


@pytest.fixture(params=["TDS", "TCATA"])
def result(request, rng):
    return run_mfpca(labelled_panel(rng, request.param))


def same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


# --- tests ------------------------------------------------------------------

@pytest.mark.parametrize("k", [None, 0, 2])
def test_component_writers_match_reference(tmp_path, result, k):
    assert result.R > 2
    kk = result.R if k is None else k
    for name, write, reference in (
        ("scores", io.write_scores, reference_scores),
        ("eigenfunctions", io.write_eigenfunctions, reference_eigenfunctions),
        ("bands", io.write_bands, reference_bands),
    ):
        write(result, tmp_path / f"{name}.csv", k)
        reference(result, tmp_path / f"{name}.ref", kk)
        assert same_bytes(tmp_path / f"{name}.csv", tmp_path / f"{name}.ref"), name
    if k == 0:
        assert (tmp_path / "scores.csv").read_text() == "subject,condition,r,value\n"


def test_band_multiplier_matches_reference(tmp_path, result):
    io.write_bands(result, tmp_path / "bands.csv", 3, c=2.5)
    reference_bands(result, tmp_path / "bands.ref", 3, c=2.5)
    assert same_bytes(tmp_path / "bands.csv", tmp_path / "bands.ref")


def test_curve_writers_match_reference(tmp_path, result):
    io.write_mean_curves(result, tmp_path / "mean.csv")
    reference_curves(result, tmp_path / "mean.ref", result.mean)
    io.write_variance_curves(result, tmp_path / "var.csv")
    reference_curves(result, tmp_path / "var.ref", result.variance)
    io.write_selection_count(result, tmp_path / "sel.csv")
    reference_selection_count(result, tmp_path / "sel.ref")
    for name in ("mean", "var", "sel"):
        assert same_bytes(tmp_path / f"{name}.csv", tmp_path / f"{name}.ref"), name


@pytest.mark.parametrize("block_rows", [None, 5])
def test_outputs_larger_than_one_block(tmp_path, rng, monkeypatch, block_rows):
    # n * k and k * q * m both exceed the default batch of blocks of rows
    result = run_mfpca(labelled_panel(rng, "TCATA", n=200, lattice=60))
    assert result.n * result.R > io._FORMAT_BLOCKS * io._BLOCK_ROWS
    assert result.eigenfunctions.size > io._FORMAT_BLOCKS * io._BLOCK_ROWS
    if block_rows is not None:  # blocks that split the rows of one component
        monkeypatch.setattr(io, "_BLOCK_ROWS", block_rows)
    for name, write, reference in (
        ("scores", io.write_scores, reference_scores),
        ("eigenfunctions", io.write_eigenfunctions, reference_eigenfunctions),
        ("bands", io.write_bands, reference_bands),
    ):
        write(result, tmp_path / f"{name}.csv")
        reference(result, tmp_path / f"{name}.ref", result.R)
        assert same_bytes(tmp_path / f"{name}.csv", tmp_path / f"{name}.ref"), name


def test_more_components_than_retained_is_rejected(tmp_path, result):
    with pytest.raises(ValidationError):
        io.write_scores(result, tmp_path / "scores.csv", result.R + 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_eigenfunction_raises(tmp_path, result, bad):
    phis = result.eigenfunctions.copy()
    phis[1, 2, 3] = bad
    broken = dataclasses.replace(result, eigenfunctions=phis)
    for write in (io.write_eigenfunctions, io.write_bands):
        with pytest.raises(ValidationError, match="non-finite"):
            write(broken, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("block_rows", [None, 5])
def test_overflowing_bands_raise_before_the_file_is_opened(tmp_path, result, monkeypatch,
                                                           block_rows):
    # every input is finite, but c * sqrt(lambda_1) * phi overflows in the last row of
    # component 1, a later batch than the first when blocks hold 5 rows
    if block_rows is not None:
        monkeypatch.setattr(io, "_BLOCK_ROWS", block_rows)
    phis = result.eigenfunctions.copy()
    phis[0, -1, -1] = 1e300
    with np.errstate(over="ignore"):
        assert np.isinf(1e10 * np.sqrt(result.eigenvalues[0]) * 1e300)
    broken = dataclasses.replace(result, eigenfunctions=phis)
    io.write_eigenfunctions(broken, tmp_path / "eigenfunctions.csv")
    with pytest.raises(ValidationError, match="non-finite"):
        io.write_bands(broken, tmp_path / "bands.csv", c=1e10)
    assert not (tmp_path / "bands.csv").exists()


WRITER_BUDGET = 3 << 20  # bytes: a batch of floats and their texts, a block's template, labels
ANALYSIS_WRITERS = (io.write_scores, io.write_eigenfunctions, io.write_bands,
                    io.write_mean_curves, io.write_variance_curves, io.write_selection_count)


def test_writer_peak_memory_is_a_fixed_budget(tmp_path, rng):
    panel = labelled_panel(rng, "TCATA", n=200, lattice=60)
    result = run_mfpca(panel)
    # the component writers' rows already fill a batch, so ten times the components add
    # rows and a short label each, and no memory per row
    assert min(result.n * result.R, result.eigenfunctions.size) > \
        io._FORMAT_BLOCKS * io._BLOCK_ROWS
    tiled = dataclasses.replace(
        result, eigenvalues=np.tile(result.eigenvalues, 10),
        eigenfunctions=np.tile(result.eigenfunctions, (10, 1, 1)),
        scores=np.tile(result.scores, (1, 10)), importance=np.tile(result.importance, (10, 1)))
    peaks = {write.__name__: [traced_peak(write, r, tmp_path / "out.csv")[1]
                              for r in (result, tiled)] for write in ANALYSIS_WRITERS}
    assert all(large <= WRITER_BUDGET and large - small < 0.5e6
               for small, large in peaks.values()), peaks
    # write_panel holds a few numbers per event row besides, which test_ingest bounds
    assert traced_peak(write_panel, panel, tmp_path / "panel.csv")[1] <= WRITER_BUDGET


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_panel_round_trip_matches_reference(tmp_path, rng, mode):
    panel = labelled_panel(rng, mode, n=40)
    if mode == "TCATA":  # a state active over several consecutive segments
        traj = CategoricalTrajectory([0.0, 0.25, 0.5, 1.0], [{0, 1}, {1}, {1, 2}])
        panel = Panel(mode, panel.space, [*panel.items, PanelItem("run", "p", traj)])
    write_panel(panel, tmp_path / "panel.csv")
    reference_panel(panel, tmp_path / "panel.ref")
    assert same_bytes(tmp_path / "panel.csv", tmp_path / "panel.ref")
    back, _, meta = read_panel(tmp_path / "panel.csv")
    assert back.mode == mode and back.space == panel.space
    assert [(it.subject, it.condition) for it in back.items] == \
        [(it.subject, it.condition) for it in panel.items]
    for a, b in zip(panel.items, back.items):
        assert a.trajectory == b.trajectory


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_panel_rows_split_across_blocks(tmp_path, rng, monkeypatch, mode):
    panel = labelled_panel(rng, mode, n=12)
    if mode == "TCATA":  # state 0 on at the end of one item and at the start of the next
        end = CategoricalTrajectory([0.0, 0.5, 1.0], [{1}, {0}])
        start = CategoricalTrajectory([0.0, 0.5, 1.0], [{0, 2}, {2}])
        panel = Panel(mode, panel.space, [*panel.items, PanelItem("end", "p", end),
                                          PanelItem("start", "p", start)])
    monkeypatch.setattr(io, "_BLOCK_ROWS", 3)
    write_panel(panel, tmp_path / "panel.csv")
    reference_panel(panel, tmp_path / "panel.ref")
    assert same_bytes(tmp_path / "panel.csv", tmp_path / "panel.ref")


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
@pytest.mark.parametrize("n", [0, 2])
def test_empty_panel_writes_the_header_only(tmp_path, mode, n):
    # no items, or items in no state at any time
    items = [PanelItem(f"s{i}", "p", CategoricalTrajectory([0.0, 1.0], [set()])) for i in range(n)]
    write_panel(Panel(mode, StateSpace(STATES), items), tmp_path / "panel.csv")
    assert (tmp_path / "panel.csv").read_text() == "subject,product,descriptor,onset,offset\n"


def test_sidecar_claims_normalized_only_for_a_normalized_panel(tmp_path):
    def claim(mode, *trajectories):
        items = [PanelItem(f"s{i}", "p", t) for i, t in enumerate(trajectories)]
        write_panel(Panel(mode, StateSpace(STATES), items), tmp_path / "panel.csv")
        return io.read_meta(tmp_path / "panel.json")["normalized"]

    whole = CategoricalTrajectory([0.0, 1.0], [{1}])
    latent = CategoricalTrajectory([0.0, 0.25, 1.0], [set(), {0}])  # silent on [0, 0.25)
    assert claim("TDS", whole, whole) is True
    assert claim("TDS", whole, latent) is False
    assert claim("TCATA", whole, latent) is True  # a TCATA path may hold no state
    assert claim("TDS", CategoricalTrajectory([0.0, 2.0], [{0}])) is False


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
@pytest.mark.parametrize("block_rows", [None, 3])
def test_template_metacharacters_in_labels_match_reference(tmp_path, rng, monkeypatch, mode,
                                                           block_rows):
    panel = labelled_panel(rng, mode, n=3 * len(PCT_SUBJECTS), states=STATES + PCT_STATES,
                           subjects=SUBJECTS + PCT_SUBJECTS, condition="%(x)s %{}, %%")
    if block_rows is not None:
        monkeypatch.setattr(io, "_BLOCK_ROWS", block_rows)
    result = run_mfpca(panel)
    assert result.R > 2
    for name, write, reference in (
        ("panel", lambda path: write_panel(panel, path), lambda path: reference_panel(panel, path)),
        ("scores", lambda path: io.write_scores(result, path),
         lambda path: reference_scores(result, path, result.R)),
        ("eigenfunctions", lambda path: io.write_eigenfunctions(result, path),
         lambda path: reference_eigenfunctions(result, path, result.R)),
        ("bands", lambda path: io.write_bands(result, path),
         lambda path: reference_bands(result, path, result.R)),
        ("mean", lambda path: io.write_mean_curves(result, path),
         lambda path: reference_curves(result, path, result.mean)),
        ("var", lambda path: io.write_variance_curves(result, path),
         lambda path: reference_curves(result, path, result.variance)),
        ("sel", lambda path: io.write_selection_count(result, path),
         lambda path: reference_selection_count(result, path)),
    ):
        write(tmp_path / f"{name}.csv")
        reference(tmp_path / f"{name}.ref")
        assert same_bytes(tmp_path / f"{name}.csv", tmp_path / f"{name}.ref"), name


def test_table_keys_are_escaped_too(tmp_path):
    # no writer passes a key with a % today (keys are cells, means and component numbers)
    values = np.array([1.0, 2.0, 3.0, 0.5])
    prefixes = [io._fixed(b"a%,"), io._fixed(b"%%,")]
    io._write_table(tmp_path / "t.csv", ("h",), 2, prefixes.__getitem__, [[b"%s", b"%(x)s"]],
                    lambda lo, hi: values[lo:hi])
    assert (tmp_path / "t.csv").read_bytes() == \
        b"h\na%,%s,1\na%,%(x)s,2\n%%,%s,3\n%%,%(x)s,0.5\n"


def boundary_values():
    """±0, the smallest subnormal and normal, ±max and four doubles around each power of ten.

    With 17 digits, %g turns to exponent notation below 1e-4 and from 1e17 on,
    so the neighbours of the powers of ten cover both sides of each switch.
    """
    up = down = 10.0 ** np.arange(-323, 309)
    near = [up]
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    f = np.finfo(np.float64)
    values = np.concatenate([[0.0, f.smallest_subnormal, f.tiny, f.max], *near])
    return np.concatenate([values, -values])


def test_template_slot_digits_equal_fmt(tmp_path):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    # subnormals: a zero exponent field, any sign and mantissa
    subnormal = bits[:2_000] & np.uint64(0x800F_FFFF_FFFF_FFFF)
    values = np.concatenate([bits.view(np.float64), subnormal.view(np.float64),
                             boundary_values()])
    values = values[np.isfinite(values)].tolist()
    assert len(values) > 100_000
    texts = [fmt(x).encode() for x in values]
    assert [b"%.17g" % x for x in values] == texts  # the kernel's fallback
    assert_format17_equals_fmt(values)
    # and as the writers fill their blocks: one template and one % call per block
    x = np.array(values)
    io._write_rows(tmp_path / "x.csv", ("x",), x.size, lambda lo, hi: b"%s\n" * (hi - lo),
                   lambda lo, hi: x[lo:hi])
    assert (tmp_path / "x.csv").read_bytes().split(b"\n")[1:-1] == texts


def assert_format17_equals_fmt(values):
    values = np.asarray(values, dtype=np.float64).tolist()
    texts = format17(np.array(values)).tolist()
    wrong = [(x, text, fmt(x)) for x, text in zip(values, texts) if text != fmt(x).encode()]
    assert len(texts) == len(values) and not wrong, wrong[:5]


def test_format17_equals_fmt_where_the_integer_path_runs():
    """Values in and around the window 1e-11 <= |x| < 2e15 that the exact integer path handles."""
    rng = np.random.default_rng(11)
    n = 120_000
    # random 53-bit mantissas, decimal exponents spread over 1e-12 ... 1e16, both signs
    spread = (1 + rng.random(n)) * 2.0 ** np.floor(rng.uniform(-40, 54, n))
    spread *= rng.choice([-1.0, 1.0], n)
    j = np.arange(1, 1 << 20, dtype=np.float64)
    # dyadic rationals: 20 897 of the first set and 22 of the second are exact ties
    # at the 18th significant digit
    dyadic = np.concatenate([j[::7] / 2.0 ** 20, j[::7] / 2.0 ** 24 * 1e-3,
                             -j[3::7] / 2.0 ** 20])
    # the neighbours of every power of ten over the window and of every power of two
    # (where the shift s steps) on each side of it
    edges = np.concatenate([10.0 ** np.arange(-12, 17), 2.0 ** np.arange(-40, 55),
                            [1e-11, 1e15, 2.0 ** 51, 2.0 ** 53]])
    near = [edges]
    up = down = edges
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    near = np.concatenate(near)
    assert_format17_equals_fmt(np.concatenate([spread, dyadic, near, -near]))


def test_scaled_product_is_exact_where_it_claims_to_be():
    # D = floor(M * 5**k / 2**s) and its half-to-even rounding, against Python's integers,
    # for k = 16 - E from -1 to 29 and s from -1 to 65: the claim must hold exactly on
    # 0 <= k <= 27, 1 <= s <= 63 with D below 2**64, and nowhere else
    rng = np.random.default_rng(5)
    n = 40_000
    mantissa = rng.integers(2 ** 52, 2 ** 53, n, dtype=np.uint64)
    mantissa[:4] = [2 ** 52, 2 ** 53 - 1, 2 ** 52 + 1, 3 << 51]
    e = rng.integers(-13, 18, n)
    exp2 = e - 16 - rng.integers(-1, 66, n)
    scaled = _digits._scaled(mantissa, exp2, e)
    for m, b, k, d, up, ok in zip(mantissa.tolist(), exp2.tolist(), (16 - e).tolist(),
                                  *(a.tolist() for a in scaled)):
        s = -(b + k)
        exact = 0 <= k <= 27 and 1 <= s <= 63 and (m * 5 ** k) >> s < 2 ** 64
        assert ok == exact, (m, b, k)
        if exact:
            rest, half = (m * 5 ** k) % (1 << s), 1 << (s - 1)
            assert d == (m * 5 ** k) >> s, (m, b, k)
            assert up == (rest > half or (rest == half and d % 2 == 1)), (m, b, k)


def test_format17_keeps_order_across_fast_and_fallback_values():
    # zeros, which are laid out directly, and values Python formats, between values the
    # integer path formats
    f = np.finfo(np.float64)
    outside = [0.0, -0.0, f.smallest_subnormal, -f.smallest_subnormal, f.tiny, f.max, -f.max,
               1e-300, 1e300, 3e-12, -2.5e16, 1e17]
    inside = [0.1, -0.25, 1 / 3, 123456.789, -7e-5, 2.0 ** -30, 999999999999999.9]
    values = np.array([v for pair in zip(outside, inside + inside) for v in pair])
    assert_format17_equals_fmt(values)
    # across the kernel's passes too
    assert_format17_equals_fmt(np.resize(values, 3 * _digits._CHUNK + 5))
    assert format17(np.array([0.0, -0.0])).tolist() == [b"0", b"-0"]
    assert format17(np.empty(0)).tolist() == []


@fuzz(300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_format17_equals_fmt_property(values):
    assert_format17_equals_fmt(values)


def element_by_element(obj) -> str:
    """A list of strings as ``_json_value`` wrote it one element at a time."""
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(element_by_element(v) for v in obj) + "]"
    return json.dumps(obj)


@pytest.mark.parametrize("value", [
    [],
    ["plain", "", "ünïcødé ☕", 'quote " inside', "back\\slash", "tab\there\nnewline\x00\x1f"],
    (("s01", "c0"), ("sé", "c\"1"), ("\\", "\x7f")),
    [["a", ["b", ("c",)]], [], "d"],
], ids=["empty", "flat", "pairs", "nested"])
def test_string_lists_serialize_as_element_by_element(value):
    assert io._json_value(value) == element_by_element(value)
    assert io.canonical_json({"items": value}) == '{"items": ' + element_by_element(value) + "}\n"


def test_mixed_lists_keep_their_number_format():
    assert io._json_value(["a", 0.1, 2, None]) == '["a", 0.10000000000000001, 2, null]'
