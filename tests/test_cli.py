import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import catfpca
from catfpca import CategoricalTrajectory, cli
from catfpca.cli import main
from catfpca.ingest import apply_protocol_normalization
from catfpca.io import canonical_json, read_panel

from test_perfbench_hooks import perfbench_module

TDS_EVENTS = """subject,product,descriptor,onset,offset
s1,p1,A,1.0,
s1,p1,B,4.0,
s2,p1,B,0.5,
s2,p1,A,3.0,
"""

TCATA_EVENTS = """subject,product,descriptor,onset,offset
s1,p1,A,1.0,3.0
s1,p1,B,2.0,5.0
s2,p1,A,2.5,
"""


def write_inputs(tmp_path, mode):
    events = tmp_path / "events.csv"
    events.write_text(TDS_EVENTS if mode == "TDS" else TCATA_EVENTS)
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({
        "mode": mode,
        "states": ["A", "B"],
        "end_time": 10.0,
    }))
    return events, meta


def run(argv):
    return main([str(a) for a in argv])


def test_ingest_validate_mfpca_pipeline(tmp_path, capsys):
    events, meta = write_inputs(tmp_path, "TDS")
    out = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["total_warnings"] == 0
    assert report["n_items"] == 2

    assert run(["validate", out / "panel.csv"]) == 0

    res_dir = tmp_path / "mfpca"
    assert run(["mfpca", out / "panel.csv", "--out", res_dir]) == 0
    for name in ("result.json", "summary.txt", "scores.csv", "eigenfunctions.csv",
                 "bands.csv", "mean_curves.csv", "variance_curves.csv",
                 "selection_count.csv"):
        assert (res_dir / name).exists(), name
    result = json.loads((res_dir / "result.json").read_text())
    assert result["mode"] == "TDS"
    assert result["weights"]["scheme"] == "equal"
    assert len(result["eigenvalues"]) <= 1  # n = 2 caps the rank at 1


def test_tcata_ingest_counts_warnings(tmp_path):
    events, meta = write_inputs(tmp_path, "TCATA")
    out = tmp_path / "out"
    assert run(["ingest", events, "--meta", meta, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["warnings"]["unclosed_intervals"] == 1
    assert report["total_warnings"] >= 1


def test_overlapping_tds_rows_exit_code_2(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text(
        "subject,product,descriptor,onset,offset\n"
        "bad1,p1,A,0.0,6.0\n"
        "bad1,p1,B,4.0,10.0\n"
    )
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"mode": "TDS", "states": ["A", "B"], "end_time": 10.0}))
    code = run(["ingest", events, "--meta", meta, "--out", tmp_path / "x"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ProtocolError"
    assert "bad1" in err["message"]


@pytest.mark.parametrize("mode,row", [
    ("TDS", "s1,p1,B,nan,"),
    ("TCATA", "s1,p1,B,nan,5.0"),
    ("TCATA", "s1,p1,B,2.0,nan"),
])
def test_nan_timestamp_exits_2_naming_the_row(tmp_path, capsys, mode, row):
    events = tmp_path / "events.csv"
    events.write_text("subject,product,descriptor,onset,offset\n"
                      f"s1,p1,A,1.0,{'' if mode == 'TDS' else '3.0'}\n{row}\n")
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"mode": mode, "states": ["A", "B"], "end_time": 10.0}))
    code = run(["ingest", events, "--meta", meta, "--out", tmp_path / "x"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "SchemaError"
    assert "row 3" in err["message"] and "nan" in err["message"]


@pytest.mark.parametrize("mode,bad_row,lineno", [
    ("TDS", "s3,p1,A,nan,", 6),
    ("TCATA", "s3,p1,A,nan,2.0", 5),
])
def test_utf8_bom_before_the_header_is_ignored(tmp_path, capsys, mode, bad_row, lineno):
    # spreadsheet "CSV UTF-8" exports start the file with EF BB BF
    events, meta = write_inputs(tmp_path, mode)
    seen = {}
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        d = tmp_path / name
        d.mkdir()
        (d / "events.csv").write_bytes(bom + events.read_bytes())
        assert run(["ingest", d / "events.csv", "--meta", meta, "--out", d / "out"]) == 0
        (d / "bad.csv").write_bytes(bom + events.read_bytes() + f"{bad_row}\n".encode())
        assert run(["ingest", d / "bad.csv", "--meta", meta, "--out", d / "bad"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SchemaError" and f"row {lineno}:" in err["message"]
        seen[name] = ([(d / "out" / f).read_bytes() for f in ("panel.csv", "report.json")],
                      err["message"].replace(str(d), ""))
    assert seen["bom"] == seen["plain"]


def write_latent_panel(tmp_path):
    """A hand-written TDS panel that claims normalization but keeps its latency."""
    (tmp_path / "panel.csv").write_text(
        "subject,product,descriptor,onset,offset\n"
        "s1,p1,A,0.0,1.0\n"
        "s2,p1,A,0.25,0.5\n"
        "s2,p1,B,0.5,1.0\n"
    )
    (tmp_path / "panel.json").write_text(canonical_json({
        "mode": "TDS", "states": ["A", "B"], "end_time": 1.0,
        "items": [["s1", "p1"], ["s2", "p1"]], "normalized": True,
    }))
    return tmp_path / "panel.csv"


def test_validate_exit_code_on_violation(tmp_path, capsys):
    assert run(["validate", write_latent_panel(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["violations"] == ["s2/p1: dominance gap near t=0"]
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ValidationError",
         "message": "1 invariant violation(s), first s2/p1: dominance gap near t=0"}]


@pytest.mark.parametrize("command", ["mfpca", "oracle-check"])
def test_analysis_refuses_a_false_normalized_claim(tmp_path, capsys, command):
    out = ["--out", tmp_path / "results"] if command == "mfpca" else []
    assert run([command, write_latent_panel(tmp_path), *out]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ProtocolError", "message": "s2/p1: dominance gap near t=0"}]
    assert not (tmp_path / "results").exists()


def write_long_panel(tmp_path):
    """A hand-written TCATA panel that claims normalization on the horizon 10."""
    (tmp_path / "panel.csv").write_text(
        "subject,product,descriptor,onset,offset\n"
        "s1,p1,A,0.0,4.0\n"
        "s2,p1,B,1.0,10.0\n"
        "s3,p1,A,2.0,3.0\n"
        "s3,p1,B,2.5,7.0\n"
    )
    (tmp_path / "panel.json").write_text(canonical_json({
        "mode": "TCATA", "states": ["A", "B"], "end_time": 10.0,
        "items": [["s1", "p1"], ["s2", "p1"], ["s3", "p1"]], "normalized": True,
    }))
    return tmp_path / "panel.csv"


def test_validate_reports_a_horizon_other_than_one(tmp_path, capsys):
    assert run(["validate", write_long_panel(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["violations"] == ["trajectories carry horizons other than 1: [10.0]"]
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ValidationError", "message": "1 invariant violation(s), first trajectories "
                                                "carry horizons other than 1: [10.0]"}]


@pytest.mark.parametrize("command", ["mfpca", "oracle-check"])
def test_analysis_refuses_a_normalized_claim_on_another_horizon(tmp_path, capsys, command):
    out = ["--out", tmp_path / "results"] if command == "mfpca" else []
    assert run([command, write_long_panel(tmp_path), *out]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ProtocolError", "message": "trajectories carry horizons other than 1: [10.0]"}]
    assert not (tmp_path / "results").exists()


def test_ingest_with_a_coarse_tick_ends_every_item_at_one(tmp_path):
    events, meta = write_inputs(tmp_path, "TDS")
    events.write_text("subject,product,descriptor,onset\n"
                      "s1,p1,A,0.0\ns1,p1,B,9.5\ns2,p1,B,0.0\n")  # 0.95 rounds to 1.2
    out = tmp_path / "out"
    assert run(["ingest", events, "--meta", meta, "--out", out, "--tick", 0.6]) == 0
    sidecar = json.loads((out / "panel.json").read_text())
    assert (sidecar["end_time"], sidecar["normalized"]) == (1, True)


@pytest.mark.parametrize("workload", ["tds-decomp", "tcata-ingest"])
def test_normalizing_an_ingested_panel_again_changes_nothing(tmp_path, workload):
    workloads = perfbench_module("workloads")
    workloads.generate(workloads.WORKLOADS[workload], 3, tmp_path)
    for tick in (1e-6, 1 / 16):
        out = tmp_path / f"tick{tick}"
        assert run(["ingest", tmp_path / "events.csv", "--meta", tmp_path / "meta.json",
                    "--out", out, "--tick", tick]) == 0
        panel = read_panel(out / "panel.csv")[0]
        again = apply_protocol_normalization(panel, tick=tick)
        for a, b in zip((again.horizons, *again.runs()), (panel.horizons, *panel.runs())):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def test_simulate_round_trip(tmp_path):
    spec = {
        "states": ["A", "B"],
        "horizon": 1.0,
        "initial": [0.5, 0.5],
        "transition": [[0.0, 1.0], [1.0, 0.0]],
        "sojourn": [{"dist": "exponential", "rate": 2.0}] * 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sim"
    assert run(["simulate", "--spec", spec_path, "--n", 6, "--seed", 42, "--out", out]) == 0

    from catfpca import simulate_panel, ProcessSpec

    expected = simulate_panel(ProcessSpec.from_dict(spec), 6, 42)
    panel, _, meta = read_panel(out / "panel.csv")
    assert panel.mode == "TDS"
    assert len(panel.items) == 6
    for a, b in zip(expected.items, panel.items):
        assert a.trajectory == b.trajectory


def test_simulate_then_ingest_reproduces_panel(tmp_path):
    # unit-horizon TDS chain starts at its first click, so ingest only
    # re-parses; --tick 0 disables rounding for an exact round trip
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "states": ["A", "B"],
        "horizon": 1.0,
        "initial": [0.5, 0.5],
        "transition": [[0.0, 1.0], [1.0, 0.0]],
        "sojourn": [{"dist": "exponential", "rate": 3.0}] * 2,
    }))
    sim = tmp_path / "sim"
    run(["simulate", "--spec", spec_path, "--n", 8, "--seed", 5, "--out", sim])
    ingested = tmp_path / "ingested"
    assert run(["ingest", sim / "panel.csv", "--meta", sim / "panel.json",
                "--out", ingested, "--tick", 0]) == 0
    original, _, _ = read_panel(sim / "panel.csv")
    back, _, _ = read_panel(ingested / "panel.csv")
    for a, b in zip(original.items, back.items):
        assert a.trajectory == b.trajectory
        assert a.key == b.key


def test_oracle_check_command(tmp_path, capsys):
    events, meta = write_inputs(tmp_path, "TDS")
    out = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", out])
    assert run(["oracle-check", out / "panel.csv"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["ok"] is True
    assert payload["cov_deviation"] <= 1e-12
    assert payload["orthonormality_deviation"] <= payload["eig_tolerance"]


@pytest.mark.parametrize("flag", ["--tol", "--eig-tol"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_oracle_check_tolerances_exit_2_before_reading_the_panel(tmp_path, capsys, flag, value):
    # the panel does not exist: the tolerance must be refused before it is opened
    assert run(["oracle-check", tmp_path / "missing.csv", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ValidationError",
        "message": f"catfpca oracle-check: argument {flag}: must be a finite number >= 0, "
                   f"got {float(value)}"}


def test_oracle_check_fails_on_non_orthonormal_eigenfunctions(tmp_path, capsys, monkeypatch):
    events, meta = write_inputs(tmp_path, "TDS")
    out = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", out])
    capsys.readouterr()
    real = cli.run_mfpca

    def stretched(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, eigenfunctions=1.01 * result.eigenfunctions)

    monkeypatch.setattr(cli, "run_mfpca", stretched)
    assert run(["oracle-check", out / "panel.csv"]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert payload["ok"] is False
    assert payload["eigenvalue_deviation"] <= payload["eig_tolerance"]
    assert payload["orthonormality_deviation"] == pytest.approx(1.01 ** 2 - 1.0, rel=1e-6)
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == "NumericalError"


def test_oracle_check_covers_every_retained_component_of_a_rank_deficient_panel(
        tmp_path, capsys, monkeypatch):
    # four distinct TDS paths and two repeats: six items, rank 3, and the dual form
    paths = {"s1": "A@0 B@2", "s2": "B@0 C@3", "s3": "C@0 A@5", "s4": "A@0 C@7 B@8"}
    paths.update(s5=paths["s1"], s6=paths["s2"])
    events = tmp_path / "events.csv"
    events.write_text("subject,product,descriptor,onset,offset\n" + "".join(
        f"{subject},p1,{click.replace('@', ',')},\n"
        for subject, path in paths.items() for click in path.split()))
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"mode": "TDS", "states": ["A", "B", "C"], "end_time": 10.0}))
    out = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", out]) == 0
    real, seen = cli.run_mfpca, []

    def recorded(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "run_mfpca", recorded)
    capsys.readouterr()
    assert run(["oracle-check", out / "panel.csv"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["ok"] is True
    result = seen[-1]
    assert 3 * result.grid.m > result.n == 6
    assert result.R == 3

    def last_stretched(*args, **kwargs):
        result = real(*args, **kwargs)
        phis = result.eigenfunctions.copy()
        phis[-1] *= 1.01
        return dataclasses.replace(result, eigenfunctions=phis)

    # the last retained eigenfunction is inside the check
    monkeypatch.setattr(cli, "run_mfpca", last_stretched)
    assert run(["oracle-check", out / "panel.csv"]) == 3
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["orthonormality_deviation"] == pytest.approx(1.01 ** 2 - 1.0, rel=1e-6)


@pytest.mark.parametrize("rows", [
    ["s1,p1,A,0,1"],
    ["s1,p1,A,0,1", "s2,p1,A,0,1", "s3,p1,A,0,1"],
], ids=["one-item", "identical-items"])
def test_oracle_check_passes_a_panel_with_no_retained_component(tmp_path, capsys, rows):
    events = tmp_path / "events.csv"
    events.write_text("subject,product,descriptor,onset,offset\n" + "\n".join(rows) + "\n")
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({"mode": "TCATA", "states": ["A", "B"], "end_time": 2.0}))
    out = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", out]) == 0
    capsys.readouterr()
    assert run(["oracle-check", out / "panel.csv"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["ok"] is True
    assert payload["orthonormality_deviation"] == payload["eigenvalue_deviation"] == 0


def assert_config_refused(tmp_path, capsys, command, options, flag):
    """``command`` exits 2 with one JSON line naming ``flag``, before reading its input.

    Returns the object on that line.
    """
    # the input file does not exist: the option must be refused before it is opened
    argv = [command, tmp_path / "missing.csv", "--out", tmp_path / "out", *options]
    if command == "ingest":
        argv += ["--meta", tmp_path / "missing.json"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert not caught
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValidationError"
    assert error["message"].startswith(f"catfpca {command}: argument {flag}: ")
    assert not (tmp_path / "out").exists()
    return error


@pytest.mark.parametrize("command,options,flag", [
    ("mfpca", ["--band-c", "nan"], "--band-c"),
    ("mfpca", ["--tick", "nan"], "--tick"),
    ("ingest", ["--tick", "inf"], "--tick"),
], ids=["mfpca-band_c-flag", "mfpca-tick-flag", "ingest-tick-flag"])
def test_non_finite_config_values_exit_2_before_reading_input(tmp_path, capsys, command,
                                                               options, flag):
    error = assert_config_refused(tmp_path, capsys, command, options, flag)
    assert error["message"].endswith(f"must be a finite number >= 0, got {float(options[-1])}")


@pytest.mark.parametrize("command,options,flag", [
    ("mfpca", ["--band-c=-1"], "--band-c"),
    ("mfpca", ["--tick=-0.001"], "--tick"),
    ("ingest", ["--tick=-0.001"], "--tick"),
], ids=["mfpca-band_c-flag", "mfpca-tick-flag", "ingest-tick-flag"])
def test_negative_config_values_exit_2_before_reading_input(tmp_path, capsys, command,
                                                            options, flag):
    error = assert_config_refused(tmp_path, capsys, command, options, flag)
    value = float(options[-1].split("=")[1])
    assert error["message"].endswith(f"must be a finite number >= 0, got {value}")


# the last tick is the largest subnormal double
@pytest.mark.parametrize("tick", ["1e-320", "5e-324", "2.225073858507201e-308"])
@pytest.mark.parametrize("command", ["ingest", "mfpca"])
def test_a_subnormal_tick_exits_2_before_reading_input(tmp_path, capsys, command, tick):
    # t / tick would overflow to inf and clip every time above 0 to 1
    error = assert_config_refused(tmp_path, capsys, command, ["--tick", tick], "--tick")
    assert error["message"] == (f"catfpca {command}: argument --tick: tick {float(tick)} is "
                                "below the smallest normal double 2.2250738585072014e-308")


@pytest.mark.parametrize("command,options", [
    ("mfpca", ["--weights", "trace"]),
], ids=["mfpca-flag"])
def test_unknown_weight_scheme_exits_2_before_reading_input(tmp_path, capsys, command, options):
    error = assert_config_refused(tmp_path, capsys, command, options, "--weights")
    assert error["message"] == ("catfpca mfpca: argument --weights: invalid choice: 'trace' "
                                "(choose from 'equal', 'trace_normalizing', "
                                "'inverse_mean_probability')")
    assert all(repr(name) in error["message"] for name in catfpca.estimation.WEIGHT_SCHEMES)


@pytest.mark.parametrize("options", [
    ["--grid", "uniform", "--cells", 99999999999999999999],
], ids=["flag"])
def test_cell_count_beyond_an_array_length_exits_2(tmp_path, capsys, options):
    events, meta = write_inputs(tmp_path, "TDS")
    ingested = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", ingested]) == 0
    capsys.readouterr()
    assert run(["mfpca", ingested / "panel.csv", "--out", tmp_path / "res", *options]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValidationError" and "cell count" in error["message"]


@pytest.mark.parametrize("options,message", [
    (["--grid", "bogus"], "invalid choice: 'bogus' (choose from 'union', 'uniform')"),
    (["--var-frac", 1.5], "must be in (0, 1], got 1.5"),
    (["--var-frac", 0], "must be in (0, 1], got 0.0"),
    (["--cells", 0], "must be >= 1, got 0"),
], ids=["grid", "var-frac", "var-frac-zero", "cells"])
def test_analysis_options_out_of_range_exit_2_before_reading_input(tmp_path, capsys, options,
                                                                    message):
    flag = options[0]
    error = assert_config_refused(tmp_path, capsys, "mfpca", options, flag)
    assert error["message"] == f"catfpca mfpca: argument {flag}: {message}"


def simulated_panel(tmp_path, n=12):
    """The panel file of ``catfpca simulate`` for n TDS trajectories of a two-state chain."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "states": ["A", "B"], "horizon": 1.0, "initial": [0.5, 0.5],
        "transition": [[0.0, 1.0], [1.0, 0.0]],
        "sojourn": [{"dist": "exponential", "rate": 3.0}] * 2,
    }))
    assert run(["simulate", "--spec", spec, "--n", n, "--seed", 3, "--out", tmp_path / "sim"]) == 0
    return tmp_path / "sim" / "panel.csv"


@pytest.mark.parametrize("options", [["--k", 2], ["--var-frac", 0.9]], ids=["k", "var-frac"])
def test_export_count_flags_set_what_is_exported(tmp_path, options):
    out = tmp_path / "res"
    assert run(["mfpca", simulated_panel(tmp_path), "--out", out, *options]) == 0
    result = json.loads((out / "result.json").read_text())
    k, evals = result["config"]["exported_components"], result["eigenvalues"]
    if options[0] == "--k":
        assert k == 2
    else:  # the fewest leading components that reach the fraction
        cumulative = np.cumsum(evals) / result["total_variance"]
        assert cumulative[k - 1] >= 0.9 and (k == 1 or cumulative[k - 2] < 0.9)
    assert 0 < k < len(evals)

    def rows(name):
        return (out / name).read_text().splitlines()[1:]

    n, q, m = result["n"], len(result["states"]), result["grid"]["cells"]
    assert len(rows("scores.csv")) == n * k
    assert len(rows("eigenfunctions.csv")) == q * k * m
    summary = (out / "summary.txt").read_text().split("\n\n")
    dims = summary[1].splitlines()[1:]  # below the table's header line
    assert [line.split()[0] for line in dims] == [str(r) for r in range(1, k + 1)]
    assert [line.split(":")[0] for line in summary[2].splitlines()[1:]] == [
        f"  dim {r}" for r in range(1, min(k, 4) + 1)]  # importance of the first four at most


def test_validate_and_mfpca_normalize_a_raw_events_file(tmp_path, capsys):
    events, meta = write_inputs(tmp_path, "TDS")  # a sidecar without "normalized"
    assert run(["validate", events, "--meta", meta]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert (checked["n"], checked["mode"], checked["violations"]) == (2, "TDS", [])
    ingested = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", ingested]) == 0
    assert run(["mfpca", events, "--meta", meta, "--out", tmp_path / "raw"]) == 0
    assert run(["mfpca", ingested / "panel.csv", "--out", tmp_path / "panel"]) == 0
    names = sorted(p.name for p in (tmp_path / "raw").iterdir())
    assert len(names) == 8
    for name in names:  # the same normalized panel, so the same bytes
        assert (tmp_path / "raw" / name).read_bytes() == (tmp_path / "panel" / name).read_bytes()


@pytest.mark.parametrize("flags,config", [
    ([], {"weights": "equal", "grid": "union", "cells": 512, "k": None, "var_frac": None,
          "band_c": 1.0, "tick": 1e-6}),
    (["--weights", "inverse_mean_probability", "--grid", "uniform", "--cells", "8", "--k", "1",
      "--band-c", "2", "--tick", "0.001"],
     {"weights": "inverse_mean_probability", "grid": "uniform", "cells": 8, "k": 1,
      "var_frac": None, "band_c": 2.0, "tick": 0.001}),
    (["--weights", "trace_normalizing", "--grid", "union", "--cells", "64", "--var-frac", "0.5",
      "--band-c", "0", "--tick", "0"],
     {"weights": "trace_normalizing", "grid": "union", "cells": 64, "k": None,
      "var_frac": 0.5, "band_c": 0.0, "tick": 0.0}),
], ids=["defaults", "every-flag-with-k", "every-flag-with-var-frac"])
def test_result_config_block_echoes_the_seven_settings(tmp_path, flags, config):
    panel = simulated_panel(tmp_path)
    out = tmp_path / "res"
    assert run(["mfpca", panel, "--out", out, *flags]) == 0
    result = json.loads((out / "result.json").read_text())
    echo = result["config"]
    assert sorted(echo) == sorted([*config, "exported_components"])
    assert {key: echo[key] for key in config} == config
    assert 0 < echo["exported_components"] <= len(result["eigenvalues"])


def test_zero_tick_and_band_multiplier_are_accepted(tmp_path):
    events, meta = write_inputs(tmp_path, "TCATA")
    ingested = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", ingested, "--tick", 0]) == 0
    out = tmp_path / "res"
    assert run(["mfpca", ingested / "panel.csv", "--out", out, "--band-c", 0]) == 0
    with open(out / "bands.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["lower"] == row["mean"] == row["upper"] for row in rows)


def python(code):
    """The last line ``code`` prints in a fresh interpreter that imports this catfpca."""
    src = str(Path(catfpca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_mfpca_does_not_import_numpy_ma(tmp_path, mode):
    if python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    events, meta = write_inputs(tmp_path, mode)
    ingested = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", ingested]) == 0
    argv = ["mfpca", str(ingested / "panel.csv"), "--out", str(tmp_path / "res")]
    assert python(f"import sys; from catfpca.cli import main; code = main({argv!r}); "
                  "print(code, 'numpy.ma' in sys.modules)") == "0 False"


def test_only_oracle_check_imports_the_oracles(tmp_path):
    events, meta = write_inputs(tmp_path, "TCATA")
    ingested = tmp_path / "ingested"
    calls = [["ingest", str(events), "--meta", str(meta), "--out", str(ingested)],
             ["mfpca", str(ingested / "panel.csv"), "--out", str(tmp_path / "res")],
             ["oracle-check", str(ingested / "panel.csv")]]
    assert python(f"import sys; from catfpca.cli import main\n"
                  f"print([(main(argv), 'catfpca.oracles' in sys.modules) for argv in {calls!r}])"
                  ) == "[(0, False), (0, False), (0, True)]"


def test_mfpca_outputs_are_byte_identical(tmp_path):
    events, meta = write_inputs(tmp_path, "TCATA")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["mfpca", ingested / "panel.csv", "--out", out1]) == 0
    assert run(["mfpca", ingested / "panel.csv", "--out", out2]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_config_rejects_conflicting_truncations(tmp_path, capsys):
    error = assert_config_refused(tmp_path, capsys, "mfpca", ["--k", 1, "--var-frac", 0.5],
                                  "--var-frac")
    assert error["message"] == "catfpca mfpca: argument --var-frac: not allowed with argument --k"


@pytest.mark.parametrize("exc", [MemoryError, np.linalg.LinAlgError])
def test_resource_and_solver_failures_exit_3(tmp_path, capsys, monkeypatch, exc):
    events, meta = write_inputs(tmp_path, "TDS")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise exc("cannot allocate the decomposition")

    monkeypatch.setattr(cli, "run_mfpca", fail)
    assert run(["mfpca", ingested / "panel.csv", "--out", tmp_path / "res"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == exc.__name__


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert run(["validate", tmp_path / "nope.csv"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] in ("FileNotFoundError", "OSError")


@pytest.mark.parametrize("sidecar,key", [
    ("mode states end_time", "JSON object"),
    ({"states": 5}, "'states'"),
    ({"states": "AB"}, "'states'"),
    ({"items": 5}, "'items'"),
    ({"items": None}, "'items'"),
    ({"items": [["s1"]]}, "'items'"),
    ({"end_time": "10"}, "end time of s1/p1 is not a number"),
    ({"end_time": True}, "end time of s1/p1 is not a number"),
    ({"end_time": {"default": "10"}}, "end time of s1/p1 is not a number"),
    ({"end_time": {"s1": True, "default": 10}}, "end time of s1/p1 is not a number"),
    ({"end_time": math.nan}, "s1/p1: end time must be positive and finite, got nan"),
    ({"end_time": math.inf}, "s1/p1: end time must be positive and finite, got inf"),
    ({"end_time": {"s1": math.nan, "default": 10}},
     "s1/p1: end time must be positive and finite, got nan"),
    ({"end_time": {"s1/p1": math.inf, "default": 10}},
     "s1/p1: end time must be positive and finite, got inf"),
    ({"normalized": "false"}, "'normalized'"),
    ({"normalized": 1}, "'normalized'"),
], ids=["not-an-object", "states-int", "states-str", "items-int", "items-null", "items-short",
        "end-time-str", "end-time-bool", "end-time-str-in-mapping", "end-time-bool-in-mapping",
        "end-time-nan", "end-time-inf", "end-time-nan-in-mapping", "end-time-inf-in-mapping",
        "normalized-str", "normalized-int"])
@pytest.mark.parametrize("command", ["ingest", "validate", "mfpca"])
def test_malformed_sidecar_exits_2(tmp_path, capsys, command, sidecar, key):
    events, meta = write_inputs(tmp_path, "TDS")
    if isinstance(sidecar, dict):
        sidecar = {**json.loads(meta.read_text()), **sidecar}
    meta.write_text(json.dumps(sidecar))
    out = [] if command == "validate" else ["--out", tmp_path / "out"]
    assert run([command, events, "--meta", meta, *out]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "SchemaError" and key in error["message"]


@pytest.mark.parametrize("argv", [
    ["mfpca", "panel.csv", "--out", "out", "--cells", "abc"],
    ["mfpca", "panel.csv"],
    ["ingest", "events.csv", "--meta", "meta.json", "--out", "out", "--k", "3"],
    ["pca", "panel.csv"],
], ids=["bad-int", "missing-out", "ingest-analysis-flag", "unknown-subcommand"])
def test_usage_errors_exit_2_with_one_json_line(capsys, argv):
    assert main(argv) == 2  # before any file is read
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValidationError"


@pytest.mark.parametrize("command", ["ingest", "mfpca"])
def test_config_file_option_is_a_usage_error(tmp_path, capsys, command):
    events, meta = write_inputs(tmp_path, "TDS")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tick": 0.0}))
    out = tmp_path / "out"
    assert run([command, events, "--meta", meta, "--out", out, "--config", cfg]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValidationError" and "--config" in error["message"]
    assert not out.exists()


def test_ingest_help_lists_only_its_own_options(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["ingest", "-h"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert all(flag in text for flag in ("events", "--meta", "--out", "--tick"))
    assert not any(flag in text for flag in
                   ("--config", "--weights", "--grid", "--cells", "--k ", "--var-frac", "--band-c"))


SPEC = {
    "states": ["A", "B"],
    "horizon": 1.0,
    "initial": [0.5, 0.5],
    "transition": [[0.0, 1.0], [1.0, 0.0]],
    "sojourn": [{"dist": "exponential", "rate": 2.0}] * 2,
}
RENEWAL = {"dist": "exponential", "rate": 4.0}


@pytest.mark.parametrize("spec,message", [
    ({}, "spec missing 'states'"),
    ([], "spec must be a JSON object"),
    ({**SPEC, "sojourn": [{"dist": "exponential"}] * 2}, "sojourn missing 'rate'"),
    ({**SPEC, "horizon": "x"}, "spec 'horizon' has an ill-typed value"),
    ({**SPEC, "tcata": [{"off": RENEWAL}] * 2}, "tcata pair missing 'on'"),
    ({**SPEC, "sojourn": 5}, "spec 'sojourn' has an ill-typed value"),
    ({**SPEC, "transition": [[0.0, 1.0], [1.0]]}, "spec 'transition' has an ill-typed value"),
    ({**SPEC, "tcata": [{"off": RENEWAL, "on": 3}] * 2}, "sojourn must be a JSON object"),
    ({**SPEC, "states": "AB"}, "spec 'states' has an ill-typed value"),
    ({**SPEC, "horizon": "1.0"}, "spec 'horizon' has an ill-typed value"),
    ({**SPEC, "horizon": True}, "spec 'horizon' has an ill-typed value"),
    ({**SPEC, "sojourn": [{"dist": "exponential", "rate": True}] * 2},
     "sojourn 'rate' has an ill-typed value"),
    ({**SPEC, "initial": ["0.5", "0.5"]}, "spec 'initial' has an ill-typed value"),
    ({**SPEC, "transition": [[0, "1"], [True, 0]]}, "spec 'transition' has an ill-typed value"),
    ({**SPEC, "tcata": [{"off": {"dist": "uniform", "low": "0.1", "high": 1}, "on": RENEWAL}] * 2},
     "sojourn 'low' has an ill-typed value"),
], ids=["empty", "list", "no-rate", "horizon-str", "no-on", "sojourn-int", "ragged", "on-int",
        "states-str", "horizon-quoted", "horizon-bool", "rate-bool", "initial-quoted",
        "transition-quoted-bool", "low-quoted"])
def test_malformed_spec_exits_2(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run(["simulate", "--spec", spec_path, "--n", 3, "--out", tmp_path / "sim"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "SchemaError" and message in error["message"]
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("spec,message", [
    ({**SPEC, "initial": [math.nan, math.nan]}, "initial distribution"),
    ({**SPEC, "initial": [math.inf, 0.0]}, "initial distribution"),
    ({**SPEC, "transition": [[0.0, math.nan], [1.0, 0.0]]}, "transition matrix"),
    ({**SPEC, "transition": [[0.0, math.inf], [1.0, 0.0]]}, "transition rows"),
    ({**SPEC, "sojourn": [{"dist": "uniform", "low": 0.1, "high": math.inf}] * 2},
     "uniform bounds"),
    ({**SPEC, "tcata": [{"off": {"dist": "uniform", "low": math.nan, "high": 1.0},
                         "on": RENEWAL}] * 2}, "uniform bounds"),
], ids=["initial-nan", "initial-inf", "transition-nan", "transition-inf", "high-inf",
        "low-nan"])
def test_non_finite_spec_values_exit_2(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))  # json writes NaN / Infinity
    assert run(["simulate", "--spec", spec_path, "--n", 3, "--out", tmp_path / "sim"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValidationError" and message in error["message"]
    assert not (tmp_path / "sim").exists()


def test_integer_numbers_in_spec_and_sidecar_are_accepted(tmp_path):
    spec = {**SPEC, "horizon": 1, "initial": [1, 0], "transition": [[0, 1], [1, 0]],
            "sojourn": [{"dist": "exponential", "rate": 2},
                        {"dist": "uniform", "low": 1, "high": 2}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run(["simulate", "--spec", tmp_path / "spec.json", "--n", 3,
                "--out", tmp_path / "sim"]) == 0
    events, meta = write_inputs(tmp_path, "TDS")
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "end_time": {"default": 10}}))
    assert run(["ingest", events, "--meta", meta, "--out", tmp_path / "out"]) == 0


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_ingest_and_mfpca_construct_no_trajectory_objects(tmp_path, monkeypatch, mode):
    built = []
    init = CategoricalTrajectory.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CategoricalTrajectory, "__init__", counting_init)
    events, meta = write_inputs(tmp_path, mode)
    assert run(["ingest", events, "--meta", meta, "--out", tmp_path / "in"]) == 0
    assert run(["mfpca", tmp_path / "in" / "panel.csv", "--out", tmp_path / "out"]) == 0
    assert built == []
    assert len(read_panel(tmp_path / "in" / "panel.csv")[0].trajectories) == len(built) == 2


@pytest.mark.parametrize("command", ["ingest", "simulate"])
def test_input_json_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    events, _ = write_inputs(tmp_path, "TDS")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"mode": "\xff"}')
    argv = {"ingest": ["ingest", events, "--meta", bad, "--out", tmp_path / "out"],
            "simulate": ["simulate", "--spec", bad, "--n", 3, "--out", tmp_path / "out"]}[command]
    assert run(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UnicodeDecodeError"


@pytest.mark.parametrize("command", ["ingest", "simulate"])
def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    events, _ = write_inputs(tmp_path, "TDS")
    value = {"ingest": {"mode": "TDS", "states": ["A", "B"], "end_time": "BIG"},
             "simulate": {**SPEC, "horizon": "BIG"}}[command]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(value).replace('"BIG"', "1" + "0" * 5000))
    argv = {"ingest": ["ingest", events, "--meta", bad, "--out", tmp_path / "out"],
            "simulate": ["simulate", "--spec", bad, "--n", 3, "--out", tmp_path / "out"]}[command]
    assert run(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "SchemaError" and str(bad) in error["message"]
    assert not (tmp_path / "out").exists()


def test_uniform_grid_policy(tmp_path):
    events, meta = write_inputs(tmp_path, "TCATA")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    out = tmp_path / "res"
    assert run(["mfpca", ingested / "panel.csv", "--out", out,
                "--grid", "uniform", "--cells", 16]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["grid"]["cells"] == 16


def test_summary_names_the_grid(tmp_path, capsys):
    events, meta = write_inputs(tmp_path, "TCATA")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    union_m = read_panel(ingested / "panel.csv")[0].grid().m
    cases = [([], f"cells={union_m} (union)"),
             (["--cells", 2], f"cells=2 (uniform; union grid has {union_m})"),
             (["--grid", "uniform", "--cells", 16], f"cells=16 (uniform; union grid has {union_m})")]
    for i, (flags, line) in enumerate(cases):
        capsys.readouterr()
        out = tmp_path / f"res{i}"
        assert run(["mfpca", ingested / "panel.csv", "--out", out, *flags]) == 0
        first = (out / "summary.txt").read_text().splitlines()[0]
        assert line in first
        assert capsys.readouterr().out.splitlines()[0] == first


def test_negative_k_exits_2(tmp_path, capsys):
    error = assert_config_refused(tmp_path, capsys, "mfpca", ["--k", -1], "--k")
    assert error["message"] == "catfpca mfpca: argument --k: must be >= 0, got -1"


def test_python_dash_m_runs_the_cli(tmp_path):
    events, meta = write_inputs(tmp_path, "TDS")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    src = str(Path(catfpca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "catfpca", "mfpca", str(ingested / "panel.csv"),
         "--out", str(tmp_path / "res")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "res" / "result.json").exists()
