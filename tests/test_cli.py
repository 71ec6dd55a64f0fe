import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import catfpca
from catfpca import cli
from catfpca.cli import main
from catfpca.io import canonical_json, read_panel

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


def test_validate_exit_code_on_violation(tmp_path, capsys):
    # hand-written panel that claims normalization but breaks TDS exclusivity
    (tmp_path / "panel.csv").write_text(
        "subject,product,descriptor,onset,offset\n"
        "s1,p1,A,0.0,0.6\n"
        "s1,p1,B,0.4,1.0\n"
    )
    (tmp_path / "panel.json").write_text(canonical_json({
        "mode": "TCATA", "states": ["A", "B"], "end_time": 1.0,
        "items": [["s1", "p1"]], "normalized": True,
    }))
    # TCATA active at t=0? no; active at horizon? yes -> violation
    code = run(["validate", tmp_path / "panel.csv"])
    assert code == 2


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


def assert_config_refused(tmp_path, capsys, command, options, key):
    """``command`` exits 2 with one JSON line naming ``key``, before reading its input."""
    # the input file does not exist: the config must be refused before it is opened
    if isinstance(options[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options[-1]))  # json writes NaN / -Infinity
        options = [options[0], cfg]
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
    assert error["error"] == "ValidationError" and repr(key) in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,options,key", [
    ("mfpca", ["--band-c", "nan"], "band_c"),
    ("mfpca", ["--tick", "nan"], "tick"),
    ("ingest", ["--tick", "inf"], "tick"),
    ("mfpca", ["--config", {"band_c": float("nan")}], "band_c"),
    ("ingest", ["--config", {"tick": float("-inf")}], "tick"),
], ids=["mfpca-band_c-flag", "mfpca-tick-flag", "ingest-tick-flag", "mfpca-band_c-config",
        "ingest-tick-config"])
def test_non_finite_config_values_exit_2_before_reading_input(tmp_path, capsys, command,
                                                               options, key):
    assert_config_refused(tmp_path, capsys, command, options, key)


@pytest.mark.parametrize("command,options,key", [
    ("mfpca", ["--band-c=-1"], "band_c"),
    ("mfpca", ["--tick=-0.001"], "tick"),
    ("ingest", ["--tick=-0.001"], "tick"),
    ("mfpca", ["--config", {"band_c": -1}], "band_c"),
    ("mfpca", ["--config", {"tick": -1e-6}], "tick"),
    ("ingest", ["--config", {"tick": -0.001}], "tick"),
], ids=["mfpca-band_c-flag", "mfpca-tick-flag", "ingest-tick-flag", "mfpca-band_c-config",
        "mfpca-tick-config", "ingest-tick-config"])
def test_negative_config_values_exit_2_before_reading_input(tmp_path, capsys, command,
                                                            options, key):
    assert_config_refused(tmp_path, capsys, command, options, key)


def test_zero_tick_and_band_multiplier_are_accepted(tmp_path):
    events, meta = write_inputs(tmp_path, "TCATA")
    ingested = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", ingested, "--tick", 0]) == 0
    out = tmp_path / "res"
    assert run(["mfpca", ingested / "panel.csv", "--out", out, "--band-c", 0]) == 0
    with open(out / "bands.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["lower"] == row["mean"] == row["upper"] for row in rows)


@pytest.mark.parametrize("mode", ["TDS", "TCATA"])
def test_mfpca_does_not_import_numpy_ma(tmp_path, mode):
    src = str(Path(catfpca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))

    def python(code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    if python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    events, meta = write_inputs(tmp_path, mode)
    ingested = tmp_path / "ingested"
    assert run(["ingest", events, "--meta", meta, "--out", ingested]) == 0
    argv = ["mfpca", str(ingested / "panel.csv"), "--out", str(tmp_path / "res")]
    assert python(f"import sys; from catfpca.cli import main; code = main({argv!r}); "
                  "print(code, 'numpy.ma' in sys.modules)") == "0 False"


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


def test_config_file_with_flag_overrides(tmp_path):
    events, meta = write_inputs(tmp_path, "TDS")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "trace_normalizing", "cells": 64}))
    out = tmp_path / "res"
    assert run(["mfpca", ingested / "panel.csv", "--out", out,
                "--config", cfg, "--weights", "equal"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["weights"]["scheme"] == "equal"      # flag wins
    assert result["config"]["cells"] == 64             # file value kept


def test_config_rejects_conflicting_truncations(tmp_path, capsys):
    events, meta = write_inputs(tmp_path, "TDS")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    code = run(["mfpca", ingested / "panel.csv", "--out", tmp_path / "z",
                "--k", 1, "--var-frac", 0.9])
    assert code == 2


@pytest.mark.parametrize("config,key", [
    ({"cells": "512"}, "cells"),
    ({"k": 2.5}, "k"),
    ({"weights": 3}, "weights"),
    ({"band_c": "x"}, "band_c"),
    ({"var_frac": "0.5"}, "var_frac"),
    ({"k": True}, "k"),
    ({"band_c": True}, "band_c"),
    ({"seed": 3}, "seed"),
    ([{"k": 2}], "JSON object"),
], ids=["cells-str", "k-float", "weights-int", "band_c-str", "var_frac-str", "k-bool",
        "band_c-bool", "seed", "not-an-object"])
def test_ill_typed_config_values_exit_2(tmp_path, capsys, config, key):
    events, meta = write_inputs(tmp_path, "TDS")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert run(["mfpca", ingested / "panel.csv", "--out", tmp_path / "res", "--config", cfg]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValidationError" and key in error["message"]


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
], ids=["not-an-object", "states-int", "states-str", "items-int", "items-null", "items-short"])
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
], ids=["empty", "list", "no-rate", "horizon-str", "no-on", "sojourn-int", "ragged", "on-int",
        "states-str"])
def test_malformed_spec_exits_2(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run(["simulate", "--spec", spec_path, "--n", 3, "--out", tmp_path / "sim"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "SchemaError" and message in error["message"]
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("command", ["ingest", "simulate", "mfpca-config"])
def test_input_json_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    events, meta = write_inputs(tmp_path, "TDS")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"mode": "\xff"}')
    argv = {"ingest": ["ingest", events, "--meta", bad, "--out", tmp_path / "out"],
            "simulate": ["simulate", "--spec", bad, "--n", 3, "--out", tmp_path / "out"],
            "mfpca-config": ["mfpca", events, "--meta", meta, "--config", bad,
                             "--out", tmp_path / "out"]}[command]
    assert run(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UnicodeDecodeError"


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


def test_negative_k_exits_2(tmp_path):
    events, meta = write_inputs(tmp_path, "TDS")
    ingested = tmp_path / "ingested"
    run(["ingest", events, "--meta", meta, "--out", ingested])
    assert run(["mfpca", ingested / "panel.csv", "--out", tmp_path / "res", "--k", -1]) == 2


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
