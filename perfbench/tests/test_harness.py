import sys
import time

import pytest

import run
import tracing
import workloads
from conftest import small


def stub(tmp_path, body: str):
    path = tmp_path / "stub.py"
    path.write_text("import os, signal, sys, time\n" + body + "\n")
    return path


@pytest.mark.parametrize("body, status", [
    ("sys.exit(0)", "ok"),
    ("sys.exit(3)", "exit 3"),
    ("os.kill(os.getpid(), signal.SIGSEGV)", "signal SIGSEGV"),
    ("time.sleep(30)", "timeout after 1 s"),
])
def test_run_child_reports_exit_status(tmp_path, body, status):
    t0 = time.perf_counter()
    out = run.run_child([sys.executable, stub(tmp_path, body)], run.child_env(),
                        timeout=1.0, log=tmp_path / "log")
    assert out["status"] == status
    assert out["maxrss_kb"] > 0
    assert time.perf_counter() - t0 < 10


def test_failed_operations_are_recorded_and_the_harness_continues(tmp_path):
    w = small("tds-decomp", n=8)
    ctx = {"workload": w, "seed": 1, "run_dir": tmp_path, "inputs": tmp_path / "inputs",
           "env": run.child_env(), "t_start": time.perf_counter()}
    ctx["worker"] = stub(tmp_path, "os.kill(os.getpid(), signal.SIGSEGV)")
    crashed = run.run_operation(ctx, 0, traced=False, facts=True)
    ctx["worker"] = stub(tmp_path, "print('no record written')")
    silent = run.run_operation(ctx, 1, traced=False, facts=False)
    assert crashed["failed"] and crashed["status"] == "signal SIGSEGV"
    assert silent["failed"] and silent["status"] == "ok"
    assert "no record written" in silent["log_tail"]
    assert not (tmp_path / "op0").exists() and not (tmp_path / "op1").exists()


def test_generator_is_seeded(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        w = small(name, n=min(w.n, 8))
        a = workloads.generate(w, 5, tmp_path / name / "a")
        b = workloads.generate(w, 5, tmp_path / name / "b")
        c = workloads.generate(w, 6, tmp_path / name / "c")
        assert a == b and a != c


def test_tracer_spans_cover_the_pipeline(tmp_path):
    from catfpca import cli

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "catfpca"]
    saved = [(m, dict(vars(m))) for m in modules]
    w = small("tcata-ingest", n=20, q=3)
    inputs, out = tmp_path / "inputs", tmp_path / "op"
    workloads.generate(w, 1, inputs)
    tracer = tracing.Tracer("test")
    try:
        tracer.install()
        t0 = time.perf_counter()
        done = workloads.run_stages(w, 1, inputs, out)
        pipeline = time.perf_counter() - t0
    finally:
        for module, attrs in saved:
            for key, value in attrs.items():
                setattr(module, key, value)
    assert [code for code, _ in done.values()] == [0, 0]
    assert not hasattr(cli.main, "__wrapped__") and tracer.absent == []
    spans = tracer.spans
    names = {s["name"] for s in spans}
    assert {"cli.main", "io.read_panel", "ingest.parse_events", "io.read_events_csv",
            "kernels.batch_cell_averages", "mfpca.eigendecompose", "io.write_bands"} <= names
    by_id = {s["id"]: s for s in spans}
    # parse_events is reached both from cli.cmd_ingest and through io.read_panel
    parents = {by_id[s["parent"]]["name"] for s in spans
               if s["name"] == "ingest.parse_events"}
    assert parents == {"cli.main", "io.read_panel"}
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main", "cli.main"]
    own = tracing.self_times(spans)
    assert min(own) >= 0
    assert sum(own) == pytest.approx(sum(s["end"] - s["start"] for s in roots))
    assert sum(own) <= pipeline


def test_layer_breakdown_accounts_for_the_pipeline():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 1.0},
        {"id": 1, "name": "io.read_panel", "parent": 0, "start": 0.1, "end": 0.4},
        {"id": 2, "name": "ingest.parse_events", "parent": 1, "start": 0.2, "end": 0.35,
         "count": 7},
        {"id": 3, "name": "mfpca.run_mfpca", "parent": 0, "start": 0.4, "end": 0.7},
        {"id": 4, "name": "io.write_bands", "parent": 0, "start": 0.7, "end": 0.95},
    ]
    op = {"spans": spans, "pipeline_s": 1.5, "export_rows": 3, "export_bytes": 10,
          "stages": {"ingest": 0.4, "mfpca": 1.0}}
    out, stress = run.layer_breakdown(op)
    layers = sum(out[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers + out["trace.unaccounted_s"] == pytest.approx(1.5)
    assert out["io.export_s"] == pytest.approx(0.25)
    assert out["io.read_panel_s"] == pytest.approx(0.3)
    assert out["ingest.items"] == 7
    assert out["first_stage_s"] == 0.4
    assert stress["io.export"] == pytest.approx(0.25)
    assert run.stress_check("tcata-sim-export", stress)["holds"] is False
