"""Pipeline benchmark of the catfpca CLI: seeded workloads, validated outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload tds-decomp --seed 1 --seconds 40 --trace 0

One closed-loop client: the harness runs one operation at a time and starts
the next only after the previous one has finished and its outputs have been
checked.  An operation is the user's two CLI calls (``ingest`` or
``simulate``, then ``mfpca``), made through ``catfpca.cli.main`` in a fresh
child process (``worker.py``) so that a crash, a signal or a runaway
allocation fails that operation only and peak RSS is measured per
operation.  Operations are started until the next one would end more than
``--seconds`` after the benchmark started; every figure is a median over
the operations of the run.

Every process of a run shares one core with a speed reference
(``speed.py``), and every reported time is a time at nominal speed: its
wall time divided by the reference's speed factor over the same interval.
The wall times are printed beside them and kept in the run record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics from
spans recorded around catfpca's public functions (``tracing.py``), measured
on every other operation, the untraced ones giving the tracing overhead.
Everything the run produced is written to ``perfbench/runs/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
BUDGET_S = 170.0       # hard limit for one invocation, below the 180 s contract
SETUP_FIRST = 3        # fresh interpreters for setup_s before the first operation
SETUP_CODE = "import catfpca.cli; catfpca.cli.build_parser()"
MIB = 1 << 20

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """Environment of every child: the checkout's src first, one BLAS thread.

    Every process of a run shares one core (see ``pin_to_one_core``), so
    more BLAS threads would only take turns on it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pin_to_one_core() -> int:
    """Pin this process, and so every child it starts, to its last allowed core.

    The speed reference (``speed.py``) follows the core it shares with the
    program, not the host: other cores drift on their own.
    """
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def run_child(argv, env, timeout: float, log: Path) -> dict:
    """Run ``argv`` to completion; exit status, peak RSS and wall time.

    A nonzero exit, a signal or the timeout is reported in ``status``;
    nothing raises, so the caller carries on with its next operation.
    """
    t0 = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen([str(a) for a in argv], env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if os.WIFSIGNALED(status) and time.perf_counter() - t0 >= timeout:
        state = f"timeout after {timeout:.0f} s"
    elif os.WIFSIGNALED(status):
        state = f"signal {signal.Signals(os.WTERMSIG(status)).name}"
    elif proc.returncode:
        state = f"exit {proc.returncode}"
    else:
        state = "ok"
    t1 = time.perf_counter()
    return {"status": state, "wall_s": t1 - t0, "start": t0, "end": t1,
            "maxrss_kb": usage.ru_maxrss, "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt}


def measure_setup(env, repeats: int) -> list[dict]:
    """Fresh interpreters that import catfpca and build the CLI parser: wall times."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
        t1 = time.perf_counter()
        samples.append({"wall_s": t1 - t0, "start": t0, "end": t1})
        if done.returncode != 0:
            raise RuntimeError("cannot import catfpca: "
                               + done.stderr.decode(errors="replace")[-2000:])
    return samples


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

def _export_counts(results: Path) -> tuple[int, int]:
    rows = size = 0
    for f in sorted(results.iterdir()):
        data = f.read_bytes()
        size += len(data)
        if f.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return rows, size


def run_operation(ctx: dict, index: int, traced: bool, facts: bool) -> dict:
    """Run, check and clean up one operation; returns its record."""
    w, seed, run_dir = ctx["workload"], ctx["seed"], ctx["run_dir"]
    op_dir = run_dir / f"op{index}"
    op_dir.mkdir()
    argv = [sys.executable, ctx["worker"], "--workload", w.name, "--seed", seed,
            "--inputs", ctx["inputs"], "--out", op_dir, "--record", op_dir / "record.json",
            "--run-id", f"{w.name}-{seed}-op{index}"]
    argv += ["--trace"] * traced + ["--facts"] * facts
    remaining = BUDGET_S - (time.perf_counter() - ctx["t_start"]) - 5.0
    op = {"index": index, "traced": traced}
    op.update(run_child(argv, ctx["env"], max(remaining, 1.0), op_dir / "worker.log"))
    try:
        if op["status"] != "ok":
            raise validate.Invalid(op["status"])
        rec = json.loads((op_dir / "record.json").read_text())
        if not Path(rec["catfpca"]).resolve().is_relative_to(SRC.resolve()):
            raise validate.Invalid(f"imported catfpca from {rec['catfpca']}, not {SRC}")
        results = op_dir / "results"
        op["sizes"] = validate.check_outputs(results, w.mode)
        panel_dir = op_dir / ("sim" if w.first_stage == "simulate" else "ingested")
        hashes = {name: workloads.sha256_file(path) for name, path in (
            ("result.json", results / "result.json"),
            ("scores.csv", results / "scores.csv"),
            ("panel.csv", panel_dir / "panel.csv"),
        )}
        first = ctx.setdefault("hashes", hashes)
        differ = [name for name in hashes if hashes[name] != first[name]]
        if differ:
            raise validate.Invalid(f"not byte-identical to the first operation: {differ}")
        op["export_rows"], op["export_bytes"] = _export_counts(results)
        op.update({k: rec[k] for k in ("stages", "pipeline_s", "t0", "spans", "absent",
                                       "machine", "union_cells") if k in rec})
        op["failed"] = False
    except (validate.Invalid, OSError, ValueError, KeyError) as exc:
        op["failed"] = True
        op["error"] = str(exc)
        log = op_dir / "worker.log"
        op["log_tail"] = log.read_text(errors="replace")[-2000:] if log.exists() else ""
    shutil.rmtree(op_dir)
    return op


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def set_speed_factors(meter: speed.Speedometer, setup: list[dict], ops: list[dict],
                      exponents=(1.0, 1.0)) -> None:
    """Times at nominal speed: each set-up sample and stage over its own speed factor.

    A stage is divided by its factor raised to the workload's exponent for
    it (``Workload.speed_exponents``); the pipeline at nominal speed is the
    sum of its stages, plus the rest of its wall time over the operation's
    factor.  ``nominal_ratio`` (nominal / wall pipeline) scales the
    operation's per-layer times.
    """
    for sample in setup:
        sample["speed"] = meter.factor(sample["start"], sample["end"])
        sample["nominal_s"] = sample["wall_s"] / sample["speed"]
    for op in ops:
        if op["failed"]:
            continue
        t0, t1 = op["t0"], op["t0"] + op["pipeline_s"]
        op["speed"] = meter.factor(t0, t1)
        (first, t_first), (_, t_mfpca) = op["stages"].items()
        op["stage_speed"] = {first: meter.factor(t0, t0 + t_first),
                             "mfpca": meter.factor(t1 - t_mfpca, t1)}
        op["nominal_stages"] = {stage: op["stages"][stage] / op["stage_speed"][stage] ** e
                                for stage, e in zip((first, "mfpca"), exponents)}
        rest = op["pipeline_s"] - t_first - t_mfpca
        op["nominal_pipeline_s"] = sum(op["nominal_stages"].values()) + rest / op["speed"]
        op["nominal_ratio"] = op["nominal_pipeline_s"] / op["pipeline_s"]


def end_to_end(good: list[dict], setup: list[dict], stage: str, nominal: bool) -> dict:
    """Medians over the successful operations, and over the set-up samples.

    With ``nominal``, the times at nominal speed (``set_speed_factors``);
    without, the wall times as measured.
    """
    if nominal:
        pipeline = [o["nominal_pipeline_s"] for o in good]
        stages = [o["nominal_stages"] for o in good]
        setup_s = [s["nominal_s"] for s in setup]
    else:
        pipeline = [o["pipeline_s"] for o in good]
        stages = [o["stages"] for o in good]
        setup_s = [s["wall_s"] for s in setup]
    return {
        "pipeline_s": _median(pipeline),
        "first_stage_s": _median([s[stage] for s in stages]),
        "mfpca_s": _median([s["mfpca"] for s in stages]),
        "peak_rss_mb": _median([o["maxrss_kb"] * 1024 / MIB for o in good]),
        "setup_s": _median(setup_s),
    }


# per-layer time metric -> span names whose inclusive time it sums
SPAN_METRICS = {
    "mfpca.eigendecompose_s": ("mfpca.eigendecompose",),
    "mfpca.assemble_operator_s": ("mfpca.assemble_operator",),
    "mfpca.scores_s": ("mfpca.scores",),
    "mfpca.run_mfpca_s": ("mfpca.run_mfpca",),
    "estimation.estimate_field_s": ("estimation.estimate_field",
                                    "estimation.estimate_field_from_cells"),
    "estimation.panel_cell_values_s": ("estimation.panel_cell_values",),
    "estimation.compute_weights_s": ("estimation.compute_weights",),
    "kernels.cross_moment_s": ("kernels.cross_moment",),
    "kernels.batch_cell_averages_s": ("kernels.batch_cell_averages",),
    "trajectory.union_grid_s": ("trajectory.union_grid",),
    "trajectory.to_indicators_s": ("trajectory.to_indicators",),
    "ingest.parse_events_s": ("ingest.parse_events",),
    "ingest.normalize_s": ("ingest.normalize",),
    "io.read_events_csv_s": ("io.read_events_csv",),
    "io.read_panel_s": ("io.read_panel",),
    "io.write_panel_s": ("io.write_panel",),
    "io.write_scores_s": ("io.write_scores",),
    "io.write_eigenfunctions_s": ("io.write_eigenfunctions",),
    "io.write_bands_s": ("io.write_bands",),
    "simulate.simulate_panel_s": ("simulate.simulate_panel",),
}
LAYERS = ("cli", "io", "ingest", "trajectory", "estimation", "kernels", "mfpca", "simulate")


def layer_breakdown(op: dict) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced operation, plus its stress figures."""
    spans = op["spans"]
    own = tracing.self_times(spans)
    total, self_by_name, count = {}, {}, {}
    for s, t in zip(spans, own):
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + t
        count[s["name"]] = count.get(s["name"], 0) + s.get("count", 0)
    out = {metric: sum(total.get(n, 0.0) for n in names)
           for metric, names in SPAN_METRICS.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_by_name.items()
                                     if n.split(".")[0] == layer)
    roots = [s for s in spans if s["parent"] is None]
    mfpca_root = roots[-1]["id"] if roots else None
    export = [s for s in spans if s["parent"] == mfpca_root
              and s["name"].startswith("io.") and not s["name"].startswith("io.read")]
    out["io.export_s"] = sum(s["end"] - s["start"] for s in export)
    out["first_stage_s"] = next(t for stage, t in op["stages"].items() if stage != "mfpca")
    out["trace.pipeline_s"] = op["pipeline_s"]
    out["trace.unaccounted_s"] = op["pipeline_s"] - sum(s["end"] - s["start"] for s in roots)
    out["ingest.items"] = count.get("ingest.parse_events", 0)
    out["io.read_events_csv.rows"] = count.get("io.read_events_csv", 0)
    out["simulate.segments"] = count.get("simulate.simulate_panel", 0)
    out["io.export.rows"] = op["export_rows"]
    out["io.export.bytes"] = op["export_bytes"]
    # function self times, with the mfpca exports as one entry, for the stress checks
    stress = dict(self_by_name)
    for s in export:
        stress[s["name"]] -= own[s["id"]]
    stress["io.export"] = out["io.export_s"]
    return out, stress


def computed_counts(sizes: dict, union_cells: int) -> dict:
    """Operation and byte counts derived from the problem sizes (marked computed)."""
    n, q, m, R, k = (sizes[x] for x in ("n", "q", "m", "R", "k"))
    qm = q * m
    return {
        "mfpca.operator_dim": qm,
        "mfpca.operator.mb": 8.0 * qm * qm / MIB,
        # symmetric eigendecomposition with eigenvectors, ~9 N^3 flops (Golub & Van Loan)
        "mfpca.eigh.gflop": 9.0 * qm ** 3 / 1e9,
        "mfpca.retained_ratio": R / qm,
        "mfpca.exported_ratio": k / R if R else 0.0,
        "kernels.cross_moment.gflop": 2.0 * n * qm * qm / 1e9,
        "estimation.cells": m,
        "estimation.cells_ratio": m / union_cells,
        "trajectory.union_cells": union_cells,
    }


def stress_check(name: str, stress: dict) -> dict:
    """Whether the traced run loads the layer the workload is meant to load."""
    if name == "tds-decomp":
        top = max(stress, key=stress.get)
        return {"expect": "mfpca.eigendecompose has the largest self time",
                "largest": top, "holds": top == "mfpca.eigendecompose"}
    if name == "tcata-ingest":
        reads = sum(stress.get(n, 0.0) for n in
                    ("ingest.parse_events", "io.read_panel", "io.read_events_csv"))
        solve = sum(t for n, t in stress.items() if n.startswith("mfpca."))
        return {"expect": "parse_events + read_panel + read_events_csv self times "
                          "exceed all mfpca self times", "reads_s": reads,
                "mfpca_s": solve, "holds": reads > solve}
    top = max(stress, key=stress.get)
    return {"expect": "io.export is the largest", "largest": top,
            "holds": top == "io.export"}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def source_revision() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    h = hashlib.sha256()
    for path in sorted((SRC / "catfpca").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git": rev, "src_sha256": h.hexdigest()}


def fingerprint_status(name: str, seed: int, current: dict) -> tuple[str, str]:
    """Compare the inputs' sha256 with those recorded for this seed."""
    recorded = json.loads((HERE / "fingerprints.json").read_text()).get(name, {}).get(str(seed))
    digest = hashlib.sha256(json.dumps(current, sort_keys=True).encode()).hexdigest()[:12]
    if recorded is None:
        return "unrecorded", f"{name}@{digest}"
    if recorded == current:
        return "match", name
    return "mismatch", f"{name}@{digest}"


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_loop(ctx: dict, setup: list[dict], trace: bool) -> list[dict]:
    """Closed loop: start operations until the next one would end after ``--seconds``.

    One more set-up sample is taken before each operation, so that
    ``setup_s`` is spread over the whole run like the operations.
    """
    ops: list[dict] = []
    deadline = ctx["t_start"] + ctx["seconds"]
    hard_stop = ctx["t_start"] + BUDGET_S - 10.0
    while True:
        t0 = time.perf_counter()
        setup.extend(measure_setup(ctx["env"], 1))
        ops.append(run_operation(ctx, len(ops), traced=trace and len(ops) % 2 == 1,
                                 facts=not any("machine" in o for o in ops)))
        ops[-1]["elapsed_s"] = time.perf_counter() - t0
        next_end = time.perf_counter() + _median([o["elapsed_s"] for o in ops])
        if len(ops) >= (2 if trace else 1) and min(deadline, hard_stop) < next_end:
            return ops
        if time.perf_counter() > hard_stop:
            return ops


def summarize(ctx: dict, ops: list[dict], setup: list[dict], trace: bool) -> dict:
    """The run record: provenance, sizes, every operation and the metrics."""
    w = ctx["workload"]
    good = [o for o in ops if not o["failed"]]
    facts = next((o for o in good if "machine" in o), None)
    fingerprints = dict(ctx["fingerprints"])
    if w.first_stage == "simulate" and good:
        fingerprints["panel.csv"] = ctx["hashes"]["panel.csv"]
    fp_status, workload_id = fingerprint_status(w.name, ctx["seed"], fingerprints)
    report = {
        "workload": w.name, "workload_id": workload_id, "seed": ctx["seed"],
        "trace": int(trace), "seconds": ctx["seconds"], "fingerprints": fingerprints,
        "fingerprint_status": fp_status, "revision": source_revision(),
        "machine": facts["machine"] if facts else None,
        "blas_threads": ctx["env"]["OPENBLAS_NUM_THREADS"],
        "client": "closed loop, 1 client, 1 child process per operation",
        "core": ctx["core"],
        "setup_samples": setup,
        "operations": [{k: v for k, v in o.items() if k != "spans"} for o in ops],
        "attempted": len(ops), "failed": sum(o["failed"] for o in ops),
        "metrics": {}, "samples": 0,
    }
    if not facts:
        return report
    report["sizes"] = dict(facts["sizes"], union_m=facts["union_cells"])
    report["computed"] = computed_counts(facts["sizes"], facts["union_cells"])
    if not trace:
        report["metrics"] = end_to_end(good, setup, w.first_stage, nominal=True)
        report["wall_metrics"] = end_to_end(good, setup, w.first_stage, nominal=False)
        report["samples"] = len(good)
        return report
    traced = [o for o in good if o["traced"]]
    plain = [o for o in good if not o["traced"]]
    if not traced:
        return report
    rows = [layer_breakdown(o) for o in traced]
    # times at nominal speed, like the end-to-end metrics; counts as they are
    times = [{k: v * o["nominal_ratio"] if k.endswith("_s") else v for k, v in r[0].items()}
             for o, r in zip(traced, rows)]
    metrics = {key: _median([t[key] for t in times]) for key in times[0]}
    metrics.update(report["computed"])
    metrics["trace.overhead_s"] = (metrics["trace.pipeline_s"]
                                   - _median([o["nominal_pipeline_s"] for o in plain]))
    stress = {n: _median([r[1].get(n, 0.0) for r in rows]) for n in rows[0][1]}
    report.update({
        "metrics": metrics, "samples": len(rows),
        "stress": stress_check(w.name, stress),
        "self_times_s": dict(sorted(stress.items(), key=lambda kv: -kv[1])),
        "absent_spans": traced[0]["absent"],
        "spans": {o["index"]: o["spans"] for o in traced},
    })
    return report


def print_report(report: dict, wanted: dict, first_stage: str) -> None:
    """Human-readable lines: every metric by name and unit, then failures and stress."""
    print(f"workload {report['workload_id']} seed={report['seed']} trace={report['trace']} "
          f"fingerprints={report['fingerprint_status']} ops={report['attempted']} "
          f"failed={report['failed']}")
    for o in report["operations"]:
        if o["failed"]:
            print(f"  op{o['index']} FAILED: {o['error']}")
    metrics = report["metrics"]
    units = dict(wanted)
    units.update({n: "s" if n.endswith("_s") else "count" for n in metrics if n not in wanted})
    for name, unit in units.items():
        label = f"{name} ({first_stage}_s)" if name == "first_stage_s" else name
        samples = len(report["setup_samples"]) if name == "setup_s" else report["samples"]
        extra = "" if name in wanted else "  (not in BENCHMARK.json)"
        if name in report.get("wall_metrics", {}) and unit == "s":
            extra += f"  (wall {report['wall_metrics'][name]:.6g} s)"
        print(f"  {label:<34} {metrics.get(name, float('nan')):>14.6g} {unit:<6} "
              f"median of {samples}{extra}")
    failed, attempted = report["failed"], report["attempted"]
    print(f"  {'failed_frac':<34} {failed / attempted:>14.6g} ratio  {failed} of {attempted}")
    if "stress" in report:
        print(f"  stress: {report['stress']['expect']}: "
              f"{'holds' if report['stress']['holds'] else 'DOES NOT HOLD'}")


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "catfpca" / "__init__.py").is_file():
        print(f"error: no catfpca sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    w = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = {"workload": w, "seed": args.seed, "run_dir": run_dir, "inputs": run_dir / "inputs",
           "env": child_env(), "t_start": t_start, "worker": HERE / "worker.py",
           "seconds": args.seconds, "core": pin_to_one_core()}
    ctx["fingerprints"] = workloads.generate(w, args.seed, ctx["inputs"])
    try:
        with speed.Speedometer(run_dir / "speed.bin", ctx["env"]) as meter:
            setup = measure_setup(ctx["env"], SETUP_FIRST)
            ops = run_loop(ctx, setup, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    set_speed_factors(meter, setup, ops, w.speed_exponents)
    shutil.rmtree(ctx["inputs"])

    report = summarize(ctx, ops, setup, bool(args.trace))
    spans = report.pop("spans", None)
    if spans:
        (run_dir / "spans.json").write_text(json.dumps(spans))
    (RUNS / f"{run_dir.name}.json").write_text(json.dumps(report, indent=1))
    print_report(report, wanted, w.first_stage)
    metrics = report["metrics"]
    missing = sorted(set(wanted) - set(metrics))
    if missing or not all(math.isfinite(metrics[n]) for n in wanted):
        print(f"error: no complete metrics (missing {missing})", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
