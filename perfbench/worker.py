"""One benchmark operation, run in its own child process by ``run.py``.

Calls ``catfpca.cli.main`` for each stage of the operation exactly as a user
runs ``catfpca ingest``/``simulate`` and then ``catfpca mfpca``, times each
call, and writes a JSON record (stage times, exit codes, spans when traced,
machine facts when asked) to ``--record``.  Nothing here is timed except the
``cli.main`` calls; imports happen before the clock starts.

Usage: python3 perfbench/worker.py --workload NAME --seed N --inputs DIR
       --out DIR --record FILE [--trace] [--facts]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import workloads


def _machine() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "numba_importable": numba_ok,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _union_cells(panel_csv: Path) -> int:
    """Cells of the exact union grid of the normalized panel (untimed)."""
    from catfpca import io
    from catfpca.ingest import apply_protocol_normalization
    from catfpca.trajectory import union_grid

    panel, report, meta = io.read_panel(panel_csv)
    if not meta.get("normalized"):
        panel = apply_protocol_normalization(panel, report=report)
    return union_grid(panel.trajectories).m


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--record", type=Path, required=True)
    p.add_argument("--run-id", default="")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--facts", action="store_true")
    args = p.parse_args(argv)

    import catfpca
    import catfpca.cli  # noqa: F401  imported before the clock starts

    w = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.run_id)
        tracer.install()

    record = {"catfpca": catfpca.__file__}
    with open(args.out / "cli.log", "w", encoding="utf-8") as log:
        t_start = time.perf_counter()
        done = workloads.run_stages(w, args.seed, args.inputs, args.out, log=log)
        record["pipeline_s"] = time.perf_counter() - t_start
    record["t0"] = t_start  # perf_counter is system-wide: run.py maps it to the speed reference
    record["stages"] = {stage: seconds for stage, (_, seconds) in done.items()}
    record["exit_codes"] = {stage: code for stage, (code, _) in done.items()}
    if tracer is not None:
        record["spans"] = list(tracer.spans)
        record["absent"] = list(tracer.absent)
    if args.facts and all(c == 0 for c in record["exit_codes"].values()):
        record["machine"] = _machine()
        mfpca_argv = workloads.operation(w, args.seed, args.inputs, args.out)[-1][1]
        record["union_cells"] = _union_cells(Path(mfpca_argv[1]))
    args.record.write_text(json.dumps(record))
    return 0 if all(c == 0 for c in record["exit_codes"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
